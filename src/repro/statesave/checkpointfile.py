"""Versioned checkpoint files.

``chkpt_StartCheckpoint`` "creates a checkpoint version and directory"
(Figure 5) and writes sections into it; ``chkpt_CommitCheckpoint`` adds
the late-message registry and commits.  :class:`CheckpointWriter` and
:class:`CheckpointReader` implement that file format over a storage
backend: named sections, each a serialized value, committed atomically
with a per-rank marker.

The writer supports a *dry-run* mode in which all serialization work is
performed and byte counts accounted, but nothing is stored — this is
configuration #2 of Tables 4 and 5 ("going through the motions of taking
a checkpoint without actually saving anything to disk").
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..storage.manifest import section_digest
from ..storage.stable import StorageError
from ..storage.store import as_store
from .serializer import dumps, loads


class CheckpointError(Exception):
    """Invalid checkpoint operation (double commit, missing section, ...)."""


class CheckpointWriter:
    """Accumulates sections for one (version, rank) checkpoint.

    Section payloads are written to the backend as they are saved (the
    staging step of the overlapped pipeline: serialization *is* the
    copy-on-write snapshot, so the application may mutate its state the
    moment ``save`` returns).  The line only becomes restart-eligible at
    :meth:`commit`, which records a manifest of every section's size and
    content digest in the COMMIT marker — the overlapped drain path
    defers that call until the staged bytes are durable in virtual time.
    """

    def __init__(self, storage, version: int, rank: int,
                 dry_run: bool = False):
        self.storage = storage
        self.store = as_store(storage)
        self.version = version
        self.rank = rank
        self.dry_run = dry_run
        self._written: Dict[str, Tuple[int, str]] = {}
        self.committed = False
        #: a section write hit a storage error (disk full, injected
        #: fault): the line can never commit — :meth:`commit` raises and
        #: the protocol abandons it, falling back to the previous line
        self.failed = False

    def save(self, section: str, value: Any) -> int:
        """Serialize and store one section; returns its size in bytes.

        A :class:`StorageError` from the backend marks the writer failed
        instead of propagating: state saving happens mid-protocol (the
        epoch has advanced, peers were announced), so the job must carry
        on — only this rank's copy of the line is lost, and the commit
        step turns that into a clean abandonment.
        """
        if self.committed:
            raise CheckpointError("checkpoint already committed")
        if section in self._written:
            raise CheckpointError(f"section {section!r} already written")
        payload = dumps(value)
        if self.dry_run or self.failed:
            self._written[section] = (len(payload), "")
        else:
            try:
                self.store.put_section(self.version, self.rank, section,
                                       payload)
            except StorageError:
                self.failed = True
                self._written[section] = (len(payload), "")
            else:
                self._written[section] = (len(payload),
                                          section_digest(payload))
        return len(payload)

    @property
    def bytes_written(self) -> int:
        """Total serialized bytes across all sections written so far."""
        return sum(nbytes for nbytes, _ in self._written.values())

    @property
    def sections(self) -> List[str]:
        """Names of the sections written so far (sorted)."""
        return sorted(self._written)

    @property
    def manifest(self) -> Dict[str, Tuple[int, str]]:
        """section -> (nbytes, digest) for everything written so far."""
        return dict(self._written)

    def commit(self) -> None:
        """Write the commit marker; the checkpoint becomes restart-eligible."""
        if self.committed:
            raise CheckpointError("checkpoint already committed")
        if self.failed:
            raise StorageError(
                f"checkpoint v{self.version} rank {self.rank} abandoned: "
                "a section write failed")
        if not self.dry_run:
            self.store.commit_line(self.version, self.rank,
                                   sections=self._written)
        self.committed = True


class CheckpointReader:
    """Decodes the sections of one verified (version, rank) checkpoint.

    The line is read once, whole, by
    :meth:`~repro.storage.store.CheckpointStore.read_line`, which checks
    every section's size and digest against the COMMIT manifest: a torn,
    corrupted or uncommitted line raises :class:`CheckpointError` here,
    before anything is decoded.  :meth:`load` only deserializes, and
    drops a section's raw bytes once it has, so each section loads once.
    """

    def __init__(self, storage, version: int, rank: int):
        self.version = version
        self.rank = rank
        try:
            self._payloads = as_store(storage).read_line(version, rank)
        except StorageError as exc:
            raise CheckpointError(
                f"rank {rank} checkpoint v{version} is not restorable: "
                f"{exc}") from None
        self._nbytes = sum(len(p) for p in self._payloads.values())

    def load(self, section: str) -> Any:
        """Deserialize one section (raises if absent or already loaded)."""
        payload = self._payloads.pop(section, None)
        if payload is None:
            raise CheckpointError(
                f"rank {self.rank} checkpoint v{self.version} has no "
                f"section {section!r} left to load")
        return loads(payload)

    def total_bytes(self) -> int:
        """Payload bytes of the line as read: its manifest's count,
        excluding the commit record."""
        return self._nbytes
