"""The checkpoint-store layer: line/section/commit semantics over bytes.

* :class:`CheckpointStore` — the one statement of the contract every
  storage consumer needs: stage a section, commit a line with its
  manifest, read a line back verified, validate lines over a few
  per-engine primitives, answer the global queries (``committed_map``,
  ``last_committed_global``), delete superseded lines, and sequence a
  crash.
* :class:`ScatterStore` — the original per-file layout, kept for old
  stores, the baselines, and as the differential oracle for the WAL.
* :class:`~repro.storage.wal.WalStore` — the production engine: one
  append-only log per simulated node, group commit with a single batched
  fsync, recovery by replay, segment-based GC
  (DESIGN.md §8).

Both engines encode commit records with :mod:`repro.storage.manifest`.

:func:`as_store` is the seam every layer normalizes through: protocol,
checkpoint files, drain daemon, restart harness, and campaign all accept
"a store or a bare backend" and meet here.  A bare backend whose
namespace already holds WAL segments is opened as a
:class:`~repro.storage.wal.WalStore` (replaying the log), so an operator
pointing :func:`~repro.core.ccc.resume_from_manifest` at the stable
storage of a failed WAL job restores without knowing which engine wrote
it.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Tuple

from .. import coverage
from .manifest import Sections, decode_commit, encode_commit, section_digest
from .stable import StorageBackend, StorageError

#: backend namespace prefix of the WAL engine's segments (used by layout
#: auto-detection; see :func:`as_store` and :mod:`repro.storage.wal`)
WAL_PREFIX = "wal/"


class CheckpointStore:
    """Line/section/commit semantics of one stable checkpoint store.

    A *line* is one ``(version, rank)`` checkpoint: named section
    payloads plus a commit record carrying the manifest (per-section
    size and content digest).  A line is restart-eligible only once its
    commit record is **durable**; implementations decide what durability
    costs (one fsync per object for the scatter layout, one batched
    fsync per node group for the WAL).  An engine supplies the
    mutators, the section reads, the two global listings and two
    primitives (:meth:`_commit_record`, :meth:`_section_len`);
    everything else is derived here.
    """

    #: the byte store underneath (shared across ranks of a job)
    backend: StorageBackend

    # -- topology ----------------------------------------------------------
    def configure(self, nprocs: int, procs_per_node: int = 1) -> None:
        """Late-bind the job topology (rank→node mapping, group sizes).

        Idempotent; called by every rank's protocol at startup.  The
        scatter layout has no per-node structure, so the default is a
        no-op.
        """

    # -- write path --------------------------------------------------------
    def put_section(self, version: int, rank: int, section: str,
                    payload: bytes) -> None:
        raise NotImplementedError

    def commit_line(self, version: int, rank: int,
                    sections: Sections) -> None:
        """Record the commit of one line (``sections`` is its manifest)."""
        raise NotImplementedError

    def delete_line(self, version: int, rank: int) -> None:
        """Drop every trace of one line (GC; missing lines are a no-op)."""
        raise NotImplementedError

    # -- durability --------------------------------------------------------
    def flush(self) -> None:
        """Force every staged write durable (end-of-job, studies)."""

    def flush_rank(self, rank: int) -> None:
        """Force ``rank``'s node durable (its ``MPI_Finalize``)."""
        self.flush()

    def on_job_end(self, failed_rank: Optional[int] = None) -> None:
        """Job-lifetime boundary, called once per engine run.

        ``failed_rank`` is the fail-stop victim (None for a clean end).
        The medium goes first (a crash loses a stalled sync's bytes),
        then the store's own crash model runs on what is left: the order
        a real crash imposes.
        """
        self.backend.on_job_end(crashed=failed_rank is not None)
        self._job_end(failed_rank)

    def _job_end(self, failed_rank: Optional[int]) -> None:
        """A clean end flushes; a crash applies the engine's loss model
        (the WAL tears the victim node's unsynced tail)."""
        if failed_rank is None:
            self.flush()

    # -- per-engine read primitives ----------------------------------------
    def read_section(self, version: int, rank: int, section: str) -> bytes:
        raise NotImplementedError

    def _commit_record(self, version: int, rank: int) -> dict:
        """The decoded manifest of a committed line; StorageError if
        there is no durable record or it is corrupt."""
        raise NotImplementedError

    def _section_len(self, version: int, rank: int, section: str) -> int:
        """Stored payload length of one section (StorageError if
        absent), without reading the payload."""
        raise NotImplementedError

    # -- line queries --------------------------------------------------------
    def line_manifest(self, version: int, rank: int) -> Optional[dict]:
        """The committed line's manifest record (None if absent or
        corrupt).

        Callers of this accessor want "the manifest, if one is usable";
        rejecting the line outright is :meth:`read_line`'s job.
        """
        try:
            return self._commit_record(version, rank)
        except StorageError:
            return None

    def _sized_sections(self, version: int, rank: int,
                        ) -> Iterator[Tuple[str, str]]:
        """``(section, digest)`` of each manifest entry, once the commit
        record names this line and the section is stored with its
        recorded size; StorageError at the first defect."""
        record = self._commit_record(version, rank)
        if record.get("version") != version or record.get("rank") != rank:
            raise StorageError(
                f"COMMIT of v{version}/rank{rank} names another line")
        for name, (nbytes, digest) in record["sections"].items():
            if self._section_len(version, rank, name) != int(nbytes):
                raise StorageError(
                    f"v{version}/rank{rank} section {name!r} is torn")
            yield name, digest

    def read_line(self, version: int, rank: int) -> Dict[str, bytes]:
        """Every section of one committed line, verified:
        ``{section: payload}``.

        The one place a payload is checked against its manifest: each
        manifest section must be stored with its recorded size, is read
        once, and must match its recorded digest.  A torn, truncated or
        rotted line raises :class:`StorageError`.
        """
        payloads: Dict[str, bytes] = {}
        for name, digest in self._sized_sections(version, rank):
            payload = self.read_section(version, rank, name)
            if section_digest(payload) != digest:
                coverage.hit("path:digest_rejected")
                raise StorageError(
                    f"v{version}/rank{rank} section {name!r} fails its "
                    "digest")
            payloads[name] = payload
        return payloads

    def validate_line(self, version: int, rank: int,
                      deep: bool = False) -> bool:
        """Is ``(version, rank)`` a committed, un-torn recovery line?

        Shallow validation (the default) checks that the commit record
        exists and that every manifest section is present with the
        recorded size — an ``os.stat`` per section on a scatter
        :class:`~repro.storage.stable.DiskStorage`, an index lookup in
        the WAL, no payload reads.  ``deep=True`` means ":meth:`read_line`
        succeeds".
        """
        try:
            if deep:
                self.read_line(version, rank)
            else:
                list(self._sized_sections(version, rank))
        except StorageError:
            return False
        return True

    def checkpoint_bytes(self, version: int, rank: int) -> int:
        """Total payload bytes of one committed line, from its manifest
        (stale sections a pre-crash attempt left at the same version are
        not counted; a line without a usable commit record counts 0)."""
        record = self.line_manifest(version, rank)
        if record is None:
            return 0
        return sum(int(nbytes) for nbytes, _ in record["sections"].values())

    # -- global queries ----------------------------------------------------
    def committed_map(self) -> Dict[int, List[int]]:
        """rank -> ascending durably committed versions."""
        raise NotImplementedError

    def lines_on_storage(self) -> Dict[int, List[int]]:
        """rank -> ascending versions with ANY stored object (sees torn
        lines — the view garbage collectors and retention audits need)."""
        raise NotImplementedError

    def committed_versions(self, rank: int) -> List[int]:
        return self.committed_map().get(rank, [])

    def last_committed_local(self, rank: int) -> Optional[int]:
        """The last version ``rank`` committed (torn or not: whether it
        reads back is :meth:`read_line`'s question)."""
        versions = self.committed_versions(rank)
        return versions[-1] if versions else None

    def last_committed_global(self, nprocs: int,
                              validate: bool = False) -> Optional[int]:
        """Last version committed by *all* ranks (harness-side check).

        One :meth:`committed_map` pass builds the whole rank->versions
        map; the candidate is the min of per-rank maxima, verified
        against every rank's set.  ``validate=True`` additionally
        shallow-validates each rank's candidate lines, skipping torn
        ones.
        """
        cmap = self.committed_map()
        candidate: Optional[int] = None
        for rank in range(nprocs):
            versions = cmap.get(rank)
            if not versions:
                return None
            local: Optional[int] = None
            if validate:
                for v in reversed(versions):
                    if self.validate_line(v, rank):
                        local = v
                        break
            else:
                local = versions[-1]
            if local is None:
                return None
            candidate = local if candidate is None else min(candidate, local)
        # The minimum of per-rank maxima is committed everywhere because
        # each rank commits versions in order; verify defensively anyway.
        for rank in range(nprocs):
            if candidate not in cmap.get(rank, []):
                return None
            if validate and not self.validate_line(candidate, rank):
                return None
        return candidate

    # -- accounting --------------------------------------------------------
    def storage_bytes(self) -> int:
        """Bytes the store currently occupies on its backend (live + any
        not-yet-collected garbage) — the retention studies' metric."""
        return self.backend.total_bytes()

    # -- cross-process refresh ---------------------------------------------
    def reload(self) -> None:
        """Rebuild in-memory indexes from the backend's bytes.

        The processes engine calls this after every run: its workers
        wrote through forked copies of the store to a medium every
        process shares, so the parent's indexes are stale while the
        bytes are current.  Stateless stores (the scatter layout
        derives everything from the backend) need nothing; the WAL
        re-replays its segments.
        """


_COMMIT_RE = re.compile(r"^ckpt/v(\d+)/rank(\d+)/COMMIT$")
_LINE_RE = re.compile(r"^ckpt/v(\d+)/rank(\d+)/")


class ScatterStore(CheckpointStore):
    """The per-file layout: every section its own backend object::

        ckpt/v{version}/rank{r}/{section}     checkpoint payload sections
        ckpt/v{version}/rank{r}/COMMIT        per-rank commit marker

    Each section ``write`` is an atomic durable object (one fsync each
    on disk), the COMMIT marker is one more, and GC deletes the line's
    objects one by one.  Simple, legible on a filesystem, and the
    baseline the WAL's group commit is measured against.  Every global
    query is ONE ``list("ckpt/")`` pass, never one namespace scan per
    rank.
    """

    def __init__(self, backend: StorageBackend):
        self.backend = backend

    @staticmethod
    def _prefix(version: int, rank: int) -> str:
        return f"ckpt/v{version}/rank{rank}/"

    def put_section(self, version, rank, section, payload):
        self.backend.write(self._prefix(version, rank) + section, payload)

    def commit_line(self, version, rank, sections):
        _, payload = encode_commit(version, rank, sections)
        self.backend.write(self._prefix(version, rank) + "COMMIT", payload)

    def delete_line(self, version, rank):
        for path in self.backend.list(self._prefix(version, rank)):
            try:
                self.backend.delete(path)
            except StorageError:
                pass  # concurrent deletion attempts are harmless

    def read_section(self, version, rank, section):
        return self.backend.read(self._prefix(version, rank) + section)

    def _commit_record(self, version, rank):
        return decode_commit(
            self.backend.read(self._prefix(version, rank) + "COMMIT"))

    def _section_len(self, version, rank, section):
        return self.backend.size(self._prefix(version, rank) + section)

    def _scan(self, pattern: "re.Pattern[str]") -> Dict[int, List[int]]:
        out: Dict[int, set] = {}
        for path in self.backend.list("ckpt/"):
            m = pattern.match(path)
            if m:
                out.setdefault(int(m.group(2)), set()).add(int(m.group(1)))
        return {rank: sorted(versions) for rank, versions in out.items()}

    def committed_map(self):
        return self._scan(_COMMIT_RE)

    def lines_on_storage(self):
        return self._scan(_LINE_RE)


class RecordingStore(CheckpointStore):
    """Per-shard checkpoint-store veneer for the processes engine.

    Each forked shard wraps the job's store in one of these.  Mutators
    forward to the store, whose bytes reach a medium every process
    shares (the parent reloads from it after the run).  Two concerns,
    both in service of keeping a multi-process run bit-identical to the
    cooperative engine (see DESIGN.md §12):

    * **commit notices** — :meth:`take_notices` diffs the inner store's
      ``committed_map`` against what was already reported, yielding the
      ``(version, rank)`` lines that became *durable* since the last
      call (under the WAL a ``commit_line`` is not durable until its
      node's group flush, so notifying on the call itself would leak
      commits other ranks cannot see yet).  The master collects
      these in shard status messages and rebroadcasts them at
      quiescence epochs;
    * **remote-commit overlay** — notices from other shards merge into
      :meth:`committed_map`, so global queries (the GC floor of
      ``last_committed_global``, and with it ``gc_deleted_lines`` in
      the per-rank stats) see exactly the cross-rank commit visibility
      a single-process run has at the same quiescence points.

    Reads forward only the engine primitives; anything else
    (``commit_hooks``, counters) reaches the wrapped store through
    ``__getattr__``.
    """

    def __init__(self, inner: CheckpointStore):
        self.inner = inner
        self.backend = inner.backend
        #: rank -> versions already reported through take_notices
        self._noticed: Dict[int, set] = {}
        #: rank -> versions committed by other shards (overlay)
        self._remote: Dict[int, set] = {}

    # -- mutators (forwarded) ----------------------------------------------
    def configure(self, nprocs, procs_per_node=1):
        self.inner.configure(nprocs, procs_per_node)

    def put_section(self, version, rank, section, payload):
        self.inner.put_section(version, rank, section, payload)

    def commit_line(self, version, rank, sections):
        self.inner.commit_line(version, rank, sections)

    def delete_line(self, version, rank):
        self.inner.delete_line(version, rank)

    def flush(self):
        self.inner.flush()

    def flush_rank(self, rank):
        self.inner.flush_rank(rank)

    def on_job_end(self, failed_rank=None):
        self.inner.on_job_end(failed_rank)

    # -- cross-shard plumbing ------------------------------------------------
    def take_notices(self) -> List[Tuple[int, int]]:
        """Durable ``(version, rank)`` commits not yet reported."""
        notices: List[Tuple[int, int]] = []
        for rank, versions in self.inner.committed_map().items():
            seen = self._noticed.setdefault(rank, set())
            for v in versions:
                if v not in seen:
                    seen.add(v)
                    notices.append((v, rank))
        notices.sort()
        return notices

    def apply_remote_commits(self, notices) -> None:
        """Merge rebroadcast ``(version, rank)`` notices into the overlay
        (notices for locally committed lines are harmless duplicates)."""
        for version, rank in notices:
            self._remote.setdefault(rank, set()).add(version)

    # -- primitives (forwarded) ----------------------------------------------
    def read_section(self, version, rank, section):
        return self.inner.read_section(version, rank, section)

    def _commit_record(self, version, rank):
        return self.inner._commit_record(version, rank)

    def _section_len(self, version, rank, section):
        return self.inner._section_len(version, rank, section)

    def committed_map(self):
        cmap = self.inner.committed_map()
        if self._remote:
            cmap = dict(cmap)
            for rank, versions in self._remote.items():
                cmap[rank] = sorted(set(cmap.get(rank, ())) | versions)
        return cmap

    def lines_on_storage(self):
        return self.inner.lines_on_storage()

    def __getattr__(self, name):
        if name == "inner":  # guard recursion before __init__ ran
            raise AttributeError(name)
        return getattr(self.inner, name)


def as_store(storage, procs_per_node: Optional[int] = None,
             nprocs: Optional[int] = None) -> CheckpointStore:
    """Normalize "a store or a bare backend" into a :class:`CheckpointStore`.

    * a :class:`CheckpointStore` passes through (optionally configured);
    * a :class:`StorageBackend` whose namespace holds WAL segments opens
      as a :class:`~repro.storage.wal.WalStore` (replaying the log) —
      restart tooling pointed at a bare backend restores either layout;
    * any other backend wraps as a :class:`ScatterStore`.
    """
    if isinstance(storage, CheckpointStore):
        store = storage
    elif isinstance(storage, StorageBackend):
        if storage.list(WAL_PREFIX):
            from .wal import WalStore  # local import: wal imports store
            store = WalStore(storage)
        else:
            store = ScatterStore(storage)
    else:
        raise TypeError(
            f"expected a CheckpointStore or StorageBackend, got "
            f"{type(storage).__name__}")
    if nprocs is not None:
        store.configure(nprocs, procs_per_node or 1)
    return store
