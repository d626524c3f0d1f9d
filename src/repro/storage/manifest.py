"""The checkpoint commit manifest: its digest and its one codec.

A recovery line is usable only if **every** rank committed it.  Each rank
can answer "what is the last version I committed?" locally; the global
answer is the minimum over ranks, computed during recovery with an
all-reduce — exactly the "global reduction to find last checkpoint
committed on all nodes" step of ``chkpt_RestoreCheckpoint`` (Figure 5).
Those queries live on :class:`~repro.storage.store.CheckpointStore`;
this module owns what every store engine writes into a commit record.

Crash consistency
-----------------
A commit record is not a bare token: it carries a *section manifest* —
the name, size, and content digest of every section of the line — and
is written only after every section is durable (in the overlapped
write-back pipeline, only once the virtual-time drain of the staged
bytes has completed).  :meth:`CheckpointStore.read_line
<repro.storage.store.CheckpointStore.read_line>` reads a line back
whole and checks every section against its manifest — the one place a
payload is verified — so torn lines are rejected and recovery falls
back to the previous committed line.

Every commit carries a manifest.  A record that does not decode to one
— a torn or rotted marker, or the bare ``b"ok"`` token commits carried
before manifests existed — is corrupt, and its line is invalid.

Format changes
--------------
Section digests were BLAKE2b-128 and are now SHA-256/128: same size, so
every record and byte count kept its length.  A line committed with an
old digest fails :meth:`~repro.storage.store.CheckpointStore.read_line`
("fails its digest") and recovery falls back as from any bad line.  No
old-format reader is owed: every store lives inside one run's
directory, written and restored by the same code.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

from .stable import StorageError

#: section name -> (payload bytes, content digest), as handed to commit
Sections = Dict[str, Tuple[int, str]]


def section_digest(payload: bytes) -> str:
    """Content digest recorded in the manifest: SHA-256 truncated to 128
    bits, as 32 hex characters.

    Same strength and size as the BLAKE2b-128 it replaced, and faster
    on CPUs with SHA extensions (the payloads are MiB-sized arrays).
    """
    return hashlib.sha256(payload).hexdigest()[:32]


def encode_commit(version: int, rank: int, sections: Sections,
                  ) -> Tuple[dict, bytes]:
    """The commit record of one line: ``(manifest, payload bytes)``.

    ``sections`` maps each section name to its ``(nbytes, digest)``
    pair.
    """
    from ..statesave import serializer
    record = {
        "version": version,
        "rank": rank,
        "sections": {name: [int(nbytes), str(digest)]
                     for name, (nbytes, digest) in sections.items()},
    }
    return record, serializer.dumps(record)


def decode_commit(data: bytes) -> dict:
    """The manifest a commit record carries.

    A record that is not a well-formed manifest — a torn write or
    bit-rot caught mid-marker, or a bare token — raises
    :class:`StorageError`: the *line* is bad, not the program.
    """
    from ..statesave import serializer
    try:
        record = serializer.loads(data)
    except Exception as exc:
        raise StorageError(f"corrupt COMMIT marker: {exc}") from None
    if not isinstance(record, dict) or "sections" not in record:
        raise StorageError("corrupt COMMIT marker: not a manifest")
    return record
