"""Incremental checkpointing (the paper's Section 8 future-work item).

"We are incorporating incremental checkpointing into our system, which
will permit the system to save only those data that have been modified
since the last checkpoint."

The tracker works at page granularity, like the system-level incremental
checkpointers it is modelled on: each registered array is divided into
4 KiB pages, a digest per page is kept from the previous checkpoint, and
a save emits only the dirty pages (plus enough geometry to rebuild the
array).  Restoring walks the version chain backwards to the most recent
*full* save and applies patches forward.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .serializer import wire_dtype

PAGE = 4096


class IncrementalError(Exception):
    """Broken patch chain or geometry mismatch."""


def _page_digests(raw: bytes) -> List[bytes]:
    return [hashlib.sha1(raw[i:i + PAGE]).digest() for i in range(0, len(raw), PAGE)]


class IncrementalTracker:
    """Per-rank dirty-page tracker across checkpoint versions."""

    def __init__(self, full_interval: int = 8):
        if full_interval < 1:
            raise ValueError("full_interval must be >= 1")
        #: force a full save every N checkpoints to bound restore chains
        self.full_interval = full_interval
        self._digests: Dict[str, List[bytes]] = {}
        #: tracked array geometry: name -> (dtype, shape, nbytes).  A delta
        #: is only valid against an identical geometry — equal byte counts
        #: are NOT enough (a dtype or shape change with the same nbytes
        #: would silently flip the chain's metadata mid-stream).
        self._geometry: Dict[str, Tuple[str, tuple, int]] = {}
        self._saves_since_full = 0

    # -- saving -------------------------------------------------------------
    def encode(self, arrays: Dict[str, np.ndarray], force_full: bool = False) -> dict:
        """Produce a full or incremental record for the given arrays."""
        full = (
            force_full
            or not self._digests
            or self._saves_since_full + 1 >= self.full_interval
        )
        record: dict = {"full": full, "arrays": {}}
        new_digests: Dict[str, List[bytes]] = {}
        new_geometry: Dict[str, Tuple[str, tuple, int]] = {}
        for name, arr in arrays.items():
            dtype = wire_dtype(arr)
            raw = np.ascontiguousarray(arr).tobytes()
            digests = _page_digests(raw)
            new_digests[name] = digests
            geometry = (dtype, tuple(arr.shape), len(raw))
            new_geometry[name] = geometry
            meta = {"dtype": dtype, "shape": tuple(arr.shape),
                    "nbytes": len(raw)}
            if full or name not in self._digests or \
                    self._geometry.get(name) != geometry:
                record["arrays"][name] = {**meta, "kind": "full", "data": raw}
            else:
                old = self._digests[name]
                dirty = [i for i, d in enumerate(digests) if d != old[i]]
                pages = {i: raw[i * PAGE:(i + 1) * PAGE] for i in dirty}
                record["arrays"][name] = {**meta, "kind": "delta",
                                          "pages": pages}
        # Arrays that disappeared are recorded as deletions so restore chains
        # do not resurrect them.
        for name in self._digests:
            if name not in arrays:
                record["arrays"][name] = {"kind": "deleted"}
        self._digests = new_digests
        self._geometry = new_geometry
        self._saves_since_full = 0 if full else self._saves_since_full + 1
        return record

    @staticmethod
    def record_bytes(record: dict) -> int:
        """Payload bytes a record would write (the Table-4 'size/proc' analog)."""
        total = 0
        for entry in record["arrays"].values():
            if entry["kind"] == "full":
                total += len(entry["data"])
            elif entry["kind"] == "delta":
                total += sum(len(p) for p in entry["pages"].values())
        return total

    # -- restoring ------------------------------------------------------------
    @staticmethod
    def decode_chain(records: List[dict]) -> Dict[str, np.ndarray]:
        """Rebuild arrays from a chain ending at the wanted version.

        ``records`` must be ordered oldest-to-newest and the first one must
        be a full record (callers locate the latest full save first).
        """
        if not records:
            raise IncrementalError("empty record chain")
        if not records[0]["full"]:
            raise IncrementalError("record chain does not start at a full save")
        state: Dict[str, bytearray] = {}
        meta: Dict[str, Tuple[str, tuple]] = {}
        for rec in records:
            for name, entry in rec["arrays"].items():
                if entry["kind"] == "deleted":
                    state.pop(name, None)
                    meta.pop(name, None)
                    continue
                if entry["kind"] == "full":
                    state[name] = bytearray(entry["data"])
                    meta[name] = (entry["dtype"], tuple(entry["shape"]))
                elif entry["kind"] == "delta":
                    if name not in state:
                        raise IncrementalError(
                            f"delta for unknown array {name!r} (chain broken)"
                        )
                    buf = state[name]
                    if (len(buf) != entry["nbytes"]
                            or meta[name] != (entry["dtype"],
                                              tuple(entry["shape"]))):
                        raise IncrementalError(
                            f"geometry change for {name!r} without a full save"
                        )
                    for i, page in entry["pages"].items():
                        buf[i * PAGE:i * PAGE + len(page)] = page
                else:
                    raise IncrementalError(f"unknown record kind {entry['kind']!r}")
        out: Dict[str, np.ndarray] = {}
        for name, buf in state.items():
            dtype, shape = meta[name]
            out[name] = np.frombuffer(bytes(buf), dtype=np.dtype(dtype)).reshape(shape).copy()
        return out
