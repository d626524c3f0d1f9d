"""Storage-fault injection: a hostile disk behind the storage seam.

The recovery campaign kills *processes*; real systems also lose data to
the storage stack itself — torn multi-sector writes, short writes under
memory pressure, media bit-rot, a full disk, a controller that lies
about durability.  :class:`FaultyStorage` wraps any
:class:`~repro.storage.stable.StorageBackend` and injects exactly those
faults on a deterministic schedule, so the fault fuzzer
(:mod:`repro.harness.fuzz`) can attack the section digests of the
scatter layout (PR 5) and the record CRCs of the WAL (PR 6) at any
operation of a run.  Stores take it as their backend directly
(``WalStore(FaultyStorage(...))``); on a failed job the store's
:meth:`~repro.storage.store.CheckpointStore.on_job_end` first lets
:meth:`FaultyStorage.on_job_end` apply the stalled-sync data loss,
*then* runs its own crash model (the WAL's torn-tail append and
replay).

Fault classes (:data:`STORAGE_FAULT_KINDS`):

* ``torn_write`` — an atomic ``write`` persists only a prefix of the
  payload (the torn-marker / torn-section scenario);
* ``short_append`` — an ``append`` persists only a prefix, so the log's
  in-memory offsets run ahead of the bytes on disk and the next record
  lands torn (the WAL-CRC scenario);
* ``bit_rot`` — one bit of the object just written/appended flips on
  the medium (the digest/CRC corruption scenario);
* ``enospc`` — ``write``/``append`` raises
  :class:`~repro.storage.stable.StorageError` ("disk full") for a
  stretch of operations;
* ``stall_sync`` — a ``sync`` is acknowledged but buys no durability:
  everything appended since the last honest sync is lost if the job
  crashes before a later sync succeeds (the lying-controller /
  stalled-drain scenario).

Every fault is triggered by an *eligible-operation count* (1-based,
filtered by ``path_prefix``), never wall time, so a schedule replays
bit-identically under the cooperative engine.  Injections are counted
per class in :attr:`FaultyStorage.injected` and reported to the fuzz
coverage map as ``storage:<kind>`` points; with an empty schedule the
wrapper is bitwise-transparent and adds nothing but attribute
forwarding.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Sequence

from .. import coverage
from .stable import Buffers, StorageBackend, StorageError, as_buffers

#: every injectable fault class, in display order
STORAGE_FAULT_KINDS = ("torn_write", "short_append", "bit_rot", "enospc",
                      "stall_sync")

#: which backend operations each fault class counts as eligible
_OP_CLASS = {
    "torn_write": ("write",),
    "short_append": ("append",),
    "bit_rot": ("write", "append"),
    "enospc": ("write", "append"),
    "stall_sync": ("sync",),
}


@dataclass
class StorageFault:
    """One scheduled storage fault."""

    kind: str
    #: fire on the N-th eligible operation (1-based) of the kind's class
    after_ops: int = 1
    #: only operations on paths with this prefix are eligible ("" = all)
    path_prefix: str = ""
    #: fraction of the payload a torn/short write persists
    keep_fraction: float = 0.5
    #: bit index flipped by ``bit_rot`` (modulo the object's bit length)
    bit: int = 0
    #: consecutive eligible operations affected (``enospc``/``stall_sync``
    #: stretches; torn/short/bit-rot hit exactly once regardless)
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in STORAGE_FAULT_KINDS:
            raise ValueError(f"unknown storage-fault kind {self.kind!r}; "
                             f"expected one of {STORAGE_FAULT_KINDS}")
        if self.after_ops < 1:
            raise ValueError("after_ops is a 1-based operation index")
        if not (0.0 <= self.keep_fraction < 1.0):
            raise ValueError("keep_fraction must be in [0, 1)")
        if self.bit < 0:
            raise ValueError("bit must be >= 0")
        if self.count < 1:
            raise ValueError("count must be >= 1")

    def describe(self) -> str:
        parts = [f"{self.kind} at op {self.after_ops}"]
        if self.count > 1:
            parts.append(f"x{self.count}")
        if self.path_prefix:
            parts.append(f"under {self.path_prefix!r}")
        return " ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form: kind plus non-default fields."""
        out: Dict[str, Any] = {"kind": self.kind, "after_ops": self.after_ops}
        if self.path_prefix:
            out["path_prefix"] = self.path_prefix
        if self.keep_fraction != 0.5:
            out["keep_fraction"] = self.keep_fraction
        if self.bit:
            out["bit"] = self.bit
        if self.count != 1:
            out["count"] = self.count
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StorageFault":
        allowed = {f.name for f in fields(cls)}
        bad = sorted(set(data) - allowed)
        if bad:
            raise ValueError(f"unknown StorageFault fields: {bad}")
        return cls(**data)


class FaultyStorage(StorageBackend):
    """A :class:`StorageBackend` proxy that injects scheduled faults.

    Deterministic: each fault keeps its own eligible-operation counter,
    so the same schedule against the same operation stream injects at
    the same instants.  Unknown attributes (the accounting counters,
    ``root``, ...) forward to the wrapped backend, so existing studies
    read the real traffic; ``shared_across_fork`` answers for the
    wrapped medium by the :class:`StorageBackend` proxy rule.
    """

    def __init__(self, inner: StorageBackend,
                 faults: Sequence[StorageFault] = ()):
        self.inner = inner
        self.faults: List[StorageFault] = list(faults)
        #: fault class -> number of operations actually perturbed
        self.injected: Dict[str, int] = {k: 0 for k in STORAGE_FAULT_KINDS}
        self._seen: Dict[int, int] = {}       # id(fault) -> eligible ops
        self._done: Dict[int, int] = {}       # id(fault) -> injections
        #: path -> durable length at the last honest durability point
        self._synced_len: Dict[str, int] = {}
        #: paths with at least one swallowed sync since their last honest
        #: durability point (the bytes a crash would lose)
        self._stalled: set = set()

    # -- fault scheduling ----------------------------------------------------
    def _due(self, op: str, path: str) -> List[StorageFault]:
        """Advance eligibility counters; return the faults firing now."""
        due = []
        for fault in self.faults:
            if op not in _OP_CLASS[fault.kind]:
                continue
            if fault.path_prefix and not path.startswith(fault.path_prefix):
                continue
            key = id(fault)
            seen = self._seen.get(key, 0) + 1
            self._seen[key] = seen
            done = self._done.get(key, 0)
            limit = fault.count if fault.kind in ("enospc", "stall_sync") \
                else 1
            if done < limit and seen >= fault.after_ops:
                self._done[key] = done + 1
                due.append(fault)
        return due

    def _record(self, kind: str) -> None:
        self.injected[kind] += 1
        coverage.hit(f"storage:{kind}")

    @staticmethod
    def _cut(data: bytes, keep_fraction: float) -> bytes:
        """The prefix a torn/short write persists (always a strict one)."""
        if len(data) <= 1:
            return b""
        return data[:max(1, int(len(data) * keep_fraction))]

    def _rot(self, path: str, bit: int) -> None:
        """Flip one bit of the stored object (best-effort: empty objects
        have no medium to rot)."""
        try:
            payload = bytearray(self.inner.read(path))
        except StorageError:
            return
        if not payload:
            return
        index = bit % (len(payload) * 8)
        payload[index // 8] ^= 1 << (index % 8)
        self.inner.write(path, bytes(payload))
        self._record("bit_rot")

    # -- StorageBackend API --------------------------------------------------
    def write(self, path: str, data: bytes) -> None:
        due = self._due("write", path)
        for fault in due:
            if fault.kind == "enospc":
                self._record("enospc")
                raise StorageError(f"no space left on device (injected) "
                                   f"writing {path!r}")
        torn = next((f for f in due if f.kind == "torn_write"), None)
        if torn is not None:
            data = self._cut(data, torn.keep_fraction)
        self.inner.write(path, data)
        # an atomic write is its own durability point
        self._synced_len[path] = len(data)
        self._stalled.discard(path)
        if torn is not None:
            self._record("torn_write")
        for fault in due:
            if fault.kind == "bit_rot":
                self._rot(path, fault.bit)

    def append(self, path: str, data: Buffers) -> int:
        due = self._due("append", path)
        for fault in due:
            if fault.kind == "enospc":
                self._record("enospc")
                raise StorageError(f"no space left on device (injected) "
                                   f"appending to {path!r}")
        short = next((f for f in due if f.kind == "short_append"), None)
        if short is not None:
            # only a cut flattens the caller's buffers
            data = self._cut(b"".join(as_buffers(data)), short.keep_fraction)
        offset = self.inner.append(path, data)
        if short is not None:
            self._record("short_append")
        for fault in due:
            if fault.kind == "bit_rot":
                self._rot(path, fault.bit)
        return offset

    def sync(self, path: str) -> None:
        due = self._due("sync", path)
        if any(f.kind == "stall_sync" for f in due):
            # acknowledged, not durable: the unsynced tail stays exposed
            self._record("stall_sync")
            self._stalled.add(path)
            return
        self.inner.sync(path)
        try:
            self._synced_len[path] = self.inner.size(path)
        except StorageError:
            self._synced_len.pop(path, None)
        self._stalled.discard(path)

    def read(self, path: str) -> bytes:
        return self.inner.read(path)

    def read_range(self, path: str, offset: int, nbytes: int) -> bytes:
        return self.inner.read_range(path, offset, nbytes)

    def exists(self, path: str) -> bool:
        return self.inner.exists(path)

    def delete(self, path: str) -> None:
        self.inner.delete(path)
        self._synced_len.pop(path, None)
        self._stalled.discard(path)

    def list(self, prefix: str = "") -> List[str]:
        return self.inner.list(prefix)

    def size(self, path: str) -> int:
        return self.inner.size(path)

    # -- crash semantics -----------------------------------------------------
    def on_job_end(self, crashed: bool) -> None:
        """Lose what the stalled syncs never made durable — on a crash.

        Every path whose last durability point was swallowed is truncated
        back to its recorded durable length: the medium state a crash
        exposes.  The store calls this *before* its own crash handling,
        so WAL replay parses the post-loss bytes.  A clean job end loses
        nothing (the page cache drains after all): the stalled state is
        just forgotten.
        """
        for path in sorted(self._stalled) if crashed else ():
            durable = self._synced_len.get(path, 0)
            try:
                current = self.inner.read(path)
            except StorageError:
                continue
            if len(current) <= durable:
                continue
            coverage.hit("storage:stall_loss")
            if durable:
                self.inner.write(path, current[:durable])
            else:
                try:
                    self.inner.delete(path)
                except StorageError:
                    pass
        self._stalled.clear()
        super().on_job_end(crashed)

    def __getattr__(self, name: str):
        # counters (write_count, fsync_count, ...) and backend-specific
        # attributes forward to the wrapped backend
        return getattr(self.inner, name)
