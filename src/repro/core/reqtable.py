"""Request indirection table (Section 4.1).

To stay independent of the underlying MPI implementation, the protocol
keeps its own table of non-blocking requests.  The application sees only
table indices (wrapped in :class:`C3Request`), so after a restart the
layer "can instantiate all request objects with the same request
identifiers".

Lifecycle rules from the paper:

* the table is saved at **commit** time (not at the recovery line), when
  it is known which open receives were completed by late messages;
* entry deallocation is **deferred** during the checkpointing period so
  the saved table still contains entries waited on after the line;
* per-entry *test counters* record unsuccessful ``Test``/``Wait`` polls
  during the checkpointing period; on recovery a replayed ``Test``
  decrements the counter and fails until it reaches zero, then the call
  is substituted with a ``Wait``;
* on restore, entries allocated during the logging phase (after the
  recovery line) are deleted — their allocations re-execute — and the
  remaining receives are re-posted; one a late message completed takes
  that message from the log when it is re-posted, matched by its
  request id.

Paper mapping
-------------
* Section 4.1 ("Request objects") — the indirection table itself, the
  deferred deallocation, and the test counters;
* Figure 5 (commit) — :meth:`RequestTable.on_commit` is the "save the
  request table" step, run at commit so late-completed receives are
  known;
* Figure 5 (restore) — :meth:`RequestTable.restore_wire` rebuilds the
  table with identical request identifiers, the property Section 4.1
  needs for replayed ``Test``/``Wait`` calls to line up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from .modes import ProtocolError


@dataclass
class RequestEntry:
    """One request the application holds a handle to."""

    rid: int
    kind: str                  # "send" | "recv"
    comm_key: int              # index into the protocol's communicator table
    source: int                # as posted (wildcards allowed); dest for sends
    tag: int
    count: int
    dtype_name: str
    epoch_created: int
    mpi_request: Any = None    # live runtime object, never checkpointed
    buffer: Any = None         # live numpy buffer, never checkpointed
    state_key: Optional[str] = None  # ctx.state key of the buffer (resolved lazily)
    test_counter: int = 0
    released: bool = False     # application has waited on it
    garbage: bool = False      # released during the checkpointing period
    from_log: bool = False     # recovery: data comes from the late registry
    log_payload: Optional[bytes] = None  # the logged payload it replays


class C3Request:
    """The handle the application holds: just a table index."""

    __slots__ = ("rid",)

    def __init__(self, rid: int):
        self.rid = rid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<C3Request #{self.rid}>"


class RequestTable:
    """Indirection table with deferred deallocation and snapshotting."""

    def __init__(self):
        self._entries: Dict[int, RequestEntry] = {}
        self._next_id = 1
        #: id counter value at the last recovery line (for rollback)
        self.line_next_id = 1
        #: deallocation deferral flag (set between start and commit)
        self.defer_dealloc = False
        #: saved test counters keyed by rid, used during recovery replay
        self.replay_test_counters: Dict[int, int] = {}

    # -- allocation ------------------------------------------------------------
    def alloc(self, kind: str, comm_key: int, source: int, tag: int,
              count: int, dtype_name: str, epoch: int,
              mpi_request=None, buffer=None) -> RequestEntry:
        entry = RequestEntry(
            rid=self._next_id, kind=kind, comm_key=comm_key, source=source,
            tag=tag, count=count, dtype_name=dtype_name, epoch_created=epoch,
            mpi_request=mpi_request, buffer=buffer,
        )
        self._entries[entry.rid] = entry
        self._next_id += 1
        return entry

    def get(self, rid: int) -> RequestEntry:
        try:
            entry = self._entries[rid]
        except KeyError:
            raise ProtocolError(f"unknown request id {rid}") from None
        if entry.released and not entry.garbage:
            raise ProtocolError(f"request {rid} already released")
        return entry

    def release(self, entry: RequestEntry) -> None:
        """The application waited on the request; free or garbage-mark it."""
        entry.released = True
        if self.defer_dealloc:
            entry.garbage = True
        else:
            del self._entries[entry.rid]

    # -- checkpoint boundary ---------------------------------------------------------
    def on_start_checkpoint(self) -> None:
        self.line_next_id = self._next_id
        self.defer_dealloc = True
        for entry in self._entries.values():
            entry.test_counter = 0

    def on_commit(self, resolve_state_key, line_epoch: Optional[int] = None) -> list:
        """Snapshot the table (Figure-5 commit), then purge garbage.

        ``resolve_state_key(buffer)`` maps a live receive buffer to its
        ``ctx.state`` key so the buffer can be found again after restart.
        Only requests allocated *before* the recovery line need one —
        later allocations are rolled back on restore (their posting code
        re-executes), so their buffers may be plain locals.
        """
        wire = []
        for entry in sorted(self._entries.values(), key=lambda e: e.rid):
            state_key = entry.state_key
            needs_key = (entry.kind == "recv" and not entry.released
                         and entry.buffer is not None
                         and (line_epoch is None
                              or entry.epoch_created < line_epoch))
            if needs_key:
                state_key = resolve_state_key(entry.buffer)
            wire.append({
                "rid": entry.rid, "kind": entry.kind,
                "comm_key": entry.comm_key, "source": entry.source,
                "tag": entry.tag, "count": entry.count,
                "dtype_name": entry.dtype_name,
                "epoch_created": entry.epoch_created,
                "test_counter": entry.test_counter,
                "garbage": entry.garbage,
                "state_key": state_key,
            })
        # purge deferred deallocations now that the table is saved
        for rid in [r for r, e in self._entries.items() if e.garbage]:
            del self._entries[rid]
        self.defer_dealloc = False
        return {"entries": wire, "line_next_id": self.line_next_id,
                "next_id": self._next_id}

    # -- restore -----------------------------------------------------------------------
    def restore_wire(self, wire: dict, line_epoch: int) -> List[RequestEntry]:
        """Roll the table back to the recovery line.

        Returns the surviving entries (allocated before the line, open or
        released after it alike); the caller re-posts their receives, and
        a receive a late message completed takes that message from the
        log as it is re-posted.  Test counters of *all* saved entries —
        including rolled-back ones, whose allocations re-execute with the
        same ids — are kept for Test replay.
        """
        self._entries.clear()
        self.replay_test_counters = {}
        survivors: List[RequestEntry] = []
        for e in wire["entries"]:
            self.replay_test_counters[e["rid"]] = e["test_counter"]
            if e["epoch_created"] >= line_epoch:
                continue  # allocated after the line: the allocation re-executes
            entry = RequestEntry(
                rid=e["rid"], kind=e["kind"], comm_key=e["comm_key"],
                source=e["source"], tag=e["tag"], count=e["count"],
                dtype_name=e["dtype_name"], epoch_created=e["epoch_created"],
                state_key=e["state_key"],
            )
            self._entries[entry.rid] = entry
            survivors.append(entry)
        self._next_id = wire["line_next_id"]
        self.line_next_id = wire["line_next_id"]
        return survivors

    # -- introspection --------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def live_entries(self) -> List[RequestEntry]:
        return [e for e in self._entries.values() if not e.garbage]
