"""Request objects for non-blocking communication.

The simulator buffers sends eagerly, so a send request is complete as soon
as it is created (standard-mode semantics permit buffering).  A receive
request completes when the mailbox matches an envelope to it; the payload
is unpacked into the user buffer at completion-observation time (Wait/Test)
so the C3 layer can interpose on "the point where the application is able
to read the received data" (paper, Section 4.1, Figure 6).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .datatypes import Datatype
from .errors import InvalidRequestError
from .matching import PostedRecv
from .message import Envelope
from .status import Status


def await_match(ctx, pr: PostedRecv) -> Envelope:
    """The envelope a posted receive matched, parking the rank's fiber
    until it arrives (no scheduler call if it already has)."""
    if not pr.matched:
        ctx.mailbox.wait_for(lambda: pr.matched, poll=ctx.poll_hook)
    return pr.envelope


def complete_recv(ctx, env: Envelope, buf, dt: Optional[Datatype]) -> int:
    """Completion of one matched receive: sync the clock to the
    envelope's arrival, charge one call overhead, unpack the payload
    into ``buf``; returns the element count a Status reports."""
    clock = ctx.clock
    clock.sync_to(env.avail_time)
    clock.advance(ctx.machine.call_overhead)
    size = dt.size if dt is not None else 0
    # the payload may hold fewer elements than were posted
    elems = env.nbytes // size if size else 0
    if buf is not None and dt is not None:
        dt.unpack(env.payload, buf, count=elems)
    return elems if size else env.count


class Request:
    """One outstanding non-blocking operation."""

    __slots__ = ("kind", "_rank_ctx", "buffer", "count", "datatype",
                 "posted", "envelope", "released")

    SEND = "send"
    RECV = "recv"

    def __init__(self, kind: str, rank_ctx, buffer=None, count: int = 0,
                 datatype: Optional[Datatype] = None):
        self.kind = kind
        self._rank_ctx = rank_ctx
        self.buffer = buffer
        self.count = count
        self.datatype = datatype
        self.posted: Optional[PostedRecv] = None
        self.envelope: Optional[Envelope] = None
        self.released = False

    # -- state ---------------------------------------------------------------
    def is_complete(self) -> bool:
        """Has the operation finished (data arrived / send buffered)?"""
        if self.kind == Request.SEND:
            return True
        if self.envelope is not None:
            return True
        if self.posted is not None and self.posted.matched:
            self.envelope = self.posted.envelope
            return True
        return False

    # -- completion ------------------------------------------------------------
    def wait(self) -> Status:
        """Block until complete; returns the filled Status (``MPI_Wait``).

        A receive that already matched completes without entering the
        scheduler."""
        self._check_not_released()
        if not self.is_complete():
            ctx = self._rank_ctx
            ctx.mailbox.wait_for(self.is_complete, poll=ctx.poll_hook)
        status = self._finish()
        self.released = True
        return status

    def test(self) -> Tuple[bool, Optional[Status]]:
        """Non-blocking completion check (``MPI_Test``)."""
        self._check_not_released()
        if not self.is_complete():
            # Cooperative fairness: a failed poll yields the scheduler a
            # turn so Test spin loops cannot starve the sending rank.
            self._rank_ctx.nb_poll()
            return False, None
        status = self._finish()
        self.released = True
        return True, status

    def _finish(self) -> Status:
        ctx = self._rank_ctx
        if self.kind == Request.SEND:
            ctx.clock.advance(ctx.machine.call_overhead)
            return Status(source=ctx.rank, tag=0, count=self.count)
        env = self.envelope
        count = complete_recv(ctx, env, self.buffer, self.datatype)
        return Status(source=env.source, tag=env.tag, count=count,
                      nbytes=env.nbytes)

    def cancel(self) -> bool:
        """Cancel an unmatched receive request (``MPI_Cancel``)."""
        if self.kind == Request.SEND or self.posted is None:
            return False
        ok = self._rank_ctx.mailbox.cancel(self.posted)
        if ok:
            self.released = True
        return ok

    def _check_not_released(self) -> None:
        if self.released:
            raise InvalidRequestError("request already waited on / released")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "complete" if (self.released or self.is_complete()) else "pending"
        return f"<Request {self.kind} {state}>"


# -- multi-request completion (MPI_Wait{all,any,some}, MPI_Test{all,any,some}) -

def wait_all(requests: Sequence[Request]) -> List[Status]:
    """Complete every request, in index order (``MPI_Waitall``).

    One blocking wait covers the whole array (a single mailbox sleep per
    call instead of one per request); completion observation — clock
    syncs, overhead charges, buffer delivery — still runs in index order,
    so the virtual-time accounting is identical to waiting one by one.
    """
    if not requests:
        return []
    for r in requests:
        r._check_not_released()
    live = [r for r in requests if not r.is_complete()]
    if live:
        ctx = live[0]._rank_ctx
        ctx.mailbox.wait_for(lambda: all(r.is_complete() for r in live),
                             poll=ctx.poll_hook)
    statuses: List[Status] = []
    for r in requests:
        r._check_not_released()  # a duplicated request raises, as r.wait() would
        statuses.append(r._finish())
        r.released = True
    return statuses


def wait_any(requests: Sequence[Request]) -> Tuple[int, Status]:
    """Block until some request completes; returns (index, status).

    Matches ``MPI_Waitany``: the lowest-indexed completed request wins.
    """
    live = [r for r in requests if not r.released]
    if not live:
        raise InvalidRequestError("wait_any on empty / fully released request list")
    ctx = live[0]._rank_ctx

    def some_done() -> bool:
        return any(r.is_complete() for r in live)

    ctx.mailbox.wait_for(some_done, poll=ctx.poll_hook)
    for i, r in enumerate(requests):
        if not r.released and r.is_complete():
            status = r._finish()
            r.released = True
            return i, status
    raise AssertionError("wait_any woke without a completed request")


def wait_some(requests: Sequence[Request]) -> Tuple[List[int], List[Status]]:
    """Block until at least one completes; returns all completed (``MPI_Waitsome``)."""
    live = [r for r in requests if not r.released]
    if not live:
        return [], []
    ctx = live[0]._rank_ctx
    ctx.mailbox.wait_for(lambda: any(r.is_complete() for r in live), poll=ctx.poll_hook)
    indices: List[int] = []
    statuses: List[Status] = []
    for i, r in enumerate(requests):
        if not r.released and r.is_complete():
            statuses.append(r._finish())
            r.released = True
            indices.append(i)
    return indices, statuses


def test_all(requests: Sequence[Request]) -> Tuple[bool, Optional[List[Status]]]:
    """``MPI_Testall``: complete all or none."""
    live = [r for r in requests if not r.released]
    if not all(r.is_complete() for r in live):
        if live:
            live[0]._rank_ctx.nb_poll()
        return False, None
    out: List[Status] = []
    for r in requests:
        if not r.released:
            out.append(r._finish())
            r.released = True
        else:
            out.append(Status())
    return True, out


def test_any(requests: Sequence[Request]) -> Tuple[bool, int, Optional[Status]]:
    """``MPI_Testany``: complete at most one (lowest index)."""
    live = None
    for i, r in enumerate(requests):
        if not r.released:
            live = live if live is not None else r
            if r.is_complete():
                status = r._finish()
                r.released = True
                return True, i, status
    if live is not None:
        live._rank_ctx.nb_poll()
    return False, -1, None
