"""Per-rank mailbox with MPI matching semantics.

The mailbox owns two collections, both indexed by the full match
signature ``(context_id, source, tag)`` so the hot paths are O(1)
amortized instead of linear scans:

* ``pending`` — envelopes that have arrived but not yet matched a
  receive, bucketed by signature.  Each bucket keeps arrival order (=
  per-source send order, which is what gives MPI its per-signature
  non-overtaking guarantee), and every envelope carries a mailbox-wide
  arrival stamp so wildcard receives can select the *oldest* matching
  envelope across buckets — exactly the order a linear arrival-ordered
  scan would produce;
* ``posted`` — receives that have been posted but not yet matched.
  Fully-specified receives are bucketed by signature; receives with
  ``ANY_SOURCE`` / ``ANY_TAG`` wildcards go to a (short) overflow list.
  Both sides keep post order, and a mailbox-wide post stamp arbitrates
  between an exact bucket head and a wildcard candidate, preserving
  MPI's earliest-posted-receive-wins rule.

Messages with different signatures may be consumed in any order the
application chooses — the property Section 2.4 of the paper calls out as
breaking Chandy-Lamport's FIFO assumption.

Paper mapping: the mailbox is the runtime's model of the MPI matching
engine the C3 protocol reasons about — Section 2.4's non-FIFO channels
(signature-indexed consumption), Section 3's late/early message
classification (every envelope carries its virtual availability time,
which the receiver's clock syncs to), and Section 4.1's piggyback
channel (envelopes carry the sender's C3 piggyback alongside the
payload).

Synchronization: exactly one rank fiber runs at a time under the
cooperative scheduler (:mod:`repro.mpi.scheduler`), so the mailbox uses
**no locks and no condition variables**.  Blocking operations suspend
their rank fiber through :meth:`Mailbox.wait_for`; deliveries and
notifications add the destination rank to the scheduler's dirty set,
which wakes exactly the ranks whose wait predicate became true.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from .errors import TruncationError
from .message import Envelope

ANY_SOURCE = -1
ANY_TAG = -1

#: a pending-bucket key / posted-bucket key
Signature = Tuple[int, int, int]


def signature_matches(env: Envelope, context_id: int, source: int, tag: int) -> bool:
    """Does an envelope match a receive's ``(context, source, tag)`` triple?"""
    if env.context_id != context_id:
        return False
    if source != ANY_SOURCE and env.source != source:
        return False
    if tag != ANY_TAG and env.tag != tag:
        return False
    return True


class PostedRecv:
    """A receive posted to the mailbox, waiting for a matching envelope."""

    __slots__ = (
        "context_id", "source", "tag", "max_bytes", "envelope", "matched",
        "cancelled", "post_seq",
    )

    def __init__(self, context_id: int, source: int, tag: int, max_bytes: int):
        self.context_id = context_id
        self.source = source
        self.tag = tag
        self.max_bytes = max_bytes
        self.envelope: Optional[Envelope] = None
        self.matched = False
        self.cancelled = False
        #: mailbox-wide post order; assigned when queued unmatched
        self.post_seq = -1

    @property
    def wildcard(self) -> bool:
        return self.source == ANY_SOURCE or self.tag == ANY_TAG

    def accepts(self, env: Envelope) -> bool:
        return not self.matched and not self.cancelled and signature_matches(
            env, self.context_id, self.source, self.tag
        )

    def _match(self, env: Envelope) -> None:
        if env.nbytes > self.max_bytes:
            raise TruncationError(
                f"message of {env.nbytes} bytes truncates receive buffer of "
                f"{self.max_bytes} bytes (src={env.source}, tag={env.tag})"
            )
        self.envelope = env
        self.matched = True


class Mailbox:
    """All incoming traffic for one rank."""

    def __init__(self, rank: int):
        self.rank = rank
        #: cooperative scheduler that suspends this rank's waits
        self._sched = None
        #: the scheduler's dirty-rank set (a private one until bound);
        #: every delivery and notification adds this rank to it
        self._dirty: Set[int] = set()
        #: signature -> deque of (arrival stamp, envelope), arrival order
        self._pending: Dict[Signature, Deque[Tuple[int, Envelope]]] = {}
        self._arrival_seq = 0
        self._pending_total = 0
        self._pending_by_ctx: Dict[int, int] = {}
        #: context -> live pending signatures; wildcard matching scans
        #: only its own context's buckets instead of every bucket in
        #: the mailbox (collectives keep a second context permanently
        #: populated, which made the global scan quadratic-ish for
        #: wildcard-heavy apps at high rank counts)
        self._ctx_sigs: Dict[int, set] = {}
        #: signature -> deque of fully-specified receives, post order
        self._posted_exact: Dict[Signature, Deque[PostedRecv]] = {}
        #: wildcard receives, post order (the overflow list)
        self._posted_wild: List[PostedRecv] = []
        self._post_seq = 0
        self._posted_total = 0
        #: statistics, read by the harness
        self.delivered_count = 0
        self.delivered_bytes = 0

    def bind_scheduler(self, scheduler) -> None:
        """Report wakeups to (and wait through) a cooperative scheduler.

        Called by the engine before a run: from then on deliveries mark
        this rank in the scheduler's dirty set, and the scheduling step
        re-examines exactly the dirty ranks' wait predicates.
        """
        self._sched = scheduler
        self._dirty = scheduler._dirty

    # -- delivery ----------------------------------------------------------
    def deliver(self, env: Envelope) -> None:
        """Hand an envelope to this rank; matches a posted receive if any."""
        self.delivered_count += 1
        self.delivered_bytes += env.nbytes
        key = (env.context_id, env.source, env.tag)
        bucket = self._posted_exact.get(key)
        pr = self._take_wild(env, bucket) if self._posted_wild else None
        if pr is None and bucket:
            pr = bucket.popleft()
            if not bucket:
                del self._posted_exact[key]
            self._posted_total -= 1
        if pr is not None:
            pr._match(env)
        else:
            pending = self._pending.get(key)
            if pending is None:
                pending = self._pending[key] = deque()
                self._ctx_sigs.setdefault(env.context_id, set()).add(key)
            pending.append((self._arrival_seq, env))
            self._arrival_seq += 1
            self._pending_total += 1
            ctx = env.context_id
            self._pending_by_ctx[ctx] = self._pending_by_ctx.get(ctx, 0) + 1
        self._dirty.add(self.rank)

    def _take_wild(self, env: Envelope,
                   bucket: Optional[Deque[PostedRecv]]) -> Optional[PostedRecv]:
        """Pop the earliest wildcard receive accepting ``env`` if it was
        posted before the exact bucket's head (earliest-posted wins)."""
        for wild in self._posted_wild:
            if wild.accepts(env):
                break
        else:
            return None
        if bucket and bucket[0].post_seq < wild.post_seq:
            return None
        self._posted_wild.remove(wild)
        self._posted_total -= 1
        return wild

    # -- posting receives ----------------------------------------------------
    def post(self, pr: PostedRecv) -> None:
        """Post a receive; matches the oldest pending envelope if one fits."""
        key = self._oldest_pending_key(pr.context_id, pr.source, pr.tag)
        if key is not None:
            pr._match(self._pop_pending(key))
            self._dirty.add(self.rank)
            return
        pr.post_seq = self._post_seq
        self._post_seq += 1
        if pr.wildcard:
            self._posted_wild.append(pr)
        else:
            sig = (pr.context_id, pr.source, pr.tag)
            bucket = self._posted_exact.get(sig)
            if bucket is None:
                bucket = self._posted_exact[sig] = deque()
            bucket.append(pr)
        self._posted_total += 1

    def _oldest_pending_key(self, context_id: int, source: int,
                            tag: int) -> Optional[Signature]:
        """Bucket holding the oldest pending envelope matching the triple."""
        if source != ANY_SOURCE and tag != ANY_TAG:
            key = (context_id, source, tag)
            return key if key in self._pending else None
        if not self._pending_by_ctx.get(context_id):
            return None
        # Scan only this context's live buckets; the winner is the
        # unique minimal arrival stamp, so set iteration order cannot
        # leak into matching order.
        best_key: Optional[Signature] = None
        best_arrival = -1
        pending = self._pending
        for key in self._ctx_sigs.get(context_id, ()):
            if source != ANY_SOURCE and key[1] != source:
                continue
            if tag != ANY_TAG and key[2] != tag:
                continue
            arrival = pending[key][0][0]
            if best_key is None or arrival < best_arrival:
                best_key, best_arrival = key, arrival
        return best_key

    def _pop_pending(self, key: Signature) -> Envelope:
        bucket = self._pending[key]
        _, env = bucket.popleft()
        if not bucket:
            del self._pending[key]
            sigs = self._ctx_sigs[key[0]]
            sigs.discard(key)
            if not sigs:
                del self._ctx_sigs[key[0]]
        self._pending_total -= 1
        remaining = self._pending_by_ctx[key[0]] - 1
        if remaining:
            self._pending_by_ctx[key[0]] = remaining
        else:
            del self._pending_by_ctx[key[0]]
        return env

    def cancel(self, pr: PostedRecv) -> bool:
        """Cancel a posted receive; returns False if it already matched."""
        if pr.matched:
            return False
        pr.cancelled = True
        if pr.wildcard:
            if pr in self._posted_wild:
                self._posted_wild.remove(pr)
                self._posted_total -= 1
        else:
            sig = (pr.context_id, pr.source, pr.tag)
            bucket = self._posted_exact.get(sig)
            if bucket is not None and pr in bucket:
                bucket.remove(pr)
                if not bucket:
                    del self._posted_exact[sig]
                self._posted_total -= 1
        return True

    # -- waiting --------------------------------------------------------------
    def wait_for(self, predicate: Callable[[], bool],
                 poll: Optional[Callable[[], None]] = None) -> None:
        """Suspend this rank's fiber until ``predicate()`` is true or the
        job aborts (:meth:`CooperativeScheduler.wait
        <repro.mpi.scheduler.CooperativeScheduler.wait>`).

        There is no timeout: the wait is woken precisely by deliveries
        into this mailbox and by :meth:`notify` (job abort, due
        virtual-time faults).  ``poll`` (if given) runs on every wakeup —
        the engine uses it to raise due faults and deadline errors
        inside the blocked rank's own fiber.
        """
        self._sched.wait(predicate, poll)

    def notify(self) -> None:
        """Wake this rank if it is blocked (abort, due fault)."""
        self._dirty.add(self.rank)

    def pop_pending(self, context_id: int, source: int, tag: int) -> Optional[Envelope]:
        """Pop the oldest pending envelope matching the triple, if any.

        The out-of-band consumption path: no posted receive is involved,
        so the caller (the C3 control daemon) takes the envelope without
        the matching engine ever seeing a posted/pending rendezvous.
        Ordering is the same oldest-arrival rule a wildcard receive uses.
        """
        key = self._oldest_pending_key(context_id, source, tag)
        if key is None:
            return None
        return self._pop_pending(key)

    # -- probing ---------------------------------------------------------------
    def probe_pending(self, context_id: int, source: int, tag: int) -> Optional[Envelope]:
        """Oldest pending envelope matching the triple, without removing it."""
        key = self._oldest_pending_key(context_id, source, tag)
        if key is None:
            return None
        return self._pending[key][0][1]

    def has_pending(self, context_id: int) -> bool:
        """O(1): is any envelope pending on this context?"""
        return context_id in self._pending_by_ctx

    def pending_count(self, context_id: Optional[int] = None) -> int:
        if context_id is None:
            return self._pending_total
        return self._pending_by_ctx.get(context_id, 0)

    def posted_count(self) -> int:
        return self._posted_total
