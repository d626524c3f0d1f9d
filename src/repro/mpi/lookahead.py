"""Conservative virtual-time lookahead window for multi-process execution.

The processes backend's transport (:mod:`repro.mpi.sharded`) partitions
ranks by simulated node across worker processes ("shards").  Shards advance virtual time
independently, so a cross-shard envelope must not be released to its
destination "too early": conservative parallel discrete-event simulation
requires that once a shard has been granted a *safe time* S, no envelope
with an availability timestamp below S ever reaches it afterwards — a
straggler would mean the shard had already been allowed past the
message.

:class:`LookaheadWindow` is the pure, process-free core of that
protocol — an LBTS (Lower Bound on Time Stamp) computation in the
distance-matrix style of conservative PDES:

* every shard reports a monotone **floor**: a lower bound on the send
  time of anything it can emit *without first receiving* — the engine
  uses the minimum virtual clock over the shard's runnable ranks.  A
  fully blocked shard reports ``floor=None``: it can emit nothing until
  something is released to it, so it is bounded inductively by the
  traffic queued for it, not by its (arbitrarily old) blocked clocks;
* the **lookahead** matrix gives, per (source shard, dest shard) pair,
  the minimum virtual latency any envelope experiences between them.
  It is closed under the triangle inequality at construction
  (Floyd-Warshall), because the safe bound for *d* must account for
  traffic that influences *d* through an intermediate shard;
* in-transit envelopes are enqueued per ``(source rank, dest rank)``
  stream and only ever released as a prefix of their stream, preserving
  MPI's per-signature non-overtaking order;
* the **effective floor** of shard *i* is
  ``min(floor_i, min avail_time queued for i)`` — a blocked shard's
  future sends are bounded by what it has yet to receive — and the safe
  bound for destination *d* is::

      lbts_for(d) = min over i != d of  eff_floor(i) + lookahead[i][d]

  :meth:`release` hands *d* every queued envelope with
  ``avail_time <= lbts_for(d)`` (FIFO-prefix constrained).

The *granted* safe time recorded at a non-empty release is tighter than
the delivery bound: ``min(lbts_for(d), eff_floor(d) + roundtrip(d))``,
where ``roundtrip(d)`` is the cheapest out-and-back path
``min over k != d of L[d][k] + L[k][d]``.  The second term is the
destination's **self-influence**: a low clock inside *d* (a rank the
release is about to wake) can propagate through a neighbour and return
as a brand-new envelope for *d*, undercutting the raw LBTS — which is
therefore a correct *delivery* gate (everything below it already in
transit is safe to hand over) but not a promise about future traffic.
The grant is the promise.

Invariants (the Hypothesis suite in ``tests/mpi/test_lookahead.py``
checks them over random latency tables and event schedules).  They hold
under the two preconditions the transport supplies — (P1) a shard
only emits with ``avail_time >= its effective floor + lookahead`` (the
avail is a monotone send clock plus at least the pair's minimum
latency), and (P2) per ``(src_rank, dest_rank)`` stream, avail times
are nondecreasing:

1. **Safety (no stragglers):** every envelope released to shard *d* has
   ``avail_time`` at or above the bound granted at *d*'s previous
   non-empty release — a message is never delivered below the receiving
   shard's safe time.
2. **Monotonicity:** the granted safe time of every shard never
   decreases.  (The raw delivery bound ``lbts_for(d)`` may dip — e.g.
   when a woken destination's low clock echoes back through a
   neighbour — which is exactly why the grant subtracts the
   self-influence term instead of promising the raw bound.)
3. **Progress:** while envelopes are in transit and every shard is
   blocked, at least one envelope is releasable — the barrier protocol
   cannot livelock.
4. **FIFO:** per ``(source rank, dest rank)`` stream, release order is
   enqueue order.

The window is deliberately ignorant of processes, pipes and pickling;
the transport feeds it shard reports at quiescence barriers and
routes whatever it releases.  With one shard there is no cross-shard
traffic and the window degenerates to "nothing is ever queued", so a
one-process run follows exactly the cooperative schedule.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

__all__ = ["LookaheadWindow", "TransitItem"]

#: (enqueue order stamp, source rank, dest rank, avail_time, payload)
TransitItem = Tuple[int, int, int, float, object]


class LookaheadWindow:
    """LBTS bookkeeping for ``n_shards`` communicating shards."""

    def __init__(self, n_shards: int, lookahead: object = 0.0):
        """``lookahead`` is a scalar (uniform minimum cross-shard
        latency) or an ``n_shards x n_shards`` matrix of per-pair
        minimum latencies.  Negative lookahead is rejected: a message
        available before it was sent would break conservativeness.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        if isinstance(lookahead, (int, float)):
            matrix = [[float(lookahead)] * n_shards for _ in range(n_shards)]
        else:
            matrix = [[float(x) for x in row] for row in lookahead]
            if len(matrix) != n_shards or any(len(r) != n_shards
                                             for r in matrix):
                raise ValueError("lookahead matrix must be n_shards^2")
        for row in matrix:
            for x in row:
                if x < 0 or math.isnan(x):
                    raise ValueError(f"invalid lookahead {x}")
        # Triangle closure: influence reaching d via an intermediate
        # shard k is delayed by at least L[i][k] + L[k][d], so the
        # per-pair bound used everywhere below must be the shortest
        # path, or a relayed message could undercut a granted bound.
        for k in range(n_shards):
            row_k = matrix[k]
            for i in range(n_shards):
                ik = matrix[i][k]
                row_i = matrix[i]
                for j in range(n_shards):
                    via = ik + row_k[j]
                    if via < row_i[j]:
                        row_i[j] = via
        self.lookahead = matrix
        #: cheapest out-and-back path per shard (self-influence bound);
        #: +inf for a single shard, which has no neighbour to echo off
        self._roundtrip = [
            min((matrix[d][k] + matrix[k][d]
                 for k in range(n_shards) if k != d), default=math.inf)
            for d in range(n_shards)
        ]
        #: last reported floor per shard; None = blocked (bounded by
        #: queued traffic only)
        self._floors: List[Optional[float]] = [0.0] * n_shards
        #: (src_rank, dest_rank) -> FIFO deque of (seq, avail, payload)
        self._streams: Dict[Tuple[int, int], Deque[Tuple[int, float, object]]] = {}
        #: dest shard -> stream keys routed to it (deterministic scan)
        self._by_dest: Dict[int, List[Tuple[int, int]]] = {}
        #: dest shard -> min queued avail_time (term of the eff. floor)
        self._seq = 0
        self._in_transit = 0
        #: bound granted per destination at its last non-empty release
        self.granted: List[float] = [0.0] * n_shards
        #: rank -> shard routing, provided by the caller via route()
        self._shard_of: Dict[int, int] = {}

    # -- routing -------------------------------------------------------------
    def route(self, rank: int, shard: int) -> None:
        """Register which shard owns ``rank`` (used to queue by dest)."""
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard {shard} out of range")
        self._shard_of[rank] = shard

    def shard_of(self, rank: int) -> int:
        return self._shard_of[rank]

    # -- shard reports -------------------------------------------------------
    def report(self, shard: int, floor: Optional[float]) -> None:
        """Update ``shard``'s floor.

        ``None`` means the shard is fully blocked.  Finite floors are
        clamped monotone against the previous finite report: clocks
        never run backwards, so a lower report is a stale observation.
        A shard may legitimately go ``None`` and later report a finite
        floor again after a release woke it; that floor is at or above
        the avail_time of whatever woke it, which the safety induction
        already bounds.
        """
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard {shard} out of range")
        prev = self._floors[shard]
        if floor is not None and prev is not None and floor < prev:
            floor = prev
        self._floors[shard] = floor

    def send(self, src_rank: int, dest_rank: int,
             avail_time: float, payload: object = None) -> None:
        """Queue one in-transit envelope for ``dest_rank``'s shard."""
        dest_shard = self._shard_of[dest_rank]
        key = (src_rank, dest_rank)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = deque()
            self._by_dest.setdefault(dest_shard, []).append(key)
        stream.append((self._seq, float(avail_time), payload))
        self._seq += 1
        self._in_transit += 1

    # -- the safe bound ------------------------------------------------------
    def transit_count(self) -> int:
        return self._in_transit

    def _queued_min(self) -> List[float]:
        """Per destination shard, the minimum queued avail_time.

        Per-stream avail times are nondecreasing (precondition P2), so
        a stream's minimum is its head; emptied streams are pruned by
        :meth:`release`/:meth:`drop_dest`, so this walks only streams
        with traffic actually queued — not every (src, dest) pair that
        ever communicated.
        """
        mins = [math.inf] * self.n_shards
        for dest, keys in self._by_dest.items():
            m = mins[dest]
            for key in keys:
                stream = self._streams.get(key)
                if stream:
                    head = stream[0][1]
                    if head < m:
                        m = head
            mins[dest] = m
        return mins

    def _eff_floors(self) -> List[float]:
        """``min(reported floor, min queued avail)`` per shard.

        A blocked shard (floor None) can only act on what it receives,
        so the traffic queued for it bounds everything it may emit.
        """
        queued = self._queued_min()
        eff = []
        for i, floor in enumerate(self._floors):
            f = math.inf if floor is None else floor
            eff.append(min(f, queued[i]))
        return eff

    def lbts_for(self, dest_shard: int) -> float:
        """Safe bound for ``dest_shard``: no future envelope can reach
        it below this timestamp."""
        eff = self._eff_floors()
        bound = math.inf
        row_to_dest = [self.lookahead[i][dest_shard]
                       for i in range(self.n_shards)]
        for i in range(self.n_shards):
            if i == dest_shard:
                continue
            b = eff[i] + row_to_dest[i]
            if b < bound:
                bound = b
        return bound

    # -- releases ------------------------------------------------------------
    def release(self, dest_shard: int) -> List[TransitItem]:
        """Pop every releasable envelope destined to ``dest_shard``.

        Releasable = ``avail_time <= lbts_for(dest_shard)`` and every
        earlier envelope of the same (src_rank, dest_rank) stream
        already released.  The result order is deterministic: streams
        in (src, dest) rank order, each stream's releasable prefix in
        enqueue order.
        """
        keys = self._by_dest.get(dest_shard)
        if not keys:
            return []
        bound = self.lbts_for(dest_shard)
        # Effective floor *before* popping: the queued minimum is about
        # to move, and the grant's self-influence term must bound the
        # clocks this release is about to wake, not the leftovers.
        eff_dest = self._eff_floors()[dest_shard]
        out: List[TransitItem] = []
        emptied = []
        for key in sorted(keys):
            stream = self._streams.get(key)
            if not stream:
                emptied.append(key)  # pragma: no cover - defensive
                continue
            while stream and stream[0][1] <= bound:
                seq, avail, payload = stream.popleft()
                out.append((seq, key[0], key[1], avail, payload))
                self._in_transit -= 1
            if not stream:
                # Prune drained streams so the sorted-keys scan and the
                # queued-min walk stay proportional to live traffic, not
                # to every rank pair that ever communicated; send()
                # re-registers the key on the next envelope.
                del self._streams[key]
                emptied.append(key)
        if emptied:
            dead = set(emptied)
            keys = [k for k in keys if k not in dead]
            if keys:
                self._by_dest[dest_shard] = keys
            else:
                del self._by_dest[dest_shard]
        if out:
            min_avail = min(item[3] for item in out)
            # The promise to the destination: future arrivals stay at or
            # above this.  The raw bound alone would overpromise — a
            # rank this release wakes can resume as low as eff_dest and
            # echo back through the cheapest neighbour round trip.
            grant = min(bound, eff_dest + self._roundtrip[dest_shard])
            if grant != math.inf:
                self.granted[dest_shard] = max(self.granted[dest_shard],
                                               grant)
            else:
                # No echo path back (single neighbourless shard) and
                # every other shard unboundedly quiescent: nothing can
                # undercut the items released.
                self.granted[dest_shard] = max(
                    self.granted[dest_shard],
                    max(item[3] for item in out))
            # A blocked destination wakes on what we just released: its
            # ranks resume with clocks at or above the waking envelope's
            # avail_time, so its floor may legitimately *drop* to the
            # smallest released timestamp (bypassing report()'s monotone
            # clamp, which only models clocks running forward).  This
            # keeps eff_floor monotone: the released items were part of
            # the destination's queued minimum a moment ago.
            prev = self._floors[dest_shard]
            floor = min_avail if prev is None else min(prev, min_avail)
            self._floors[dest_shard] = floor
        return out

    def drop_dest(self, dest_shard: int) -> int:
        """Discard everything queued for ``dest_shard`` (it exited: all
        its ranks completed, so the envelopes could only have rotted
        unconsumed in their mailboxes — exactly what the cooperative
        engine lets happen).  Dropping also stops the dead shard's queue
        from holding down every other destination's safe bound forever.
        Returns the number of envelopes discarded."""
        keys = self._by_dest.pop(dest_shard, [])
        dropped = 0
        for key in keys:
            stream = self._streams.pop(key, None)
            if stream:
                dropped += len(stream)
        self._in_transit -= dropped
        self._floors[dest_shard] = None
        return dropped

    def release_all(self) -> Dict[int, List[TransitItem]]:
        """Release for every destination; only non-empty entries returned."""
        result: Dict[int, List[TransitItem]] = {}
        for dest in range(self.n_shards):
            items = self.release(dest)
            if items:
                result[dest] = items
        return result
