"""Conservative virtual-time delivery bound for multi-process execution.

The processes engine (:mod:`repro.mpi.processes`) partitions ranks by
simulated node across worker processes ("shards").  Shards advance
virtual time independently; :class:`LookaheadWindow` decides which
in-transit cross-shard envelopes the master may hand to a destination
shard at a quiescence barrier.  It is the pure, process-free core of an
LBTS (Lower Bound on Time Stamp) computation:

* every shard reports a monotone **floor**: a lower bound on the send
  time of anything it can emit *without first receiving* — the engine
  uses the minimum virtual clock over the shard's runnable ranks.  A
  fully blocked shard reports ``floor=None``: it can emit nothing until
  something is released to it, so it is bounded inductively by the
  traffic queued for it, not by its (arbitrarily old) blocked clocks;
* one scalar **lookahead** is the minimum virtual latency of any
  cross-shard envelope (the machine's link latency);
* in-transit envelopes are enqueued per ``(source rank, dest rank)``
  stream and only ever released as a prefix of their stream, preserving
  MPI's per-signature non-overtaking order;
* the **effective floor** of shard *i* is
  ``min(floor_i, min avail_time queued for i)`` — a blocked shard's
  future sends are bounded by what it has yet to receive — and the
  delivery bound for destination *d* is::

      lbts_for(d) = min over i != d of eff_floor(i) + lookahead

  :meth:`release` hands *d* every queued envelope with
  ``avail_time <= lbts_for(d)`` (FIFO-prefix constrained).

The bound is a delivery gate, not a no-straggler promise: a rank the
release wakes can resume below it and echo a new envelope back through
a neighbour.  What it buys is lockstep — shards that wait on each
other's messages advance together in virtual time — which is what makes
coordinator-delivered ``at_time`` strikes land at the spec's own time
(DESIGN.md §12.5).

Under the two preconditions the transport supplies — (P1) a shard only
emits with ``avail_time >= its effective floor + lookahead``, and (P2)
per ``(src_rank, dest_rank)`` stream, avail times are nondecreasing —
the window guarantees (``tests/mpi/test_lookahead.py``):

1. **Progress:** while envelopes are in transit and every shard is
   blocked, at least one envelope is releasable — the barrier protocol
   cannot livelock.
2. **FIFO:** per ``(source rank, dest rank)`` stream, release order is
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
from typing import Deque, Dict, List, Optional, Tuple

__all__ = ["LookaheadWindow", "TransitItem"]

#: (enqueue order stamp, source rank, dest rank, avail_time, payload)
TransitItem = Tuple[int, int, int, float, object]


class LookaheadWindow:
    """LBTS bookkeeping for ``n_shards`` communicating shards."""

    def __init__(self, n_shards: int, lookahead: float = 0.0):
        """``lookahead`` is the minimum cross-shard latency.  Negative
        lookahead is rejected: a message available before it was sent
        would break conservativeness.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        lookahead = float(lookahead)
        if lookahead < 0 or math.isnan(lookahead):
            raise ValueError(f"invalid lookahead {lookahead}")
        self.n_shards = n_shards
        self.lookahead = lookahead
        #: last reported floor per shard; None = blocked (bounded by
        #: queued traffic only)
        self._floors: List[Optional[float]] = [0.0] * n_shards
        #: (src_rank, dest_rank) -> FIFO deque of (seq, avail, payload)
        self._streams: Dict[Tuple[int, int], Deque[Tuple[int, float, object]]] = {}
        #: dest shard -> stream keys routed to it (deterministic scan)
        self._by_dest: Dict[int, List[Tuple[int, int]]] = {}
        self._seq = 0
        self._in_transit = 0
        #: rank -> shard routing, provided by the caller via route()
        self._shard_of: Dict[int, int] = {}

    # -- routing -------------------------------------------------------------
    def route(self, rank: int, shard: int) -> None:
        """Register which shard owns ``rank`` (used to queue by dest)."""
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard {shard} out of range")
        self._shard_of[rank] = shard

    # -- shard reports -------------------------------------------------------
    def report(self, shard: int, floor: Optional[float]) -> None:
        """Update ``shard``'s floor.

        ``None`` means the shard is fully blocked.  Finite floors are
        clamped monotone against the previous finite report: clocks
        never run backwards, so a lower report is a stale observation.
        A shard may legitimately go ``None`` and later report a finite
        floor again after a release woke it; that floor is at or above
        the avail_time of whatever woke it.
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

    # -- the delivery bound --------------------------------------------------
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
        """Delivery bound for ``dest_shard``: every envelope already
        in transit for it at or below this timestamp may be handed
        over."""
        eff = self._eff_floors()
        return min((f for i, f in enumerate(eff) if i != dest_shard),
                   default=math.inf) + self.lookahead

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
        from holding down every other destination's delivery bound forever.
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
