"""Property tests for the conservative lookahead window.

:class:`repro.mpi.lookahead.LookaheadWindow` documents two invariants;
this suite checks them over Hypothesis-generated lookaheads and event
schedules.  A generated schedule interleaves floor reports, sends and
releases under the two preconditions the processes engine guarantees:

* a shard only emits with ``avail_time >= its floor + lookahead`` (the
  avail is the send clock plus at least the minimum link latency, and
  the floor is a lower bound on the send clock);
* per ``(src_rank, dest_rank)`` stream, avail times are nondecreasing
  (send clocks are monotone and the latency is fixed by the machine
  model).

Under those preconditions the window must guarantee progress
(all-blocked shards with traffic in transit can always release
something) and per-stream FIFO.  The unit tests below pin the delivery
bound itself: the report clamp, the blocked-shard bound, the floor drop
on a waking release and ``drop_dest``.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi.lookahead import LookaheadWindow

RANKS_PER_SHARD = 2


def _make_window(n_shards, lookahead):
    w = LookaheadWindow(n_shards, lookahead)
    for r in range(n_shards * RANKS_PER_SHARD):
        w.route(r, r // RANKS_PER_SHARD)
    return w


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

class TestConstruction:
    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            LookaheadWindow(0)

    def test_negative_lookahead_rejected(self):
        with pytest.raises(ValueError):
            LookaheadWindow(2, -1e-9)

    def test_nan_lookahead_rejected(self):
        with pytest.raises(ValueError):
            LookaheadWindow(2, float("nan"))

    def test_route_range_checked(self):
        w = LookaheadWindow(2)
        with pytest.raises(ValueError):
            w.route(0, 2)
        with pytest.raises(ValueError):
            w.report(5, 0.0)


# ---------------------------------------------------------------------------
# Degenerate single-shard window
# ---------------------------------------------------------------------------

class TestSingleShard:
    def test_everything_releases_immediately(self):
        # With one shard there is no other shard to bound it: the safe
        # time is +inf and any queued envelope releases at once.  This
        # is the window half of the shards=1 == cooperative reduction
        # (the engine half is tests/mpi/test_sharded.py).
        w = _make_window(1, 0.0)
        assert w.lbts_for(0) == math.inf
        w.send(0, 1, avail_time=123.0)
        items = w.release(0)
        assert [(i[1], i[2], i[3]) for i in items] == [(0, 1, 123.0)]
        assert w.transit_count() == 0


# ---------------------------------------------------------------------------
# Schedule generation
# ---------------------------------------------------------------------------

def _schedules():
    """(n_shards, lookahead, ops) with engine-valid sends.

    Ops are abstract: (kind, *params) with params drawn uniformly; the
    executor resolves them against the window's current state so sends
    always satisfy the two engine preconditions.
    """
    n_shards = st.integers(min_value=2, max_value=4)
    delta = st.floats(min_value=0.0, max_value=5.0, allow_nan=False,
                      allow_infinity=False)
    op = st.one_of(
        st.tuples(st.just("report"), st.integers(0, 3), delta),
        st.tuples(st.just("block"), st.integers(0, 3)),
        st.tuples(st.just("send"), st.integers(0, 7), st.integers(0, 7),
                  delta),
        st.tuples(st.just("release"), st.integers(0, 3)),
    )
    lookahead = st.floats(min_value=0.0, max_value=2.0, allow_nan=False,
                          allow_infinity=False)
    return st.tuples(n_shards, lookahead, st.lists(op, max_size=60))


def _shard_of(rank):
    return rank // RANKS_PER_SHARD


class _Executor:
    """Applies abstract ops to a window, tracking the model state needed
    to generate engine-valid sends and to check FIFO release."""

    def __init__(self, n_shards, lookahead):
        self.w = _make_window(n_shards, lookahead)
        self.n = n_shards
        self.floors = [0.0] * n_shards          # model: rank-clock floor
        self.blocked = [False] * n_shards
        self.last_avail = {}                     # stream -> last avail
        self.sent_seqs = {}                      # stream -> enqueued seqs

    def apply(self, kind, *params):
        w = self.w
        if kind == "report":
            shard, delta = params[0] % self.n, params[1]
            if self.blocked[shard]:
                return  # a blocked shard wakes only via a release
            floor = self.floors[shard] + delta
            w.report(shard, floor)
            self.floors[shard] = floor
        elif kind == "block":
            shard = params[0] % self.n
            w.report(shard, None)
            self.blocked[shard] = True
        elif kind == "send":
            src = params[0] % (self.n * RANKS_PER_SHARD)
            dst = params[1] % (self.n * RANKS_PER_SHARD)
            s, d = _shard_of(src), _shard_of(dst)
            if s == d or self.blocked[s]:
                return  # intra-shard or from a blocked shard: no-ops
            avail = self.floors[s] + w.lookahead + params[2]
            key = (src, dst)
            avail = max(avail, self.last_avail.get(key, 0.0))  # P2
            self.last_avail[key] = avail
            w.send(src, dst, avail)
            self.sent_seqs.setdefault(key, []).append(avail)
        elif kind == "release":
            dest = params[0] % self.n
            bound = w.lbts_for(dest)
            items = w.release(dest)
            per_stream = {}
            for seq, src, dst, avail, _payload in items:
                assert _shard_of(dst) == dest
                assert avail <= bound, (avail, bound)
                per_stream.setdefault((src, dst), []).append((seq, avail))
            if items:
                # The release wakes the destination: its ranks resume at
                # or above the waking envelopes' avail times, so future
                # reports/sends may come from as low as the minimum.
                self.blocked[dest] = False
                self.floors[dest] = min(self.floors[dest],
                                        min(i[3] for i in items))
            for key, got in per_stream.items():
                # Invariant 2 (FIFO): the released slice is the oldest
                # remaining prefix of the stream, in enqueue order.
                assert [s for s, _ in got] == sorted(s for s, _ in got)
                expect = self.sent_seqs[key][:len(got)]
                assert [a for _, a in got] == expect
                del self.sent_seqs[key][:len(got)]


@settings(max_examples=80, deadline=None)
@given(_schedules())
def test_fifo_and_drain(params):
    n_shards, lookahead, ops = params
    ex = _Executor(n_shards, lookahead)
    for op in ops:
        ex.apply(*op)
    # Drain: rising floors release everything, each stream in order.
    for _ in range(len(ops) + 1):
        if ex.w.transit_count() == 0:
            break
        for d in range(n_shards):
            ex.apply("report", d, 10.0)
        for d in range(n_shards):
            ex.apply("release", d)
    assert ex.w.transit_count() == 0


@settings(max_examples=80, deadline=None)
@given(_schedules())
def test_progress_when_all_blocked(params):
    # Invariant 1: with traffic in transit and every shard blocked, the
    # queued-traffic bound on each blocked shard's effective floor must
    # let at least one envelope through — the strict-barrier engine
    # would otherwise livelock at its quiescence point.
    n_shards, lookahead, ops = params
    ex = _Executor(n_shards, lookahead)
    for op in ops:
        if op[0] != "release":          # build up in-transit traffic
            ex.apply(*op)
    rounds = 0
    while ex.w.transit_count() > 0:
        for d in range(n_shards):
            ex.apply("block", d)
        released = sum(len(ex.w.release(d)) for d in range(n_shards))
        assert released > 0, "all-blocked shards with transit made no progress"
        rounds += 1
        assert rounds <= len(ops) + 1


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0, allow_nan=False), max_size=20))
def test_report_clamps_monotone(deltas):
    # A lower finite report is a stale observation and must clamp to
    # the previous floor, so lbts (here floor + lookahead seen from the
    # peer) never decreases.
    w = LookaheadWindow(2, 1.0)
    w.report(1, 1000.0)
    floor = hi = 0.0
    for delta in deltas:
        floor = max(0.0, floor + delta)
        w.report(0, floor)
        hi = max(hi, floor)
        assert w.lbts_for(1) == hi + 1.0


def test_blocked_shard_bounded_by_queued_traffic():
    # A blocked shard reports None; its effective floor becomes the
    # minimum avail queued *for* it, not its stale clock.
    w = _make_window(2, 1.0)
    w.report(0, 5.0)
    w.report(1, None)
    # Nothing queued for shard 1: it can emit nothing, so it does not
    # bound shard 0 at all.
    assert w.lbts_for(0) == math.inf
    # Queue traffic for shard 1: its future sends are now bounded by
    # what it has yet to receive (avail 7), plus the return lookahead.
    w.send(0, 2, avail_time=7.0)
    assert w.lbts_for(0) == 8.0
    assert w.lbts_for(1) == 6.0  # shard 0's floor 5 + lookahead 1


def test_release_wakes_blocked_destination():
    w = _make_window(2, 1.0)
    w.report(0, 5.0)
    w.report(1, None)
    w.send(0, 2, avail_time=5.5)   # below lbts_for(1) == 6
    items = w.release(1)
    assert [(i[1], i[2], i[3]) for i in items] == [(0, 2, 5.5)]
    # The woken destination's floor dropped to the waking avail — its
    # ranks resume at or above 5.5 — so it now bounds shard 0 again.
    assert w.lbts_for(0) == 6.5


def test_drop_dest_unblocks_others():
    w = _make_window(2, 1.0)
    w.report(0, 5.0)
    w.report(1, 0.0)
    w.send(0, 2, avail_time=6.0)
    w.send(0, 3, avail_time=7.0)
    assert w.lbts_for(0) == 1.0  # held down by shard 1's floor
    assert w.drop_dest(1) == 2
    assert w.transit_count() == 0
    assert w.lbts_for(0) == math.inf  # the dead shard bounds no one
