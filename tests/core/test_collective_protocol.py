"""Section 4.3: collectives under the protocol (Figure 7).

Per-stream classification over native transport, emulation during
recovery, reductions via the Gather transform, and the result-logging
option.
"""

import numpy as np
import pytest

from repro.core import C3Config, run_c3, run_fault_tolerant, run_original
from repro.mpi import FaultPlan, FaultSpec, SUM
from repro.mpi.ops import Op
from repro.storage import InMemoryStorage


def collective_mix_app(ctx):
    comm = ctx.comm
    r, s = ctx.rank, ctx.size
    if ctx.first_time("setup"):
        ctx.state.acc = 0.0
        ctx.done("setup")
    for it in ctx.range("i", 10):
        ctx.checkpoint()
        ctx.compute(1e-4 * (1 + r))      # staggered pragmas
        # bcast from a rotating root
        buf = (np.arange(3.0) + it if r == it % s else np.zeros(3))
        comm.Bcast(buf, root=it % s)
        # gather to rank 0
        gathered = np.zeros((s, 1)) if r == 0 else None
        comm.Gather(np.array([float(r + it)]), gathered, root=0)
        # allreduce
        out = np.zeros(1)
        comm.Allreduce(np.array([buf.sum()]), out, SUM)
        ctx.state.acc += float(out[0])
        if r == 0:
            ctx.state.acc += float(gathered.sum())
        # alltoall
        rb = np.zeros(s)
        comm.Alltoall(np.full(s, float(r)), rb)
        ctx.state.acc += float(rb.sum())
        comm.Barrier()
    return round(ctx.state.acc, 9)


def test_collectives_correct_under_c3():
    ref = run_original(collective_mix_app, 4)
    ref.raise_errors()
    result, stats = run_c3(collective_mix_app, 4, storage=InMemoryStorage(),
                           config=C3Config(checkpoint_interval=8e-4))
    result.raise_errors()
    assert result.returns == ref.returns
    assert min(s.checkpoints_committed for s in stats) >= 1
    assert sum(s.collectives_native for s in stats) > 0


@pytest.mark.parametrize("frac", [0.35, 0.7])
def test_collectives_recover(frac):
    ref = run_original(collective_mix_app, 4)
    ref.raise_errors()
    T = ref.virtual_time
    res = run_fault_tolerant(
        collective_mix_app, 4, storage=InMemoryStorage(),
        config=C3Config(checkpoint_interval=T * 0.18),
        fault_plan=FaultPlan([FaultSpec(rank=2, at_time=T * frac)]))
    assert res.restarts == 1
    assert res.returns == ref.returns
    # the recovered run must have used point-to-point emulation
    assert sum(s.collectives_emulated for s in res.stats if s) > 0


def test_collective_streams_report_their_message_class():
    """Collective streams run the receive rule application messages run,
    so the fuzzer's coverage map sees the classes of a collective-only
    code — native streams in the logging phases, emulated ones always."""
    from repro import coverage

    def points(config):
        cmap = coverage.CoverageMap()
        previous = coverage.install(cmap)
        try:
            result, _ = run_c3(collective_mix_app, 4,
                               storage=InMemoryStorage(), config=config)
        finally:
            coverage.install(previous)
        result.raise_errors()
        return cmap.points()

    assert "msg:intra" in points(C3Config(checkpoint_interval=8e-4))
    assert "msg:intra" in points(C3Config(emulate_collectives=True))


def test_emulation_matches_native_semantics():
    """Forced emulation (the ablation flag) must give identical results."""
    ref = run_original(collective_mix_app, 4)
    ref.raise_errors()
    result, _ = run_c3(collective_mix_app, 4, storage=InMemoryStorage(),
                       config=C3Config(emulate_collectives=True))
    result.raise_errors()
    assert result.returns == ref.returns


def test_scan_under_protocol():
    def app(ctx):
        comm = ctx.comm
        out = np.zeros(1)
        for it in ctx.range("i", 6):
            ctx.checkpoint()
            comm.Scan(np.array([float(ctx.rank + 1)]), out, SUM)
        return out[0]

    result, _ = run_c3(app, 4, storage=InMemoryStorage(), config=C3Config())
    result.raise_errors()
    assert result.returns == [1.0, 3.0, 6.0, 10.0]


def test_reduce_gather_transform_non_commutative():
    """The Reduce->Gather transform must fold in rank order so that even
    non-commutative user ops are exact (the reason the transform exists)."""
    def app(ctx):
        comm = ctx.comm
        op = Op.create(lambda a, b: a * 10 + b, commute=False)
        out = np.zeros(1)
        for it in ctx.range("i", 3):
            ctx.checkpoint()
            comm.Reduce(np.array([float(ctx.rank + 1)]), out, op, root=0)
        return out[0] if ctx.rank == 0 else None

    result, _ = run_c3(app, 4, storage=InMemoryStorage(), config=C3Config())
    result.raise_errors()
    assert result.returns[0] == 1234.0


def test_result_logging_option():
    """The paper's Allreduce optimization: results logged during the
    checkpointing period, replayed on recovery.

    The optimization is only consistent when the logging windows of the
    participants cover the same call indices (DESIGN.md section 7.5
    derives the counter-example; it is why stream-based reductions are the
    default).  Replay across a failure is therefore exercised on a
    uniprocessor run (trivially aligned windows); the multi-rank case
    checks the logging mechanics and failure-free equivalence.
    """
    def app(ctx):
        comm = ctx.comm
        if ctx.first_time("setup"):
            ctx.state.acc = 0.0
            ctx.done("setup")
        for it in ctx.range("i", 12):
            ctx.checkpoint()
            ctx.compute(1e-4)
            out = np.zeros(1)
            comm.Allreduce(np.array([float(ctx.rank + it)]), out, SUM)
            ctx.state.acc += float(out[0])
        return ctx.state.acc

    # 1) uniprocessor: log + replay across a real failure
    ref1 = run_original(app, 1)
    ref1.raise_errors()
    T1 = ref1.virtual_time
    res1 = run_fault_tolerant(
        app, 1, storage=InMemoryStorage(),
        config=C3Config(checkpoint_interval=T1 * 0.2,
                        log_reduction_results=True),
        fault_plan=FaultPlan([FaultSpec(rank=0, at_time=T1 * 0.7)]),
        wall_timeout=60)
    assert res1.restarts == 1
    assert res1.returns == ref1.returns

    # 2) multi-rank: results are logged during the window and the run
    #    matches the original when no failure occurs
    ref3 = run_original(app, 3)
    ref3.raise_errors()
    result, stats = run_c3(
        app, 3, storage=InMemoryStorage(),
        config=C3Config(checkpoint_interval=ref3.virtual_time * 0.25,
                        log_reduction_results=True))
    result.raise_errors()
    assert result.returns == ref3.returns
    assert sum(s.events_logged for s in stats if s) > 0


def test_barrier_across_recovery_line():
    """A barrier can straddle a recovery line (some ranks checkpoint
    before it, some after); the per-stream token machinery keeps it
    consistent across a failure."""
    def app(ctx):
        comm = ctx.comm
        if ctx.first_time("setup"):
            ctx.state.n = 0.0
            ctx.done("setup")
        for it in ctx.range("i", 12):
            ctx.checkpoint()
            ctx.compute(1e-4 * (1 + 2 * ctx.rank))  # heavy stagger
            comm.Barrier()
            ctx.state.n += 1.0
        return ctx.state.n

    ref = run_original(app, 3)
    ref.raise_errors()
    T = ref.virtual_time
    res = run_fault_tolerant(
        app, 3, storage=InMemoryStorage(),
        config=C3Config(checkpoint_interval=T * 0.15),
        fault_plan=FaultPlan([FaultSpec(rank=0, at_time=T * 0.5)]))
    assert res.returns == [12.0, 12.0, 12.0]


# ---------------------------------------------------------------------------
# Buffers: a C3 run accepts exactly what the original run accepts
# ---------------------------------------------------------------------------

def _strided2(rows, cols, fill=0.0):
    """A 2-D view that drops a column: reshape(-1) would copy it."""
    view = np.zeros((rows, cols + 1))[:, :cols]
    view[...] = fill
    return view


def _strided1(n, fill=0.0):
    view = np.zeros(2 * n)[::2]
    view[...] = fill
    return view


#: name -> body(comm, rank, size) returning what the rank observed; each
#: passes one non-contiguous buffer in one role
_BUFFER_CASES = {
    "bcast-2d": lambda c, r, n: c.Bcast(_strided2(2, 2, float(r == 0))),
    "bcast-1d": lambda c, r, n: c.Bcast(_strided1(4, float(r == 0))),
    "allreduce-recv-2d": lambda c, r, n: c.Allreduce(
        np.full((2, 2), r + 1.0), _strided2(2, 2), SUM),
    "allreduce-recv-1d": lambda c, r, n: c.Allreduce(
        np.full(4, r + 1.0), _strided1(4), SUM),
    "allreduce-send-2d": lambda c, r, n: c.Allreduce(
        _strided2(2, 2, float(r)), np.zeros((2, 2)), SUM),
    "reduce-send-2d": lambda c, r, n: c.Reduce(
        _strided2(2, 2, float(r)), np.zeros((2, 2)), SUM),
    "reduce-recv-2d": lambda c, r, n: c.Reduce(
        np.full((2, 2), r + 1.0), _strided2(2, 2), SUM),
    "scan-recv-2d": lambda c, r, n: c.Scan(
        np.full((2, 2), r + 1.0), _strided2(2, 2), SUM),
    "scan-send-2d": lambda c, r, n: c.Scan(
        _strided2(2, 2, float(r)), np.zeros((2, 2)), SUM),
    "gather-send-1d": lambda c, r, n: c.Gather(
        _strided1(2, float(r)), np.zeros((n, 2))),
    "gather-recv-2d": lambda c, r, n: c.Gather(
        np.full(2, r + 1.0), _strided2(n, 2)),
    "gather-recv-1d": lambda c, r, n: c.Gather(
        np.full(2, r + 1.0), _strided1(2 * n)),
    "gather-recv-uncopyable": lambda c, r, n: c.Gather(
        np.full(2, r + 1.0), _strided2(2, n)),
    "scatter-recv-2d": lambda c, r, n: c.Scatter(
        np.arange(n * 4.0).reshape(n, 4), _strided2(2, 2)),
    "scatter-recv-1d": lambda c, r, n: c.Scatter(
        np.arange(n * 4.0), _strided1(4)),
    "scatter-send-2d": lambda c, r, n: c.Scatter(
        np.arange(n * 5.0).reshape(n, 5)[:, :4], np.zeros(4)),
    "allgather-recv-2d": lambda c, r, n: c.Allgather(
        np.full(2, r + 1.0), _strided2(n, 2)),
    "allgather-recv-1d": lambda c, r, n: c.Allgather(
        np.full(2, r + 1.0), _strided1(2 * n)),
    "allgather-recv-strided-rows": lambda c, r, n: c.Allgather(
        np.full(2, r + 1.0), np.zeros((n, 4))[:, ::2]),
    "allgather-send-1d": lambda c, r, n: c.Allgather(
        _strided1(2, float(r)), np.zeros((n, 2))),
    "alltoall-recv-2d": lambda c, r, n: c.Alltoall(
        np.arange(n * 2.0) + r, _strided2(n, 2)),
    "alltoall-recv-1d": lambda c, r, n: c.Alltoall(
        np.arange(n * 2.0) + r, _strided1(2 * n)),
    "alltoall-send-2d": lambda c, r, n: c.Alltoall(
        _strided2(n, 2, float(r)), np.zeros((n, 2))),
}


def _observed(body):
    """The rank body, returning every buffer argument it passed."""
    def app(ctx):
        comm, seen = ctx.comm, []

        class Recorder:
            def __getattr__(self, name):
                method = getattr(comm, name)

                def call(*args, **kw):
                    seen.extend(a for a in args if isinstance(a, np.ndarray))
                    return method(*args, **kw)
                return call
        body(Recorder(), ctx.rank, ctx.size)
        return [a.tolist() for a in seen]
    return app


def _outcome(result):
    """The error classes raised, or what every rank observed."""
    if result.errors:
        return {tb.strip().splitlines()[-1].split(":")[0]
                for _rank, tb in result.errors}
    return result.returns


@pytest.mark.parametrize("emulate", [False, True], ids=["native", "emulated"])
@pytest.mark.parametrize("case", sorted(_BUFFER_CASES))
def test_c3_and_original_accept_the_same_buffers(case, emulate):
    """A non-contiguous buffer raises the same class under C3 as without
    it — or works, and leaves the same contents."""
    app = _observed(_BUFFER_CASES[case])
    original = run_original(app, 3)
    c3, _stats = run_c3(app, 3, config=C3Config(emulate_collectives=emulate))
    assert _outcome(c3) == _outcome(original)
    assert c3.failure is None and original.failure is None


# ---------------------------------------------------------------------------
# Native accounting as arithmetic: counters and stats end identical
# ---------------------------------------------------------------------------

def _counted_app(ctx):
    """The collective mix, returning the protocol's per-peer counters."""
    result = collective_mix_app(ctx)
    ctx.comm.Scatter(np.arange(4.0 * ctx.size) if ctx.rank == 1 else None,
                     np.zeros(4), root=1)
    c = ctx.c3.counters
    return (result, c.sent_count, c.received_count, c.early_received,
            c.late_received)


@pytest.mark.parametrize("interval", [None, 8e-4],
                         ids=["no-checkpoints", "timer"])
def test_arithmetic_accounting_matches_per_stream(interval, monkeypatch):
    from dataclasses import asdict

    from repro.core import collectives as c3coll

    def run():
        result, stats = run_c3(_counted_app, 4,
                               config=C3Config(checkpoint_interval=interval))
        result.raise_errors()
        return result, [asdict(s) for s in stats]

    taken = []
    arithmetic = c3coll._arithmetic

    def counted(*args):
        ok = arithmetic(*args)
        taken.append(ok)
        return ok
    monkeypatch.setattr(c3coll, "_arithmetic", counted)
    fast, fast_stats = run()
    assert any(taken)
    monkeypatch.setattr(c3coll, "_arithmetic", lambda *args: False)
    slow, slow_stats = run()
    assert fast.returns == slow.returns
    assert fast_stats == slow_stats
    assert [c.hex() for c in fast.clocks] == [c.hex() for c in slow.clocks]
    assert fast.sent_counts == slow.sent_counts
