"""The top-level runner plumbing (repro.core.ccc)."""

import gc
import weakref

import numpy as np
import pytest

from repro.apps import heat, ring
from repro.core import (
    C3Config, C3RunResult, ProtocolError, RestartsExhausted, cached_comm,
    run_c3, run_fault_tolerant, run_original,
)
from repro.mpi import FaultPlan, FaultSpec
from repro.storage import InMemoryStorage


def test_run_result_properties():
    res = run_fault_tolerant(ring, 2, storage=InMemoryStorage(),
                             config=C3Config())
    assert isinstance(res, C3RunResult)
    assert res.virtual_time == res.job.virtual_time
    assert res.returns == res.job.returns
    assert res.restarts == 0 and res.history == []


def test_stats_split_from_returns():
    result, stats = run_c3(ring, 3, storage=InMemoryStorage(),
                           config=C3Config())
    result.raise_errors()
    assert len(stats) == 3
    assert all(s is not None for s in stats)
    assert all(not isinstance(r, tuple) for r in result.returns)


def test_max_restarts_exceeded():
    # a fault that fires on every attempt (clock-based, always reached)
    plan = FaultPlan([FaultSpec(rank=0, after_ops=2),
                      FaultSpec(rank=0, after_ops=3),
                      FaultSpec(rank=0, after_ops=4),
                      FaultSpec(rank=0, after_ops=5)])
    with pytest.raises(ProtocolError, match="giving up") as exc:
        run_fault_tolerant(ring, 2, storage=InMemoryStorage(),
                           config=C3Config(), fault_plan=plan,
                           max_restarts=2)
    assert isinstance(exc.value, RestartsExhausted)
    assert exc.value.restarts == 3 and exc.value.failure.rank == 0


def test_every_execution_is_kept():
    plan = FaultPlan.staggered([(1, 2e-5), (0, 4e-5)])
    res = run_fault_tolerant(ring, 2, storage=InMemoryStorage(),
                             config=C3Config(checkpoint_interval=1e-5),
                             fault_plan=plan)
    assert res.restarts == 2 and len(res.runs) == 3
    assert sorted(job.failure.rank for job in res.history) == [0, 1]
    assert (res.job, res.stats) == res.runs[-1]
    assert all(stats == [None, None] for _job, stats in res.runs[:-1])


def test_restart_without_a_committed_line_is_a_fresh_run():
    """A kill before the first line commits leaves nothing to restore:
    the restart runs the job from the start, exactly as a fresh run."""
    config = C3Config(checkpoint_interval=1.0)   # no line in this job
    fresh, _ = run_c3(ring, 2, storage=InMemoryStorage(), config=config)
    res = run_fault_tolerant(ring, 2, storage=InMemoryStorage(),
                             config=config, fault_plan=FaultPlan(
                                 [FaultSpec(rank=1, after_ops=5)]))
    assert res.restarts == 1
    assert all(s.restored_version is None for s in res.stats)
    assert res.returns == fresh.returns
    assert res.job.clocks == fresh.clocks


def test_app_args_forwarded():
    def app(ctx, factor):
        return ctx.rank * factor

    result, _ = run_c3(app, 2, storage=InMemoryStorage(), config=C3Config(),
                       app_args=(10,))
    result.raise_errors()
    assert result.returns == [0, 10]
    orig = run_original(app, 2, app_args=(10,))
    orig.raise_errors()
    assert orig.returns == [0, 10]


def test_cached_comm_rejects_double_create_in_original_mode():
    def app(ctx):
        cached_comm(ctx, "sub", lambda: ctx.comm.Dup())
        try:
            cached_comm(ctx, "sub", lambda: ctx.comm.Dup())
        except ProtocolError:
            return "raised"
        return "rebuilt"

    # under C3 the second call rebuilds the handle from the table
    result, _ = run_c3(app, 2, storage=InMemoryStorage(), config=C3Config())
    result.raise_errors()
    assert result.returns == ["rebuilt", "rebuilt"]
    # in original mode there is no table, so it raises
    orig = run_original(app, 2)
    orig.raise_errors()
    assert orig.returns == ["raised", "raised"]


def test_app_exception_surfaces_through_runner():
    def app(ctx):
        if ctx.rank == 1:
            raise ValueError("app bug")
        return 1

    with pytest.raises(RuntimeError, match="app bug"):
        run_fault_tolerant(app, 2, storage=InMemoryStorage(),
                           config=C3Config())


HEAT_ARGS = (1 << 12, 40)   # local_n, niter: a 32 KiB rod per rank


def heat_run_c3(kill_frac=None):
    """One 4-rank heat job under C3, optionally killed at ``kill_frac``
    of its clean virtual time, with the collector off: only reference
    counting may free what the ranks held.  Returns the job and a weak
    reference to every rank's rod as its body exited."""
    config = C3Config()
    golden, _ = run_c3(heat, 4, config=config, app_args=HEAT_ARGS)
    plan = None if kill_frac is None else FaultPlan(
        [FaultSpec(rank=1, at_time=kill_frac * golden.virtual_time)])
    rods = []

    def app(ctx, *args):
        try:
            return heat(ctx, *args)
        finally:
            rods.append(weakref.ref(ctx.state.u))

    gc.collect()
    gc.disable()
    try:
        result, _ = run_c3(app, 4, config=config, fault_plan=plan,
                           app_args=HEAT_ARGS)
        alive = [ref() is not None for ref in rods]
    finally:
        gc.enable()
    return result, alive, golden


@pytest.mark.parametrize("kill_frac", [None, 0.6])
def test_a_jobs_rods_die_when_run_c3_returns(kill_frac):
    """No rank's context outlives its job: the context and its C3 layer
    are untied when the body exits, and a killed job's failure holds no
    frames."""
    result, alive, _ = heat_run_c3(kill_frac)
    assert (result.failure is None) == (kill_frac is None)
    assert alive == [False] * 4


def test_a_killed_jobs_failure_keeps_no_traceback():
    result, _, golden = heat_run_c3(0.6)
    failure = result.failure
    assert failure.__traceback__ is None
    # rank, time and reason stay: the strike lands on the victim's
    # first clock advance past the kill instant
    kill_at = 0.6 * golden.virtual_time
    assert failure.rank == 1
    assert kill_at <= failure.time < 1.01 * kill_at
    assert failure.reason == "injected fail-stop fault"
    assert str(failure) == (f"rank 1 failed at t={failure.time:.6f}: "
                            "injected fail-stop fault")
