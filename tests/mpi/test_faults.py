"""FaultPlan unit behavior."""

import pytest

from repro.mpi import run_job
from repro.mpi.errors import ProcessFailure
from repro.mpi.faults import WINDOW_FIELDS, FaultPlan, FaultSpec


def _ticker(mpi, steps=8, dt=0.5):
    """Charge ``dt`` virtual seconds per step, each followed by a barrier
    (an MPI call: the check point where a due fault is delivered)."""
    for _ in range(steps):
        mpi.compute(dt)
        mpi.COMM_WORLD.Barrier()
    return mpi.Wtime()


def test_after_ops_threshold():
    plan = FaultPlan([FaultSpec(rank=0, after_ops=3)])
    plan.check(0, 2, 0.0)
    with pytest.raises(ProcessFailure) as exc:
        plan.check(0, 3, 1.5)
    assert exc.value.rank == 0
    assert exc.value.time == 1.5


def test_at_time_threshold():
    # at_time is delivered by the engine's virtual-time fault scheduler
    # (FaultPlan.check ignores it): a job that ends before the time is
    # untouched, one that crosses it dies at the first check point after
    spec = FaultSpec(rank=1, at_time=2.0)
    plan = FaultPlan([spec])
    plan.check(1, 100, 2.0)          # the per-op path ignores at_time
    short = run_job(2, _ticker, args=(3,), fault_plan=plan)
    assert short.failure is None and plan.unfired() == [spec]
    result = run_job(2, _ticker, fault_plan=plan)
    assert result.failure.rank == 1
    assert 2.0 <= result.failure.time < 2.5
    assert plan.fired == [spec]


def test_only_target_rank_affected():
    plan = FaultPlan([FaultSpec(rank=2, after_ops=1)])
    for rank in (0, 1, 3):
        plan.check(rank, 1000, 1000.0)  # no raise


def test_fired_specs_do_not_refire():
    plan = FaultPlan([FaultSpec(rank=0, after_ops=1)])
    with pytest.raises(ProcessFailure):
        plan.check(0, 1, 0.0)
    plan.check(0, 99, 99.0)  # spent
    assert len(plan.fired) == 1


def test_probabilistic_is_seeded():
    def count_fires(seed):
        plan = FaultPlan([FaultSpec(rank=0, probability=0.2)], seed=seed)
        fires = 0
        for i in range(200):
            try:
                plan.check(0, i, float(i))
            except ProcessFailure:
                fires += 1
                plan.rearm()  # re-arm for counting
        return fires

    assert count_fires(1) == count_fires(1)
    assert 10 < count_fires(1) < 90


def test_add_and_bool():
    plan = FaultPlan.none()
    assert not plan
    plan.add(FaultSpec(rank=0, after_ops=5))
    assert plan


def test_reason_propagates():
    plan = FaultPlan([FaultSpec(rank=0, after_ops=1, reason="psu died")])
    with pytest.raises(ProcessFailure, match="psu died"):
        plan.check(0, 1, 0.0)


def test_multiple_specs_per_rank():
    plan = FaultPlan([FaultSpec(rank=0, after_ops=5),
                      FaultSpec(rank=0, at_time=0.1)])
    first = run_job(2, _ticker, fault_plan=plan)
    assert first.failure.rank == 0
    assert [s.kind() for s in plan.fired] == ["at_time"]   # fires first
    second = run_job(2, _ticker, fault_plan=plan)          # after_ops armed
    assert second.failure.rank == 0
    assert [s.kind() for s in plan.fired] == ["at_time", "after_ops"]


def test_spec_requires_a_trigger():
    with pytest.raises(ValueError):
        FaultSpec(rank=0)
    with pytest.raises(ValueError):
        FaultSpec(rank=0, in_collective=0)


@pytest.mark.parametrize("window", WINDOW_FIELDS)
def test_window_fires_only_at_its_window(window):
    plan = FaultPlan([FaultSpec(rank=1, **{window: 2})])
    plan.check(1, 1000, 1000.0)         # the per-op path ignores windows
    plan.reached(1, window, 1, 0.5)     # below the threshold
    plan.reached(0, window, 2, 0.5)     # another rank's window
    for other in WINDOW_FIELDS:
        if other != window:
            plan.reached(1, other, 2, 0.5)
    with pytest.raises(ProcessFailure) as exc:
        plan.reached(1, window, 2, 0.7)
    assert exc.value.rank == 1 and exc.value.time == 0.7
    assert [s.kind() for s in plan.fired] == [window]
    plan.reached(1, window, 3, 0.9)     # spent
    if window != "at_epoch":            # versions and indices are 1-based
        with pytest.raises(ValueError):
            FaultSpec(rank=0, **{window: 0})


def test_staggered_schedule_and_describe():
    plan = FaultPlan.staggered([(0, 1.0), (1, 2.0)])
    assert len(plan.unfired()) == 2
    # each restart resets the clocks: one kill per execution
    first = run_job(2, _ticker, fault_plan=plan)
    assert first.failure.rank == 0 and 1.0 <= first.failure.time < 1.5
    assert len(plan.unfired()) == 1
    second = run_job(2, _ticker, fault_plan=plan)
    assert second.failure.rank == 1 and 2.0 <= second.failure.time < 2.5
    assert first.failure.reason == "staggered fail-stop"
    descriptions = [s.describe() for s in plan.all_specs()]
    assert any("rank 1" in d and "t=2" in d for d in descriptions)
    assert "epoch" in FaultSpec(rank=0, at_epoch=1).describe()
    assert "collective #4" in FaultSpec(rank=0, in_collective=4).describe()
    assert "drain of line 2" in FaultSpec(rank=0, in_drain=2).describe()
    assert "commit of line 3" in FaultSpec(rank=0, at_commit=3).describe()
    assert "group commit of line 1" in \
        FaultSpec(rank=0, at_group_commit=1).describe()
