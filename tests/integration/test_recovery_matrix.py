"""End-to-end recovery invariants across a matrix of failure points.

The central property of the system (the paper's correctness claim): for a
deterministic application, a run that fails at ANY point and recovers
from the last committed line produces exactly the failure-free answer.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import APPS
from repro.core import C3Config, run_fault_tolerant, run_original
from repro.mpi import FaultPlan, FaultSpec
from repro.mpi.ops import SUM
from repro.storage import InMemoryStorage


def dense_app(ctx):
    """A deliberately chatty app: p2p + collectives + nonblocking, with
    staggered progress so recovery lines cut through live traffic."""
    comm = ctx.comm
    r, s = ctx.rank, ctx.size
    if ctx.first_time("setup"):
        ctx.state.x = np.arange(6.0) * (r + 1)
        ctx.state.inbox = np.zeros(6)
        ctx.state.acc = 0.0
        ctx.done("setup")
    for it in ctx.range("i", 15):
        ctx.checkpoint()
        ctx.compute(1e-4 * (1 + (r * 7 + it) % 3))
        req = comm.Irecv(ctx.state.inbox, source=(r - 1) % s, tag=1)
        comm.Send(ctx.state.x, dest=(r + 1) % s, tag=1)
        comm.Wait(req)
        ctx.state.x = ctx.state.inbox * 0.9 + it
        out = np.zeros(1)
        comm.Allreduce(np.array([float(ctx.state.x.sum())]), out, SUM)
        ctx.state.acc += float(out[0])
    return round(ctx.state.acc, 6)


REF = {}


def reference(nprocs):
    if nprocs not in REF:
        result = run_original(dense_app, nprocs)
        result.raise_errors()
        REF[nprocs] = (result.returns, result.virtual_time)
    return REF[nprocs]


@pytest.mark.parametrize("tenth", range(1, 10))
def test_failure_at_every_tenth(tenth):
    """Kill a rank at each 10% mark of the run; always recover exactly."""
    returns, T = reference(3)
    res = run_fault_tolerant(
        dense_app, 3, storage=InMemoryStorage(),
        config=C3Config(checkpoint_interval=T * 0.13),
        fault_plan=FaultPlan([FaultSpec(rank=tenth % 3,
                                        at_time=T * tenth / 10)]),
        wall_timeout=120)
    assert res.returns == returns


@settings(max_examples=12, deadline=None)
@given(rank=st.integers(0, 2), frac=st.floats(0.05, 0.95),
       interval_frac=st.floats(0.08, 0.4))
def test_recovery_invariant_property(rank, frac, interval_frac):
    """Property: any (failing rank, failure time, checkpoint cadence)
    yields the failure-free answer."""
    returns, T = reference(3)
    res = run_fault_tolerant(
        dense_app, 3, storage=InMemoryStorage(),
        config=C3Config(checkpoint_interval=T * interval_frac),
        fault_plan=FaultPlan([FaultSpec(rank=rank, at_time=T * frac)]),
        wall_timeout=120)
    assert res.returns == returns
    assert res.restarts == 1


def test_recovery_from_disk_storage(tmp_path):
    """Checkpoints on real files survive 'the machine' (process state)."""
    from repro.storage import DiskStorage
    returns, T = reference(3)
    storage = DiskStorage(str(tmp_path / "stable"))
    res = run_fault_tolerant(
        dense_app, 3, storage=storage,
        config=C3Config(checkpoint_interval=T * 0.15),
        fault_plan=FaultPlan([FaultSpec(rank=2, at_time=T * 0.6)]))
    assert res.returns == returns
    assert len(storage.list("ckpt/")) > 0


def big_endian_app(ctx):
    """State held in a big-endian array, updated in place so it keeps
    its byte order."""
    comm = ctx.comm
    if ctx.first_time("setup"):
        ctx.state.x = (np.arange(5.0) + ctx.rank).astype(">f8")
        ctx.done("setup")
    for it in ctx.range("i", 12):
        ctx.checkpoint()
        ctx.compute(1e-4)
        x = ctx.state.x
        x *= 1.25
        x += it
        out = np.zeros(1)
        comm.Allreduce(np.array([float(x.sum())]), out, SUM)
        x -= out[0] * 1e-3
    return ctx.state.x.dtype.str, ctx.state.x.tobytes()


def test_big_endian_state_restarts_bitwise():
    """A checkpoint is portable as written: a ``>f8`` array restores
    with its byte order and bytes, whatever the host's."""
    golden = run_original(big_endian_app, 3)
    golden.raise_errors()
    res = run_fault_tolerant(
        big_endian_app, 3, storage=InMemoryStorage(),
        config=C3Config(checkpoint_interval=golden.virtual_time * 0.15),
        fault_plan=FaultPlan([
            FaultSpec(rank=0, at_time=golden.virtual_time * 0.6)]))
    assert res.restarts == 1
    assert all(s.restored_version for s in res.stats)
    assert res.returns == golden.returns
    assert {dtype for dtype, _ in res.returns} == {">f8"}


def test_full_codec_recovery():
    """The piggyback ablation codec must be functionally identical."""
    returns, T = reference(3)
    res = run_fault_tolerant(
        dense_app, 3, storage=InMemoryStorage(),
        config=C3Config(checkpoint_interval=T * 0.15, codec="full"),
        fault_plan=FaultPlan([FaultSpec(rank=1, at_time=T * 0.5)]))
    assert res.returns == returns


def test_distinguished_initiator_recovery():
    """The earlier protocol's initiation (ablation) still recovers."""
    returns, T = reference(3)
    res = run_fault_tolerant(
        dense_app, 3, storage=InMemoryStorage(),
        config=C3Config(checkpoint_interval=T * 0.15,
                        distinguished_initiator=True),
        fault_plan=FaultPlan([FaultSpec(rank=2, at_time=T * 0.55)]))
    assert res.returns == returns


def test_three_failures_in_sequence():
    returns, T = reference(3)
    plan = FaultPlan([
        FaultSpec(rank=0, at_time=T * 0.3),
        FaultSpec(rank=1, at_time=T * 0.55),
        FaultSpec(rank=2, at_time=T * 0.8),
    ])
    res = run_fault_tolerant(
        dense_app, 3, storage=InMemoryStorage(),
        config=C3Config(checkpoint_interval=T * 0.12), fault_plan=plan,
        wall_timeout=180)
    # virtual clocks restart at zero on recovery, so late triggers may
    # never be reached again; at least the first two failures must fire
    assert res.restarts >= 2
    assert res.returns == returns


def test_probabilistic_faults_eventually_finish():
    """Seeded probabilistic fail-stop faults: the restart loop converges
    because fired specs never re-fire."""
    returns, T = reference(3)
    plan = FaultPlan([FaultSpec(rank=r, probability=0.001) for r in range(3)],
                     seed=7)
    res = run_fault_tolerant(
        dense_app, 3, storage=InMemoryStorage(),
        config=C3Config(checkpoint_interval=T * 0.2), fault_plan=plan,
        max_restarts=10, wall_timeout=180)
    assert res.returns == returns
