"""Incremental checkpointing integrated with the C3 protocol."""

import numpy as np
import pytest

from repro.core import C3Config, run_c3, run_fault_tolerant, run_original
from repro.mpi import FaultPlan, FaultSpec
from repro.storage import InMemoryStorage, as_store


def sparse_writer_app(ctx):
    """A large state array of which only a sliver changes per iteration —
    the workload incremental checkpointing exists for."""
    comm = ctx.comm
    r, s = ctx.rank, ctx.size
    if ctx.first_time("setup"):
        ctx.state.big = np.zeros(64 * 1024 // 8)   # 64 KiB
        ctx.state.acc = 0.0
        ctx.done("setup")
    for it in ctx.range("i", 12):
        ctx.checkpoint()
        ctx.state.big[it] = float(it + r)          # one dirty page
        comm.Send(np.array([float(it)]), dest=(r + 1) % s, tag=1)
        buf = np.zeros(1)
        comm.Recv(buf, source=(r - 1) % s, tag=1)
        ctx.state.acc += float(buf[0])
        ctx.compute(1e-4)
    return round(float(ctx.state.big.sum() + ctx.state.acc), 9)


def test_incremental_checkpoints_are_smaller():
    full_store = InMemoryStorage()
    # gc_lines=False so v2 of the full run survives for the comparison
    # (the incremental run's v2 is pinned by its decode chain anyway)
    res_full, _ = run_c3(sparse_writer_app, 2, storage=full_store,
                         config=C3Config(checkpoint_interval=2.5e-4,
                                         gc_lines=False))
    res_full.raise_errors()

    incr_store = InMemoryStorage()
    res_incr, stats = run_c3(
        sparse_writer_app, 2, storage=incr_store,
        config=C3Config(checkpoint_interval=2.5e-4, incremental=True,
                        incremental_full_interval=100))
    res_incr.raise_errors()
    assert res_incr.returns == res_full.returns
    committed = stats[0].checkpoints_committed
    assert committed >= 2
    # the first checkpoint is full; later ones carry only dirty pages
    first = as_store(full_store).checkpoint_bytes(2, 0)
    later = as_store(incr_store).checkpoint_bytes(2, 0)
    assert later < first / 4


def test_incremental_recovery_exact():
    ref = run_original(sparse_writer_app, 2)
    ref.raise_errors()
    T = ref.virtual_time
    res = run_fault_tolerant(
        sparse_writer_app, 2, storage=InMemoryStorage(),
        config=C3Config(checkpoint_interval=T * 0.12, incremental=True,
                        incremental_full_interval=3),
        fault_plan=FaultPlan([FaultSpec(rank=0, at_time=T * 0.75)]))
    assert res.restarts == 1
    assert res.stats[0].restored_version >= 2  # restored through a chain
    assert res.returns == ref.returns


def test_incremental_recovery_from_delta_version():
    """Restore from a version whose record is a delta: the chain walk must
    reach back to the full save."""
    ref = run_original(sparse_writer_app, 2)
    ref.raise_errors()
    T = ref.virtual_time
    res = run_fault_tolerant(
        sparse_writer_app, 2, storage=InMemoryStorage(),
        config=C3Config(checkpoint_interval=T * 0.1, incremental=True,
                        incremental_full_interval=100),  # only v1 is full
        fault_plan=FaultPlan([FaultSpec(rank=1, at_time=T * 0.8)]))
    assert res.restarts == 1
    assert res.stats[0].restored_version >= 3
    assert res.returns == ref.returns
