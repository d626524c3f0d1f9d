"""Figure 5 actions: start / commit / restore, versioning, commit rules."""

import numpy as np
import pytest

from repro.core import C3Config, run_c3, run_fault_tolerant
from repro.mpi import FaultPlan, FaultSpec
from repro.storage import InMemoryStorage, as_store


def looping_app(ctx, niter=12, work=1e-4):
    comm = ctx.comm
    r, s = ctx.rank, ctx.size
    if ctx.first_time("setup"):
        ctx.state.x = np.zeros(4)
        ctx.done("setup")
    for it in ctx.range("i", niter):
        ctx.checkpoint()
        comm.Send(ctx.state.x + it, dest=(r + 1) % s, tag=1)
        buf = np.zeros(4)
        comm.Recv(buf, source=(r - 1) % s, tag=1)
        ctx.state.x = buf + 1
        ctx.compute(work)
    return float(ctx.state.x.sum())


def test_versions_advance_and_commit(storage):
    # gc_lines=False keeps the full commit history so every version's
    # marker can be asserted; production GC retention is covered by
    # tests/core/test_overlap.py
    result, stats = run_c3(looping_app, 3, storage=storage,
                           config=C3Config(checkpoint_interval=3e-4,
                                           gc_lines=False))
    result.raise_errors()
    n = stats[0].checkpoints_committed
    assert n >= 2
    for rank in range(3):
        assert (as_store(storage).committed_versions(rank)
                == list(range(1, n + 1)))
    assert as_store(storage).last_committed_global(3) == n


def test_checkpoint_sections_present(storage):
    result, stats = run_c3(looping_app, 2, storage=storage,
                           config=C3Config(checkpoint_interval=4e-4))
    result.raise_errors()
    last = stats[0].checkpoints_committed  # earlier lines are GC'd
    paths = storage.list(f"ckpt/v{last}/rank0/")
    names = {p.rsplit("/", 1)[1] for p in paths}
    assert names == {"app", "mpi_state", "handles", "early_registry",
                     "counters", "late_registry", "event_log",
                     "request_table", "COMMIT"}


def test_dry_run_stores_nothing(storage):
    result, stats = run_c3(looping_app, 2, storage=storage,
                           config=C3Config(checkpoint_interval=4e-4,
                                           save_to_disk=False))
    result.raise_errors()
    assert stats[0].checkpoints_committed >= 1       # went through the motions
    assert stats[0].last_checkpoint_bytes > 0        # bytes were counted
    assert storage.list() == []                      # nothing stored


def test_restore_uses_global_minimum(storage):
    """If one rank committed v2 but another only v1, recovery must use v1.

    Runs with gc_lines=False: the scenario models a rank whose *markers*
    were lost after the fact, which production GC (whose floor assumes
    written markers are durable) would have made unreachable.
    """
    config = C3Config(checkpoint_interval=3e-4, gc_lines=False)
    result, stats = run_c3(looping_app, 2, storage=storage, config=config)
    result.raise_errors()
    committed = stats[0].checkpoints_committed
    assert committed >= 2
    # simulate a rank whose later commits were lost with the node
    for v in range(2, committed + 1):
        storage.delete(f"ckpt/v{v}/rank1/COMMIT")
    assert as_store(storage).last_committed_local(0) == committed
    assert as_store(storage).last_committed_global(2) == 1

    restarted, rstats = run_c3(looping_app, 2, storage=storage,
                               config=config, restoring=True)
    restarted.raise_errors()
    assert rstats[0].restored_version == 1


def test_restore_without_any_commit_is_cold_start(storage):
    res = run_fault_tolerant(
        looping_app, 2, storage=storage,
        config=C3Config(),  # no timer: no checkpoints ever taken
        fault_plan=FaultPlan([FaultSpec(rank=1, at_time=5e-4)]))
    # the job failed once, restarted cold, and still finished correctly
    assert res.restarts == 1
    assert res.stats[0].restored_version is None
    ref = run_fault_tolerant(looping_app, 2, storage=InMemoryStorage(),
                             config=C3Config())
    assert res.returns == ref.returns


def test_checkpoint_bytes_accounting(storage):
    result, stats = run_c3(looping_app, 2, storage=storage,
                           config=C3Config(checkpoint_interval=4e-4))
    result.raise_errors()
    measured = as_store(storage).checkpoint_bytes(
        stats[0].checkpoints_committed, 0)
    assert measured > 0
    # stats track the app+handles part and the commit-time log part
    assert measured <= (stats[0].last_checkpoint_bytes
                        + stats[0].last_log_bytes) * 1.01 + 4096


def test_forced_pragma_takes_checkpoint(storage):
    def app(ctx):
        if ctx.first_time("setup"):
            ctx.state.v = 1.0
            ctx.done("setup")
        for it in ctx.range("i", 6):
            ctx.checkpoint(force=(it == 2))
            # commit is lazy: it completes as control messages are polled
            # at later protocol operations, so keep communicating
            ctx.comm.Barrier()
        return True

    result, stats = run_c3(app, 2, storage=storage, config=C3Config())
    result.raise_errors()
    assert stats[0].checkpoints_committed == 1


def test_max_checkpoints_cap(storage):
    result, stats = run_c3(looping_app, 2, storage=storage,
                           config=C3Config(checkpoint_interval=1e-4,
                                           max_checkpoints=1))
    result.raise_errors()
    assert stats[0].checkpoints_started == 1


def test_repeated_failures_roll_forward(storage):
    """Two failures at different points; each recovery resumes from the
    newest line committed at that moment."""
    plan = FaultPlan([
        FaultSpec(rank=0, at_time=6e-4),
        FaultSpec(rank=1, at_time=1.1e-3),
    ])
    res = run_fault_tolerant(
        looping_app, 3, storage=storage,
        config=C3Config(checkpoint_interval=2.5e-4), fault_plan=plan)
    assert res.restarts == 2
    ref = run_fault_tolerant(looping_app, 3, storage=InMemoryStorage(),
                             config=C3Config())
    assert res.returns == ref.returns
