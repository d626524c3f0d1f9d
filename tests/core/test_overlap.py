"""Overlapped checkpoint write-back: staging, crash-consistent commits,
torn-line fallback, and recovery-line garbage collection."""

import numpy as np
import pytest

from repro.core import C3Config, run_c3, run_fault_tolerant
from repro.core.ccc import resume_from_manifest, run_original
from repro.mpi import FaultPlan, FaultSpec
from repro.mpi.timemodel import MACHINES, TESTING
from repro.storage import DiskStorage, InMemoryStorage, as_store


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


# ---------------------------------------------------------------------------
# Staging and commit semantics
# ---------------------------------------------------------------------------

def test_overlapped_run_commits_all_lines(storage):
    result, stats = run_c3(looping_app, 3, storage=storage,
                           config=C3Config(checkpoint_interval=3e-4))
    result.raise_errors()
    n = stats[0].checkpoints_committed
    assert n >= 2
    assert stats[0].overlapped_commits == n
    assert as_store(storage).last_committed_global(3, validate=True) == n
    for rank in range(3):
        assert as_store(storage).validate_line(n, rank, deep=True)


def test_overlap_cheaper_than_inline_write():
    """The whole point: staging returns control immediately, so the
    checkpointed run's makespan drops below the in-line write path on a
    platform with a real disk."""
    machine = MACHINES["lemieux"]
    config = dict(checkpoint_interval=2e-3, max_checkpoints=2)
    app = lambda ctx: looping_app(ctx, niter=16, work=5e-4)  # noqa: E731
    inline, istats = run_c3(app, 2, machine=machine,
                            storage=InMemoryStorage(),
                            config=C3Config(overlap=False, **config))
    inline.raise_errors()
    ovl, ostats = run_c3(app, 2, machine=machine, storage=InMemoryStorage(),
                         config=C3Config(overlap=True, **config))
    ovl.raise_errors()
    assert istats[0].checkpoints_committed >= 1
    assert ostats[0].checkpoints_committed == istats[0].checkpoints_committed
    assert ovl.virtual_time < inline.virtual_time
    # identical results either way
    assert ovl.returns == inline.returns


def test_commit_marker_deferred_to_drain_completion():
    """On a slow-disk machine the COMMIT instant (durability) trails the
    protocol commit by at least the modelled drain time."""
    machine = TESTING.with_overrides(disk_bandwidth=1e5, disk_latency=1e-3)
    storage = InMemoryStorage()
    result, stats = run_c3(looping_app, 2, machine=machine, storage=storage,
                           config=C3Config(checkpoint_interval=3e-4,
                                           max_checkpoints=1))
    result.raise_errors()
    st = stats[0]
    assert st.checkpoints_committed == 1
    # durability includes the (queued) drain of app state + log sections
    assert st.last_commit_time >= 1e-3
    assert as_store(storage).last_committed_global(2) == 1


def test_overlap_recovers_bitwise_after_kill(storage):
    ref = run_fault_tolerant(looping_app, 3, storage=InMemoryStorage(),
                             config=C3Config(checkpoint_interval=2.5e-4))
    res = run_fault_tolerant(
        looping_app, 3, storage=storage,
        config=C3Config(checkpoint_interval=2.5e-4),
        fault_plan=FaultPlan([FaultSpec(rank=1, at_time=8e-4)]))
    assert res.restarts == 1
    assert res.returns == ref.returns


# ---------------------------------------------------------------------------
# Torn lines: kill mid-drain / mid-commit must fall back
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kill", [dict(in_drain=2), dict(at_commit=2)])
def test_kill_during_line2_falls_back_to_line1(kill):
    """A rank killed while line 2 drains (or right before its marker is
    written) leaves a torn line; recovery must restore line 1 and still
    produce the failure-free answer bitwise."""
    machine = MACHINES["lemieux"]
    app = lambda ctx: looping_app(ctx, niter=16, work=5e-4)  # noqa: E731
    ref = run_fault_tolerant(app, 2, machine=machine,
                             storage=InMemoryStorage(),
                             config=C3Config(checkpoint_interval=2e-3))
    storage = InMemoryStorage()
    res = run_fault_tolerant(
        app, 2, machine=machine, storage=storage,
        config=C3Config(checkpoint_interval=2e-3),
        fault_plan=FaultPlan([FaultSpec(rank=1, **kill)]))
    assert res.restarts == 1
    assert res.returns == ref.returns
    # the fallback really was the previous line
    assert res.stats[0].restored_version == 1


def test_restore_rejects_truncated_section_and_falls_back(tmp_path):
    """Crash-consistency on real files: truncate a section of the newest
    committed line on disk; the validated restore scan must skip it and
    restart from the previous line."""
    storage = DiskStorage(str(tmp_path / "store"))
    result, stats = run_c3(looping_app, 2, storage=storage,
                           config=C3Config(checkpoint_interval=3e-4,
                                           gc_lines=False))
    result.raise_errors()
    golden = result.returns
    n = stats[0].checkpoints_committed
    assert n >= 2
    # tear the newest line under rank 1: marker present, section truncated
    path = f"ckpt/v{n}/rank1/app"  # the scatter layout's section object
    storage.write(path, storage.read(path)[:-3])
    assert not as_store(storage).validate_line(n, 1)
    assert as_store(storage).last_committed_global(2, validate=True) == n - 1

    restarted, rstats = resume_from_manifest(
        looping_app, 2, storage, config=C3Config(checkpoint_interval=3e-4,
                                                 gc_lines=False))
    restarted.raise_errors()
    assert rstats[0].restored_version == n - 1
    assert restarted.returns == golden


# ---------------------------------------------------------------------------
# Recovery-line garbage collection
# ---------------------------------------------------------------------------

def test_gc_retains_at_most_two_lines(storage):
    result, stats = run_c3(looping_app, 3, storage=storage,
                           config=C3Config(checkpoint_interval=2.5e-4))
    result.raise_errors()
    n = stats[0].checkpoints_committed
    assert n >= 3
    cmap = as_store(storage).committed_map()
    for rank in range(3):
        assert len(cmap[rank]) <= 2
        assert cmap[rank][-1] == n
    assert sum(s.gc_deleted_lines for s in stats if s) > 0
    # the newest line is still fully restorable
    assert as_store(storage).last_committed_global(3, validate=True) == n


def test_gc_ablation_switch_retains_history(storage):
    result, stats = run_c3(looping_app, 3, storage=storage,
                           config=C3Config(checkpoint_interval=2.5e-4,
                                           gc_lines=False))
    result.raise_errors()
    n = stats[0].checkpoints_committed
    cmap = as_store(storage).committed_map()
    for rank in range(3):
        assert cmap[rank] == list(range(1, n + 1))
    assert all(s.gc_deleted_lines == 0 for s in stats if s)


def test_gc_never_deletes_restore_target(storage):
    """Across a kill/restart sequence the line recovery needs is always
    on storage — GC's floor only rises with global durable commits."""
    plan = FaultPlan([FaultSpec(rank=0, at_time=6e-4),
                      FaultSpec(rank=1, at_time=1.1e-3)])
    ref = run_fault_tolerant(looping_app, 3, storage=InMemoryStorage(),
                             config=C3Config(checkpoint_interval=2.5e-4))
    res = run_fault_tolerant(looping_app, 3, storage=storage,
                             config=C3Config(checkpoint_interval=2.5e-4),
                             fault_plan=plan)
    assert res.restarts == 2
    assert res.returns == ref.returns
    # steady state after the final execution
    cmap = as_store(storage).committed_map()
    assert all(len(v) <= 2 for v in cmap.values())


def test_gc_respects_incremental_chain(storage):
    """With incremental checkpointing, GC must never break the decode
    chain: everything back to the newest globally-committed full save
    stays on storage."""

    def sparse_app(ctx):
        comm = ctx.comm
        r, s = ctx.rank, ctx.size
        if ctx.first_time("setup"):
            ctx.state.big = np.zeros(2048)
            ctx.state.acc = 0.0
            ctx.done("setup")
        for it in ctx.range("i", 14):
            ctx.checkpoint()
            ctx.state.big[it] = float(it + r)
            comm.Send(np.array([float(it)]), dest=(r + 1) % s, tag=1)
            buf = np.zeros(1)
            comm.Recv(buf, source=(r - 1) % s, tag=1)
            ctx.state.acc += float(buf[0])
            ctx.compute(1e-4)
        return round(float(ctx.state.big.sum() + ctx.state.acc), 9)

    ref = run_original(sparse_app, 2)
    ref.raise_errors()
    T = ref.virtual_time
    res = run_fault_tolerant(
        sparse_app, 2, storage=storage,
        config=C3Config(checkpoint_interval=T * 0.1, incremental=True,
                        incremental_full_interval=3),
        fault_plan=FaultPlan([FaultSpec(rank=0, at_time=T * 0.8)]))
    assert res.restarts == 1
    assert res.returns == ref.returns
    assert res.stats[0].restored_version >= 2
    # GC ran, but every line of the live chain survived (the restore
    # above would have failed otherwise); retention is bounded by the
    # full-save interval, not unbounded history
    cmap = as_store(storage).committed_map()
    assert all(len(v) <= 4 for v in cmap.values())
