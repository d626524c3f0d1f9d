"""Benches for the extensions beyond the paper's implementation status:
incremental checkpointing (their future work) and the drain daemon (their
PSC integration)."""

import numpy as np
from conftest import run_once

from repro.core import C3Config, run_c3
from repro.storage import DrainDaemon, InMemoryStorage, as_store
from repro.mpi.timemodel import LEMIEUX


def _sparse_app(ctx):
    comm = ctx.comm
    r, s = ctx.rank, ctx.size
    if ctx.first_time("setup"):
        ctx.state.big = np.zeros(128 * 1024 // 8)
        ctx.done("setup")
    for it in ctx.range("i", 16):
        ctx.checkpoint()
        ctx.state.big[it * 8] = float(it)
        comm.Barrier()
        ctx.compute(1e-4)
    return True


def _compare_incremental():
    out = {}
    for name, incr in (("full", False), ("incremental", True)):
        storage = InMemoryStorage()
        # gc_lines=False: every committed line is measured after the
        # run, so recovery-line GC must not have deleted it
        result, stats = run_c3(
            _sparse_app, 4, storage=storage,
            config=C3Config(checkpoint_interval=3e-4, incremental=incr,
                            incremental_full_interval=100,
                            gc_lines=False))
        result.raise_errors()
        committed = min(s.checkpoints_committed for s in stats if s)
        sizes = [as_store(storage).checkpoint_bytes(v, 0)
                 for v in range(1, committed + 1)]
        out[name] = {"committed": committed, "sizes": sizes,
                     "total_bytes": storage.written_bytes}
    return out


def test_incremental_checkpoint_sizes(benchmark):
    out = run_once(benchmark, _compare_incremental)
    print()
    print("Extension: incremental checkpointing (Section 8 future work)")
    for name, row in out.items():
        ks = [f"{s / 1024:.1f}k" for s in row["sizes"]]
        print(f"  {name:12s} checkpoints={row['committed']} "
              f"sizes={ks} stored={row['total_bytes'] / 1024:.1f}k")
    assert out["incremental"]["committed"] >= 2
    # after the first full save, incremental checkpoints are much smaller
    assert (out["incremental"]["sizes"][1]
            < out["full"]["sizes"][1] / 4)


def _drain_experiment():
    storage = InMemoryStorage()
    result, stats = run_c3(
        _sparse_app, 8, machine=LEMIEUX, storage=storage,
        config=C3Config(checkpoint_interval=6e-4, max_checkpoints=1))
    result.raise_errors()
    store = as_store(storage)
    version = store.last_committed_global(8)
    sizes = [store.checkpoint_bytes(version, r) for r in range(8)]
    times = [s.last_commit_time for s in stats if s]
    report = DrainDaemon(LEMIEUX, drain_streams=4).drain(times, sizes)
    return {
        "local_done_ms": max(report.local_done) * 1e3,
        "durable_ms": report.line_durable_at * 1e3,
        "sync_penalty_ms": report.synchronous_penalty * 1e3,
    }


def test_drain_daemon_model(benchmark):
    out = run_once(benchmark, _drain_experiment)
    print()
    print("Extension: asynchronous off-cluster drain (Section 6.4)")
    print(f"  local writes done: {out['local_done_ms']:.3f} ms, "
          f"durable off-cluster: {out['durable_ms']:.3f} ms, "
          f"avoided per-checkpoint stall: {out['sync_penalty_ms']:.3f} ms")
    assert out["durable_ms"] >= out["local_done_ms"]
