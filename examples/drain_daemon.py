#!/usr/bin/env python
"""Storage example: asynchronous off-cluster drain (Section 6.4).

Writing checkpoints to node-local disk is fast but not fault-tolerant by
itself; writing synchronously to an off-cluster disk stalls the
application.  The PSC-style answer C3 integrates with is an external
daemon that drains local checkpoint files to remote storage over a
secondary network.  This example takes a real recovery line with C3, then
models the drain and reports when the line became durable off-cluster and
what a synchronous remote write would have cost the application instead.

Run: ``python examples/drain_daemon.py``
"""

from repro import C3Config, InMemoryStorage, run_c3
from repro.apps.ft import ft
from repro.mpi.timemodel import LEMIEUX
from repro.storage import DrainDaemon, as_store

NPROCS = 8
PARAMS = dict(local_rows=16, row_len=128, niter=8)


def app(ctx):
    return ft(ctx, **PARAMS)


def main() -> None:
    storage = InMemoryStorage()
    result, stats = run_c3(
        app, NPROCS, machine=LEMIEUX, storage=storage,
        config=C3Config(checkpoint_interval=1e-3, max_checkpoints=1))
    result.raise_errors()
    store = as_store(storage)
    version = store.last_committed_global(NPROCS)
    assert version is not None, "no committed recovery line"
    sizes = [store.checkpoint_bytes(version, r) for r in range(NPROCS)]
    commit_times = [s.last_commit_time for s in stats if s]
    print(f"recovery line v{version}: "
          f"{sum(sizes) / 1e6:.2f} MB across {NPROCS} ranks")

    daemon = DrainDaemon(LEMIEUX, drain_streams=4)
    report = daemon.drain(commit_times, sizes)
    print(f"local writes done at:      {max(report.local_done) * 1e3:.3f} ms")
    print(f"durable off-cluster at:    {report.line_durable_at * 1e3:.3f} ms")
    print(f"synchronous remote write would have stalled the application "
          f"{report.synchronous_penalty * 1e3:.3f} ms per checkpoint")
    assert report.line_durable_at >= max(report.local_done)
    print("drain schedule consistent — OK")


if __name__ == "__main__":
    main()
