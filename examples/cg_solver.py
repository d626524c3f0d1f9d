#!/usr/bin/env python
"""Domain example: the NPB-style CG kernel under C3, with overhead report.

Runs the conjugate-gradient kernel three ways on the Lemieux machine
model — original, C3 without checkpoints, C3 with checkpoints — and
prints the overhead decomposition the way Tables 2 and 4 report it, plus
a failure/recovery demonstration.

Run: ``python examples/cg_solver.py``
"""

from repro import (
    C3Config, FaultPlan, FaultSpec, InMemoryStorage, run_c3,
    run_fault_tolerant, run_original,
)
from repro.apps import APPS
from repro.mpi.timemodel import LEMIEUX

NPROCS = 8
PARAMS = dict(local_n=48, nnz_per_row=8, niter=16, work_scale=232.0)


def app(ctx):
    return APPS["CG"](ctx, **PARAMS)


def main() -> None:
    orig = run_original(app, NPROCS, machine=LEMIEUX)
    orig.raise_errors()
    t1 = orig.virtual_time
    print(f"original:               {t1 * 1e3:9.3f} ms")

    no_ckpt, _ = run_c3(app, NPROCS, machine=LEMIEUX,
                        storage=InMemoryStorage(), config=C3Config())
    no_ckpt.raise_errors()
    t2 = no_ckpt.virtual_time
    print(f"C3, no checkpoints:     {t2 * 1e3:9.3f} ms   "
          f"(+{(t2 - t1) / t1 * 100:.2f}% protocol overhead)")

    with_ckpt, stats = run_c3(
        app, NPROCS, machine=LEMIEUX, storage=InMemoryStorage(),
        config=C3Config(checkpoint_interval=t1 * 0.4, max_checkpoints=1))
    with_ckpt.raise_errors()
    t3 = with_ckpt.virtual_time
    st = stats[0]
    print(f"C3, one checkpoint:     {t3 * 1e3:9.3f} ms   "
          f"(checkpoint cost {(t3 - t2) * 1e3:.3f} ms, "
          f"{st.last_checkpoint_bytes / 1e3:.1f} kB/proc)")

    # Kill late enough that the overlapped write-back of line 1 has
    # drained to the node disks and committed: a line is only
    # restart-eligible once its background write completes — with four
    # ranks sharing each node's 35 MB/s disk the drain takes a few
    # virtual ms here — and a kill mid-drain leaves a torn line, so
    # recovery would fall back (to a cold start for line 1, still
    # producing the right answer).
    res = run_fault_tolerant(
        app, NPROCS, machine=LEMIEUX, storage=InMemoryStorage(),
        config=C3Config(checkpoint_interval=t1 * 0.25),
        fault_plan=FaultPlan([FaultSpec(rank=5, at_time=t1 * 0.95)]))
    print(f"with rank-5 failure:    answer matches: "
          f"{abs(res.returns[0] - orig.returns[0]) < 1e-9}   "
          f"(recovered from v{res.stats[0].restored_version})")


if __name__ == "__main__":
    main()
