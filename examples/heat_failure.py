#!/usr/bin/env python
"""Domain example: a heat-diffusion solver surviving repeated failures.

A 1D rod with fixed end temperatures is integrated explicitly across 8
ranks.  Two different ranks are killed at two different times during the
run; the job restarts from the last committed recovery line each time and
still converges to the same temperature profile as the failure-free run
(the steady state is a linear ramp between the boundary temperatures).

Run: ``python examples/heat_failure.py``
"""

import numpy as np

from repro import (
    C3Config, FaultPlan, FaultSpec, InMemoryStorage, run_fault_tolerant,
    run_original,
)
from repro.apps import APPS

NPROCS = 8
PARAMS = dict(local_n=24, niter=120, t_left=100.0, t_right=0.0)


def app(ctx):
    return APPS["heat"](ctx, **PARAMS)


def main() -> None:
    ref = run_original(app, NPROCS)
    ref.raise_errors()
    T = ref.virtual_time
    print(f"failure-free run: digest={ref.returns[0]:.6f}  vt={T:.4f}s")

    plan = FaultPlan([
        FaultSpec(rank=3, at_time=T * 0.35, reason="node 3 power loss"),
        FaultSpec(rank=6, at_time=T * 0.7, reason="node 6 NIC failure"),
    ])
    res = run_fault_tolerant(
        app, NPROCS, storage=InMemoryStorage(),
        config=C3Config(checkpoint_interval=T * 0.1), fault_plan=plan,
    )
    print(f"with 2 failures:  digest={res.returns[0]:.6f}  "
          f"restarts={res.restarts}")
    for i, failed in enumerate(res.history):
        print(f"  attempt {i}: killed by {failed.failure}")
    assert abs(res.returns[0] - ref.returns[0]) < 1e-9
    print("temperature profile identical to the failure-free run — OK")


if __name__ == "__main__":
    main()
