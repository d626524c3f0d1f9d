"""``ccc: call`` and the ``while`` form of ``ccc: loop`` under the
recovery campaign, at every kill timing.

No registered kernel uses either directive, so a small ring kernel that
uses both is registered for the duration of each test and run through
the same scenario pipeline the campaign CLI runs: its payload comes from
a call-guard (skipped on restart, the saved result reused) and its main
loop is a resumable ``while`` over a saved cursor.
"""

import numpy as np
import pytest

from repro.apps import APPS
from repro.apps.kernels import checksum
from repro.harness import campaign
from repro.harness.campaign import KILL_TIMINGS, build_matrix, run_campaign
from repro.harness.runner import resolve_kills
from repro.mpi.ops import SUM
from repro.precompiler import instrument

NAME = "call-while-ring"


def ring_payload(payload, rank):
    return np.arange(payload, dtype=np.float64) * (rank + 1)


@instrument
def call_while_ring(ctx, payload=8, niter=10):
    # ccc: save(total, step)
    total = 0.0
    step = 0
    # ccc: setup-end
    comm = ctx.comm
    rank, size = ctx.rank, ctx.size
    right, left = (rank + 1) % size, (rank - 1) % size
    # ccc: call(init_x)
    x = ring_payload(payload, rank)
    # ccc: loop(cursor)
    while step < niter:
        # ccc: checkpoint
        comm.Send(x, dest=right, tag=1)
        buf = np.empty(payload)
        comm.Recv(buf, source=left, tag=1)
        x = buf * 0.99 + step
        out = np.zeros(1)
        comm.Allreduce(np.array([float(x.sum())]), out, SUM)
        total += float(out[0])
        ctx.compute(1e-4)
        step = step + 1
    return checksum(x, [total])


@pytest.mark.parametrize("kill", sorted(KILL_TIMINGS))
def test_survives_every_kill_timing(kill, monkeypatch):
    monkeypatch.setitem(APPS, NAME, call_while_ring)
    monkeypatch.setattr(campaign, "COLLECTIVE_APPS",
                        campaign.COLLECTIVE_APPS | {NAME})
    kills = resolve_kills(KILL_TIMINGS[kill][0](4), 4)
    storage = "wal" if kills.needs_wal else "memory"
    (scenario,) = build_matrix([NAME], ["testing"], [kill], storage=storage)
    row = run_campaign([scenario], parallel=False).rows[0]
    assert row["passed"], row["failure"]
    if kills.deterministic:
        assert row["restarts"] >= 1
        assert row["verified_recovery"] and row["verified_clean"]
