"""Larger-rank sanity: protocol stays correct as the job widens.

The paper's scalability claim is about overhead, tested in the benches;
these tests verify functional correctness at the widest rank counts the
thread engine runs comfortably.
"""

import numpy as np
import pytest

from repro.apps import APPS
from repro.core import C3Config, run_c3, run_fault_tolerant, run_original
from repro.mpi import FaultPlan, FaultSpec, run_job
from repro.storage import InMemoryStorage


@pytest.mark.parametrize("nprocs", [16, 24])
def test_ring_recovery_wide(nprocs):
    app = APPS["ring"]
    ref = run_original(app, nprocs, wall_timeout=120)
    ref.raise_errors()
    T = ref.virtual_time
    res = run_fault_tolerant(
        app, nprocs, storage=InMemoryStorage(),
        config=C3Config(checkpoint_interval=T * 0.2),
        fault_plan=FaultPlan([FaultSpec(rank=nprocs // 2, at_time=T * 0.6)]),
        wall_timeout=180)
    assert res.returns == ref.returns


def test_checkpoint_commits_at_16_ranks():
    app = APPS["CG"]
    storage = InMemoryStorage()
    result, stats = run_c3(app, 16, storage=storage,
                           config=C3Config(checkpoint_interval=2e-4),
                           wall_timeout=180)
    result.raise_errors()
    assert min(s.checkpoints_committed for s in stats if s) >= 1
    # all 16 ranks committed the same set of lines
    from repro.storage import as_store
    assert as_store(storage).last_committed_global(16) >= 1


def test_ring_exchange_smoke_64_ranks():
    """64-rank smoke: ring shifts + a wildcard exchange phase stay correct
    under the signature-indexed mailbox at a width the timeout-polling
    engine could not reach practically."""
    nprocs = 64

    def main(mpi):
        comm = mpi.COMM_WORLD
        rank, size = mpi.rank, mpi.size
        right, left = (rank + 1) % size, (rank - 1) % size
        token = np.array([float(rank)])
        recv = np.zeros(1)
        total = 0.0
        # three ring shifts on the exact-signature fast path
        for step in range(3):
            comm.Send(token, dest=right, tag=step)
            comm.Recv(recv, source=left, tag=step)
            total += float(recv[0])
            token = recv.copy()
        # wildcard exchange phase: everyone reports to rank 0
        if rank == 0:
            inbox = np.zeros(1)
            seen = set()
            for _ in range(size - 1):
                st = comm.Recv(inbox, source=mpi.ANY_SOURCE, tag=99)
                seen.add(st.source)
            assert seen == set(range(1, size))
        else:
            comm.Send(np.array([float(rank)]), dest=0, tag=99)
        out = np.zeros(1)
        comm.Allreduce(np.array([total]), out, mpi.SUM)
        return float(out[0])

    result = run_job(nprocs, main, wall_timeout=120)
    result.raise_errors()
    assert result.failure is None
    assert len(set(result.returns)) == 1  # allreduce agreed everywhere


def test_control_messages_scale_linearly_per_checkpoint():
    """Each checkpoint costs each rank exactly (p-1) Checkpoint-Initiated
    sends (the any-process protocol has no extra coordination rounds;
    in particular the GC floor is read from the storage manifest, not
    broadcast)."""
    app = APPS["ring"]
    for nprocs in (4, 8):
        storage = InMemoryStorage()
        result, stats = run_c3(
            app, nprocs, storage=storage,
            config=C3Config(checkpoint_interval=1e-4, max_checkpoints=1),
            wall_timeout=120)
        result.raise_errors()
        st = [s for s in stats if s]
        committed = min(s.checkpoints_committed for s in st)
        assert committed == 1
        for s in st:
            # announcements sent + announcements received
            assert s.control_msgs == 2 * (nprocs - 1)
