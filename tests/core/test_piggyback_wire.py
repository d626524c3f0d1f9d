"""Wire-level piggyback accounting in the engine."""

import numpy as np
import pytest

from repro.mpi import TESTING, run_job


def test_piggyback_bytes_charged_on_wire():
    """An envelope with a piggyback costs extra wire time proportional to
    the piggyback's size — the term Tables 2-3's overheads come from."""
    machine = TESTING.with_overrides(latency=0.0, bandwidth=1e3,
                                     call_overhead=0.0,
                                     piggyback_overhead=0.0)

    def main(mpi, nbytes):
        comm = mpi.COMM_WORLD
        if comm.rank == 0:
            comm.send_packed(b"x", 1, 0, count=1, type_name="MPI_BYTE",
                             piggyback=0 if nbytes else None,
                             piggyback_bytes=nbytes)
            return 0.0
        buf = np.zeros(1, dtype=np.uint8)
        req = comm.Irecv(buf, source=0, tag=0)
        req.wait()
        return mpi.Wtime()

    bare = run_job(2, main, args=(0,), machine=machine)
    bare.raise_errors()
    heavy = run_job(2, main, args=(100,), machine=machine)
    heavy.raise_errors()
    # 100 piggyback bytes at 1 kB/s = 0.1 s extra
    assert heavy.returns[1] - bare.returns[1] == pytest.approx(0.1, rel=0.05)


def test_piggyback_platform_overhead_charged():
    machine = TESTING.with_overrides(latency=0.0, bandwidth=1e12,
                                     call_overhead=0.0,
                                     piggyback_overhead=0.25)

    def main(mpi):
        comm = mpi.COMM_WORLD
        if comm.rank == 0:
            comm.send_packed(b"x", 1, 0, count=1, type_name="MPI_BYTE",
                             piggyback=0, piggyback_bytes=1)
            return 0.0
        buf = np.zeros(1, dtype=np.uint8)
        comm.Irecv(buf, source=0, tag=0).wait()
        return mpi.Wtime()

    result = run_job(2, main, machine=machine)
    result.raise_errors()
    assert result.returns[1] >= 0.25


def test_plain_messages_carry_no_piggyback_cost():
    machine = TESTING.with_overrides(latency=0.0, bandwidth=1e3,
                                     call_overhead=0.0,
                                     piggyback_overhead=10.0)

    def main(mpi):
        comm = mpi.COMM_WORLD
        if comm.rank == 0:
            comm.Send(np.zeros(1, dtype=np.uint8), dest=1, tag=0)
            return 0.0
        buf = np.zeros(1, dtype=np.uint8)
        comm.Irecv(buf, source=0, tag=0).wait()
        return mpi.Wtime()

    result = run_job(2, main, machine=machine)
    result.raise_errors()
    assert result.returns[1] < 0.1  # no 10-second penalty
