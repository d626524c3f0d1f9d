"""Closed-form collectives against the point-to-point specification.

Every collective algorithm is one op generator run by two drivers
(DESIGN.md §2.5).  A job takes the closed form on the cooperative engine
with no armed fault spec; the same job with one spec that can never fire
(``at_epoch`` in a job without the C3 layer) runs every collective
point-to-point.  The two must agree bitwise on everything a run reports:
results, every rank's clock after every collective, sent counts and
bytes, operation and collective counts — and fail alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi import (
    LEMIEUX, MAX, MIN, PROD, SUM, FaultPlan, FaultSpec, run_job,
)
from repro.mpi import collectives as coll
from repro.mpi.engine import Engine

DTYPES = (np.float64, np.int64, np.int32, np.uint8)
OPS = (SUM, MAX, MIN, PROD)


def _p2p_plan() -> FaultPlan:
    """A spec that can never fire: the job keeps the p2p driver."""
    return FaultPlan([FaultSpec(rank=0, at_epoch=10 ** 9)])


@pytest.fixture
def evaluations(monkeypatch):
    """Counts closed-form evaluations, to prove which driver ran."""
    calls = []
    original = coll._evaluate

    def counted(rv):
        calls.append(len(rv.comms))
        original(rv)
    monkeypatch.setattr(coll, "_evaluate", counted)
    return calls


def _both(nprocs, main, evaluations, **kw):
    closed = run_job(nprocs, main, machine=LEMIEUX, wall_timeout=60, **kw)
    ran_closed = len(evaluations)
    p2p = run_job(nprocs, main, machine=LEMIEUX, wall_timeout=60,
                  fault_plan=_p2p_plan(), **kw)
    assert len(evaluations) == ran_closed, "p2p job took the closed form"
    return closed, p2p, ran_closed


def _assert_bitwise(closed, p2p):
    closed.raise_errors()
    p2p.raise_errors()
    assert closed.returns == p2p.returns
    assert [c.hex() for c in closed.clocks] == [c.hex() for c in p2p.clocks]
    assert closed.sent_counts == p2p.sent_counts
    assert closed.sent_bytes == p2p.sent_bytes


# ---------------------------------------------------------------------------
# The battery: every collective x sizes 1-33 x every root x op x dtype
# ---------------------------------------------------------------------------

_ROOTED = ("bcast", "reduce", "gather", "scatter", "gatherv", "scatterv")


def _battery(mpi):
    """Every converted collective at this job's size, with skewed entry
    clocks: every root, each with one rooted collective (rotating with
    the size, so each rooted collective meets every root across sizes);
    every op x dtype across the reductions.  Returns each step's result
    bytes and clock, and the rank's op and collective counts."""
    comm = mpi.COMM_WORLD
    size, rank = comm.size, comm.rank
    log = []
    step = [0]

    def data(dtype, n=3):
        step[0] += 1
        k = rank * 7 + step[0] * 3
        mpi.compute((k % 11) * 1.3e-6)          # skewed entry clocks
        x = (np.arange(n) + 1.0) * (0.37 * rank + 1.1) + 0.013 * step[0]
        return x if dtype is np.float64 else (x * 10).astype(dtype)

    def note(*bufs):
        log.append([b.tobytes() for b in bufs if b is not None]
                   + [mpi.Wtime().hex()])

    data(np.uint8)
    comm.Barrier()
    note()
    counts = [r % 3 + 1 for r in range(size)]
    for root in range(size):
        kind = _ROOTED[(root + size) % len(_ROOTED)]
        dtype, op = DTYPES[(root + size // 2) % 4], OPS[root % 4]
        mine = rank == root
        if kind == "bcast":
            out = data(dtype) if mine else np.zeros(3, dtype=dtype)
            comm.Bcast(out, root=root)
        elif kind == "reduce":
            out = np.zeros(3, dtype=dtype) if mine else None
            comm.Reduce(data(dtype), out, op, root=root)
        elif kind == "gather":
            out = np.zeros((size, 2), dtype=dtype) if mine else None
            comm.Gather(data(dtype, 2), out, root=root)
        elif kind == "scatter":
            out = np.zeros(2, dtype=dtype)
            comm.Scatter(data(dtype, 2 * size) if mine else None, out,
                         root=root)
        elif kind == "gatherv":
            out = np.zeros(sum(counts), dtype=dtype) if mine else None
            comm.Gatherv(data(dtype, counts[rank]), out, counts, root=root)
        else:
            out = np.zeros(counts[rank], dtype=dtype)
            comm.Scatterv(data(dtype, sum(counts)) if mine else None, out,
                          counts, root=root)
        note(out)
    for k, op in enumerate(OPS):            # all 16 op x dtype across sizes
        dtype = DTYPES[(k + size) % 4]
        out = np.zeros(3, dtype=dtype)
        comm.Allreduce(data(dtype), out, op)
        note(out)
    out = np.zeros(3, dtype=DTYPES[size % 4])
    comm.Scan(data(out.dtype.type), out, OPS[size % 4])
    note(out)
    fold = mpi.Op_create(lambda a, b: a * 3.0 + b, commute=False)
    out = np.zeros(3)                       # the ordered (gather-and-fold) path
    comm.Reduce(data(np.float64), out, fold, root=size // 2)
    note(out)
    comm.Allreduce(data(np.float64), out, fold)
    note(out)
    dtype = DTYPES[size % 4]
    out = np.zeros((size, 2), dtype=dtype)
    comm.Allgather(data(dtype, 2), out)
    note(out)
    dtype = DTYPES[(size + 1) % 4]
    out = np.zeros(2 * size, dtype=dtype)
    comm.Alltoall(data(dtype, 2 * size), out)
    note(out)
    dtype = DTYPES[(size + 2) % 4]
    sendcounts = [(rank + d) % 3 + 1 for d in range(size)]
    recvcounts = [(s + rank) % 3 + 1 for s in range(size)]
    out = np.zeros(sum(recvcounts), dtype=dtype)
    comm.Alltoallv(data(dtype, sum(sendcounts)), sendcounts, out, recvcounts)
    note(out)
    return log, mpi._ctx.op_count, mpi._ctx.collective_count


@pytest.mark.parametrize("nprocs", range(1, 34))
def test_battery_closed_form_matches_p2p(nprocs, evaluations):
    closed, p2p, ran_closed = _both(nprocs, _battery, evaluations)
    assert ran_closed if nprocs > 1 else not ran_closed
    _assert_bitwise(closed, p2p)


# ---------------------------------------------------------------------------
# Property: random collectives after random compute, world and a split
# ---------------------------------------------------------------------------

_KINDS = ("barrier", "bcast", "reduce", "allreduce", "scan", "gather",
          "scatter", "allgather", "alltoall")


def _program(script, split):
    def main(mpi):
        world = mpi.COMM_WORLD
        comm = world.Split(color=world.rank % 2, key=-world.rank) \
            if split else world
        size, rank = comm.size, comm.rank
        out = []
        for i, (kind, delays, root, dtype_i) in enumerate(script):
            mpi.compute(delays[world.rank % len(delays)])
            dtype = DTYPES[dtype_i]
            root %= size
            x = ((np.arange(4) + 1.5) * (world.rank + 0.3 * i)).astype(dtype)
            if kind == "barrier":
                comm.Barrier()
                res = np.zeros(0)
            elif kind == "bcast":
                res = x if rank == root else np.zeros(4, dtype=dtype)
                comm.Bcast(res, root=root)
            elif kind == "reduce":
                res = np.zeros(4, dtype=dtype)
                comm.Reduce(x, res, OPS[i % 4], root=root)
            elif kind == "allreduce":
                res = np.zeros(4, dtype=dtype)
                comm.Allreduce(x, res, OPS[i % 4])
            elif kind == "scan":
                res = np.zeros(4, dtype=dtype)
                comm.Scan(x, res, OPS[i % 4])
            elif kind == "gather":
                res = np.zeros((size, 4), dtype=dtype)
                comm.Gather(x, res if rank == root else None, root=root)
            elif kind == "scatter":
                res = np.zeros(4, dtype=dtype)
                comm.Scatter(np.tile(x, size) if rank == root else None,
                             res, root=root)
            elif kind == "allgather":
                res = np.zeros((size, 4), dtype=dtype)
                comm.Allgather(x, res)
            else:
                res = np.zeros(4 * size, dtype=dtype)
                comm.Alltoall(np.tile(x, size), res)
            out.append((res.tobytes(), mpi.Wtime().hex()))
        return out, mpi._ctx.op_count, mpi._ctx.collective_count
    return main


@settings(max_examples=60, deadline=None)
@given(
    nprocs=st.integers(2, 7),
    split=st.booleans(),
    script=st.lists(
        st.tuples(st.sampled_from(_KINDS),
                  st.lists(st.floats(0.0, 1e-3), min_size=1, max_size=4),
                  st.integers(0, 6), st.integers(0, 3)),
        min_size=1, max_size=5),
)
def test_skewed_entry_clocks_property(nprocs, split, script):
    """Property: any short sequence of collectives, entered at skewed
    clocks, on the world or a split communicator, evaluates bitwise like
    the p2p schedule."""
    main = _program(script, split)
    closed = run_job(nprocs, main, machine=LEMIEUX, wall_timeout=60)
    p2p = run_job(nprocs, main, machine=LEMIEUX, wall_timeout=60,
                  fault_plan=_p2p_plan())
    _assert_bitwise(closed, p2p)


# ---------------------------------------------------------------------------
# Error parity: the same class on the same rank, in that rank's fiber
# ---------------------------------------------------------------------------

def _strided(fill):
    view = np.zeros((2, 3))[:, :2]
    view[...] = fill
    return view


def _noncontiguous_bcast(mpi):
    buf = _strided(1.0 if mpi.rank == 0 else 0.0)
    mpi.COMM_WORLD.Bcast(buf, root=0)


def _noncontiguous_recv_on_two(mpi):
    out = _strided(0.0) if mpi.rank == 2 else np.zeros((2, 2))
    mpi.COMM_WORLD.Allreduce(np.ones((2, 2)), out, SUM)


def _short_buffer_on_one(mpi):
    buf = np.ones(4) if mpi.rank != 1 else np.zeros(2)
    mpi.COMM_WORLD.Bcast(buf, root=0)


def _freed_on_one(mpi):
    comm = mpi.COMM_WORLD.Dup()
    if mpi.rank == 1:
        comm.Free()
    comm.Allreduce(np.ones(1), np.zeros(1), SUM)


def _unsupported_dtype(mpi):
    mpi.COMM_WORLD.Bcast(np.ones(2, dtype=np.float16), root=0)


def _unsupported_dtype_on_receiver(mpi):
    dtype = np.float16 if mpi.rank == 2 else np.float64
    mpi.COMM_WORLD.Bcast(np.zeros(2, dtype=dtype), root=0)


def _bad_root(mpi):
    fold = mpi.Op_create(lambda a, b: a - b, commute=False)
    mpi.COMM_WORLD.Reduce(np.ones(1), np.zeros(1), fold, root=7)


@pytest.mark.parametrize("main,rank,error", [
    (_noncontiguous_bcast, 0, "InvalidDatatypeError"),
    (_noncontiguous_recv_on_two, 2, "InvalidDatatypeError"),
    (_short_buffer_on_one, 1, "TruncationError"),
    (_freed_on_one, 1, "InvalidCommunicatorError"),
    (_unsupported_dtype, 0, "InvalidDatatypeError"),
    (_unsupported_dtype_on_receiver, 2, "InvalidDatatypeError"),
    (_bad_root, 0, "InvalidRankError"),
], ids=lambda v: getattr(v, "__name__", None))
def test_errors_raise_alike_on_the_same_rank(main, rank, error, evaluations):
    closed, p2p, ran_closed = _both(3, main, evaluations)
    assert ran_closed
    for result in (closed, p2p):
        assert [r for r, _tb in result.errors] == [rank]
        last = result.errors[0][1].strip().splitlines()[-1]
        assert last.startswith(f"repro.mpi.errors.{error}:"), last
        assert result.failure is None


def test_error_before_the_first_op_stays_in_its_fiber():
    """A rank whose prologue raises never deposits; the parked ranks
    unwind through the scheduler's wait with JobAborted."""
    def main(mpi):
        recv = np.zeros((3, 2)) if mpi.rank != 1 else np.zeros(5)
        mpi.COMM_WORLD.Allgather(np.ones(2), recv)

    result = run_job(3, main, wall_timeout=30)
    assert [r for r, _tb in result.errors] == [1]
    assert "ValueError" in result.errors[0][1]


def test_a_missing_rank_is_a_deadlock_not_a_hang():
    def main(mpi):
        if mpi.rank != 2:
            mpi.COMM_WORLD.Bcast(np.zeros(3), root=0)
        else:
            mpi.COMM_WORLD.Recv(np.zeros(1), source=0, tag=4)

    result = run_job(4, main, wall_timeout=30)
    assert result.errors and "deadlock" in result.errors[0][1]
    assert result.wall_seconds < 5.0


def test_rendezvous_table_is_reset_at_every_launch():
    """A launch that aborted mid-rendezvous leaves nothing behind."""
    def aborts(mpi):
        if mpi.rank == 3:
            raise ValueError("boom")
        mpi.COMM_WORLD.Barrier()

    eng = Engine(4, engine="cooperative")
    assert eng.run(aborts).errors
    assert eng._rendezvous            # the aborted barrier is still open
    result = eng.run(lambda mpi: len(mpi._ctx.engine._rendezvous))
    assert result.returns == [0] * 4


# ---------------------------------------------------------------------------
# The no-copy invariant
# ---------------------------------------------------------------------------

class _SnapshotChannel(coll._Channel):
    """A channel that remembers each sent array's bytes and checks, when
    the receiver takes the message, that its sender has not written it."""

    def append(self, message):
        super().append((message, message[1].tobytes()))

    def popleft(self):
        message, snapshot = super().popleft()
        assert message[1].tobytes() == snapshot, "a sent array was rewritten"
        return message


def test_no_sent_array_is_written_before_it_is_received(monkeypatch,
                                                         evaluations):
    monkeypatch.setattr(coll, "_Channel", _SnapshotChannel)
    for nprocs in (2, 5, 8):
        result = run_job(nprocs, _battery, machine=LEMIEUX, wall_timeout=60)
        result.raise_errors()
    assert evaluations


def test_a_large_bcast_holds_no_payload_copies():
    """Receivers copy straight out of the sender's array: the evaluation
    allocates nothing per message beyond bookkeeping."""
    import tracemalloc

    nbytes = 1 << 20
    peaks = {}

    def main(mpi):
        buf = np.full(nbytes // 8, float(mpi.rank == 0))
        mpi.COMM_WORLD.Barrier()
        if mpi.rank == mpi.size - 1:
            tracemalloc.start()
        mpi.COMM_WORLD.Bcast(buf, root=0)
        if mpi.rank == mpi.size - 1:
            peaks["peak"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return float(buf.sum())

    result = run_job(16, main, wall_timeout=60)
    result.raise_errors()
    assert result.returns == [nbytes / 8] * 16
    # the last rank to arrive evaluates the whole broadcast
    assert peaks["peak"] < nbytes // 4


# ---------------------------------------------------------------------------
# Which driver runs
# ---------------------------------------------------------------------------

def _allreduce(mpi):
    out = np.zeros(1)
    mpi.COMM_WORLD.Allreduce(np.ones(1), out, SUM)
    return float(out[0])


def test_closed_form_only_without_armed_faults(evaluations):
    run_job(4, _allreduce).raise_errors()
    assert evaluations == [4]
    run_job(4, _allreduce, fault_plan=_p2p_plan()).raise_errors()
    assert evaluations == [4]


def test_allreduce_is_one_rendezvous_with_two_tags(evaluations):
    def main(mpi):
        _allreduce(mpi)
        return mpi._ctx.collective_count, mpi._ctx.scratch[
            ("coll_seq", mpi.COMM_WORLD.shadow_id)]

    result = run_job(4, main)
    result.raise_errors()
    assert evaluations == [4]
    assert result.returns == [(2, 2)] * 4


def test_sharded_runs_the_p2p_driver(evaluations):
    """The forked transport (``mpi/sharded.py``) runs the p2p driver."""
    coop = run_job(4, _battery, machine=LEMIEUX)
    shard = run_job(4, _battery, machine=LEMIEUX, engine="processes:2")
    assert evaluations
    _assert_bitwise(coop, shard)


def test_c3_jobs_declare_their_control_traffic(evaluations):
    """Configuration #1 (no timer, no restore) takes the closed form; a
    checkpoint timer keeps the p2p schedule."""
    from repro.core.ccc import run_c3
    from repro.core.protocol import C3Config

    def app(ctx):
        out = np.zeros(1)
        for _ in ctx.range("i", 3):
            ctx.checkpoint()
            ctx.comm.Allreduce(np.ones(1), out, SUM)
        return float(out[0])

    result, _ = run_c3(app, 4, config=C3Config())
    result.raise_errors()
    assert evaluations
    evaluations.clear()
    result, stats = run_c3(app, 4, config=C3Config(checkpoint_interval=1e-6))
    result.raise_errors()
    assert stats[0].checkpoints_started > 0
    assert evaluations == []
