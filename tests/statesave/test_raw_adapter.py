"""The original-mode communicator surface.

Without C3, ``ctx.comm`` is the runtime's ``COMM_WORLD`` itself; it and
every communicator created from it offer each call the C3 communicator
does, so one application runs unchanged in both modes.
"""

import numpy as np

from repro.core.comms import C3CartComm, C3Comm
from repro.mpi import DOUBLE
from repro.statesave.context import Context
from repro.testutil import run


def _public(cls):
    return {name for name in dir(cls) if not name.startswith("_")}


def test_adapter_passthrough_and_identity():
    def main(mpi):
        ctx = Context(mpi)
        assert ctx.comm is mpi.COMM_WORLD
        return (ctx.comm.rank, ctx.comm.size, ctx.rank, ctx.size)

    result = run(3, main)
    assert result.returns[1] == (1, 3, 1, 3)


def test_adapter_wraps_created_communicators():
    def main(mpi):
        ctx = Context(mpi)
        world = ctx.comm
        dup = world.Dup()
        split = world.Split(color=0, key=ctx.rank)
        cart = world.Cart_create((mpi.size,), (True,))
        missing = {name: sorted(n for n in _public(cls)
                                if not hasattr(comm, n))
                   for name, comm, cls in (("world", world, C3Comm),
                                           ("dup", dup, C3Comm),
                                           ("split", split, C3Comm),
                                           ("cart", cart, C3CartComm))}
        return {k: v for k, v in missing.items() if v}

    assert run(2, main).returns == [{}, {}]


def test_adapter_split_undefined_color():
    def main(mpi):
        ctx = Context(mpi)
        sub = ctx.comm.Split(color=0 if ctx.rank == 0 else -1)
        return sub is None

    assert run(2, main).returns == [False, True]


def test_adapter_wait_family():
    def main(mpi):
        ctx = Context(mpi)
        comm = ctx.comm
        r, s = ctx.rank, ctx.size
        bufs = [np.zeros(1), np.zeros(1)]
        reqs = [comm.Irecv(bufs[i], source=(r - 1) % s, tag=i)
                for i in range(2)]
        for i in range(2):
            comm.Send(np.array([float(i)]), dest=(r + 1) % s, tag=i)
        idx, st = comm.Waitany(reqs)
        done, st2 = comm.Test(reqs[1 - idx])
        if not done:
            comm.Wait(reqs[1 - idx])
        # Waitall / Waitsome, on a created communicator
        dup = comm.Dup()
        more = [np.zeros(1) for _ in range(3)]
        reqs = [dup.Irecv(more[i], source=(r - 1) % s, tag=i)
                for i in range(3)]
        for i in range(3):
            dup.Send(np.array([10.0 + i]), dest=(r + 1) % s, tag=i)
        indices, statuses = dup.Waitsome(reqs[:1])
        assert indices == [0] and statuses[0].tag == 0
        assert [st.tag for st in dup.Waitall(reqs[1:])] == [1, 2]
        return sorted([bufs[0][0], bufs[1][0]]) + [b[0] for b in more]

    assert run(3, main).returns[0] == [0.0, 1.0, 10.0, 11.0, 12.0]


def test_adapter_datatype_constructors():
    def main(mpi):
        ctx = Context(mpi)
        vec = ctx.comm.Type_vector(2, 1, 2, DOUBLE)
        vec.Commit()
        a = np.arange(4.0)
        return np.frombuffer(vec.pack(a, 1), dtype=np.float64).tolist()

    assert run(1, main).returns[0] == [0.0, 2.0]


def test_adapter_cart_shift():
    def main(mpi):
        ctx = Context(mpi)
        cart = ctx.comm.Cart_create((mpi.size,), (True,))
        return cart.Shift(0, 1)

    result = run(4, main)
    assert result.returns[0] == (3, 1)
