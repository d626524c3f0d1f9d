"""Heat's allocation-free time step (DESIGN.md §6, "The heat step").

Each step writes the new temperatures into the array the previous step
replaced and takes ``delta`` in the old one, through one stencil,
:func:`repro.apps.kernels.diffuse`.  Pinned here: the stencil is
bitwise the expression it replaced, heat returns bitwise what it
returned before it (and so does its annotated source run unmodified,
the ``heat+ccc`` cases), a killed run restarts bitwise, a steady step allocates no rod-sized array, and the two
invariants the recycling relies on — a checkpoint section is serialized
at the pragma, a send's payload is copied at the call.
"""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.apps import heat
from repro.apps.kernels import DIFFUSE_BLOCK, diffuse
from repro.core import C3Config, run_c3, run_fault_tolerant, run_original
from repro.mpi import FaultPlan, FaultSpec, run_job
from repro.statesave import Context
from repro.statesave.checkpointfile import CheckpointReader
from repro.storage import DiskStorage, InMemoryStorage, WalStore

#: ``heat`` is checked against itself; ``heat+ccc`` checks the
#: precompiled heat against its annotated source run as written
HEAT_FORMS = ("heat", "heat+ccc")


def heat_forms(name):
    """(the heat under test, the program it must agree with)."""
    return heat, (heat.__wrapped__ if name.endswith("+ccc") else heat)


def reference_diffuse(u, alpha):
    """The stencil as heat wrote it before :func:`diffuse`."""
    new = u.copy()
    new[1:-1] = u[1:-1] + alpha * (u[:-2] - 2 * u[1:-1] + u[2:])
    return new


class TestDiffuse:
    @pytest.mark.parametrize("n", [2, 3, DIFFUSE_BLOCK, DIFFUSE_BLOCK + 1,
                                   DIFFUSE_BLOCK + 2, 3 * DIFFUSE_BLOCK + 5])
    def test_bitwise_equal_to_the_expression(self, n):
        rng = np.random.default_rng(n)
        u = rng.standard_normal(n) * 1e3
        u[::7] = -u[::7]
        u[::5] = rng.standard_normal(len(u[::5])) * 5e-324  # subnormals
        u[::11] = -np.finfo(np.float64).tiny / 3
        want = reference_diffuse(u, 0.4)
        new = np.full(n, np.nan)
        new[0], new[-1] = u[0], u[-1]
        diffuse(u, new, 0.4)
        assert new.tobytes() == want.tobytes()

    def test_ends_and_input_untouched(self):
        u = np.arange(10.0)
        before = u.copy()
        new = np.full(10, 7.5)
        diffuse(u, new, 0.25)
        assert new[0] == new[-1] == 7.5
        assert u.tobytes() == before.tobytes()


def heat_fingerprint(kernel, nprocs=4, **params):
    """SHA-256 over every rank's return, final rod and ``dmax``."""
    def app(ctx):
        ret = kernel(ctx, **params)
        return (ret.hex(), ctx.state.u.tobytes(),
                float(ctx.state.dmax).hex())

    result = run_original(app, nprocs)
    result.raise_errors()
    digest = hashlib.sha256()
    for ret, u, dmax in result.returns:
        digest.update(ret.encode() + u + dmax.encode())
    return digest.hexdigest()[:32]


def heat_returns(kernel, nprocs=4, **params):
    """Every rank's return, as the hex of its bits."""
    result = run_original(lambda ctx: kernel(ctx, **params), nprocs)
    result.raise_errors()
    return [ret.hex() for ret in result.returns]


#: (local_n, niter) -> fingerprint on 4 ranks, recorded with the
#: allocating step heat had before the recycled one
FINGERPRINTS = {
    (2, 40): "f0c6e7e0f95cd350e448fce4444cf8f9",
    (3, 40): "74e45dab9ed7772aa090ccf7555ce57b",
    (32, 40): "298b1be656008116f5e7861ef0a93fd5",
    (262144, 6): "405814fa28db5298e7a8e72f16589005",
}


@pytest.mark.parametrize("name", HEAT_FORMS)
@pytest.mark.parametrize("local_n,niter", sorted(FINGERPRINTS))
def test_heat_returns_are_pinned(name, local_n, niter):
    app, reference = heat_forms(name)
    assert heat_fingerprint(app, local_n=local_n, niter=niter) == \
        FINGERPRINTS[local_n, niter]
    if reference is not app:  # the source keeps its rod in a local
        assert heat_returns(reference, local_n=local_n, niter=niter) == \
            heat_returns(app, local_n=local_n, niter=niter)


@pytest.mark.parametrize("name", HEAT_FORMS)
def test_killed_heat_restarts_bitwise_on_wal_disk(name, tmp_path):
    """A kill mid-run on real disk: the restarted rank starts with no
    spare array, and the job still ends bitwise on the golden run."""
    params = dict(local_n=262144, niter=12)
    kernel, reference = heat_forms(name)
    app = lambda ctx: kernel(ctx, **params)  # noqa: E731
    golden = run_original(lambda ctx: reference(ctx, **params), 4)
    golden.raise_errors()
    T = golden.virtual_time
    res = run_fault_tolerant(
        app, 4, storage=WalStore(DiskStorage(str(tmp_path))),
        config=C3Config(checkpoint_interval=T * 0.15),
        fault_plan=FaultPlan([FaultSpec(rank=1, at_time=T * 0.6)]),
        wall_timeout=120)
    assert res.restarts == 1
    assert all(s.restored_version for s in res.stats)
    assert res.returns == golden.returns


@pytest.mark.parametrize("name", HEAT_FORMS)
@pytest.mark.parametrize("local_n,nprocs", [(1, 2), (1, 4), (0, 1)])
def test_heat_rejects_a_rod_it_cannot_step(name, local_n, nprocs):
    _, reference = heat_forms(name)
    result = run_original(lambda ctx: reference(ctx, local_n=local_n),
                          nprocs)
    least = 2 if nprocs > 1 else 1
    assert result.errors
    for _rank, tb in result.errors:
        assert f"ValueError: heat needs local_n >= {least} cells per rank" \
            in tb
        assert "IndexError" not in tb


def test_heat_accepts_its_smallest_rods():
    for local_n, nprocs in ((1, 1), (2, 4)):
        run_original(lambda ctx: heat(ctx, local_n=local_n, niter=3),
                     nprocs).raise_errors()


def test_a_steady_heat_step_allocates_no_rod_sized_array():
    """Between two pragmas (one step of each rank) no array the size of
    a rank's rod is allocated: the new rod goes into the recycled one
    and ``delta`` into the old one.  The allocating step peaked at two
    more rods than it kept, the recycled one stays under 1 % of one."""
    local_n = 65536
    rod = local_n * 8
    growth = []

    def pragma(force=False):
        current, peak = tracemalloc.get_traced_memory()
        growth.append(peak - current)
        tracemalloc.reset_peak()

    def main(mpi):
        return heat(Context(mpi, pragma_hook=pragma), local_n=local_n,
                    niter=5)

    gc.collect()
    tracemalloc.start()
    try:
        run_job(2, main, wall_timeout=60).raise_errors()
    finally:
        tracemalloc.stop()
    # growth[i] spans from the previous pragma of either rank; from the
    # third pragma on, both ranks hold their spare array
    steady = growth[3:]
    assert len(steady) == 7
    assert max(steady) < rod // 2, [g / rod for g in steady]


class TestRecyclingInvariants:
    """What makes writing into last step's arrays safe."""

    def test_checkpoint_section_is_serialized_at_the_pragma(self):
        store = WalStore(InMemoryStorage())

        def app(ctx):
            if ctx.first_time("setup"):
                ctx.state.a = np.arange(8.0) + ctx.rank
                ctx.done("setup")
            for step in ctx.range("step", 2):
                ctx.checkpoint(force=step == 0)
                ctx.state.a[:] = -1.0  # right after the pragma returns
                ctx.comm.Barrier()
            return ctx.state.a.tolist()

        result, _ = run_c3(app, 2, storage=store)
        result.raise_errors()
        assert result.returns == [[-1.0] * 8] * 2
        for rank in range(2):
            saved = CheckpointReader(store, 1, rank).load("app")
            assert saved["state"]["a"].tolist() == \
                (np.arange(8.0) + rank).tolist()

    @pytest.mark.parametrize("engine", [None, "processes:2"])
    @pytest.mark.parametrize("c3", [False, True])
    def test_sendrecv_payload_is_copied_at_the_call(self, engine, c3):
        """Rank 0 overwrites its send buffer before rank 1 even posts
        the matching receive."""

        def app(ctx):
            comm = ctx.comm
            got = np.zeros(4)
            if ctx.rank == 0:
                send = np.arange(4.0)
                comm.Sendrecv(send, 1, 7, got, 1, 8)
                send[:] = -1.0
                comm.Barrier()
            else:
                comm.Send(np.ones(4), 0, 8)
                comm.Barrier()
                comm.Recv(got, 0, 7)
            return got.tolist()

        if c3:
            result, _ = run_c3(app, 2, engine=engine)
        else:
            result = run_original(app, 2, engine=engine)
        result.raise_errors()
        assert result.returns == [[1.0] * 4, [0.0, 1.0, 2.0, 3.0]]
