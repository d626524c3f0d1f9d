"""Cooperative scheduler: paper-scale smoke, backend equivalence,
instant deadlock detection, spin fairness, and backend selection."""

import numpy as np
import pytest

from repro.core.ccc import run_original
from repro.apps import heat, ring
from repro.mpi import FaultPlan, FaultSpec, SUM, TESTING, run_job
from repro.mpi.engine import resolve_backend


class TestBackendSelection:
    def test_default_is_cooperative(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_backend(None) == "cooperative"

    def test_aliases(self):
        assert resolve_backend("coop") == "cooperative"
        assert resolve_backend("COOPERATIVE") == "cooperative"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            run_job(2, lambda mpi: mpi.rank, engine="fibers")

    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "processes:2")
        assert resolve_backend(None) == "processes:2"
        # explicit argument beats the environment
        assert resolve_backend("cooperative") == "cooperative"


class TestPaperScaleSmoke:
    """The tentpole: jobs at the paper's true process counts."""

    def test_ring_256_ranks(self):
        result = run_original(ring, 256, app_args=(),
                              machine=TESTING, wall_timeout=120)
        result.raise_errors()
        assert result.failure is None
        assert len(result.returns) == 256
        # every rank returns the same global checksum structure
        assert len({str(r) for r in result.returns}) >= 1
        assert all(c > 0 for c in result.clocks)

    def test_heat_halo_256_ranks(self):
        def app(ctx):
            return heat(ctx, local_n=8, niter=4)

        result = run_original(app, 256, machine=TESTING, wall_timeout=120)
        result.raise_errors()
        assert result.failure is None
        assert len(result.returns) == 256

    def test_fault_injection_at_scale(self):
        """A mid-run kill at 64 ranks: victim dies, every peer unwinds."""
        def main(mpi):
            comm = mpi.COMM_WORLD
            x = np.zeros(1)
            for _ in range(50):
                mpi.compute(1e-3)
                comm.Allreduce(np.array([1.0]), x, SUM)
            return float(x[0])

        plan = FaultPlan([FaultSpec(rank=33, at_time=0.02)])
        result = run_job(64, main, fault_plan=plan, wall_timeout=60,
                         engine="cooperative")
        assert result.failure is not None
        assert result.failure.rank == 33
        assert not result.errors

    def test_runs_are_bit_reproducible(self):
        """Determinism: two cooperative runs agree on every observable."""
        def main(mpi):
            comm = mpi.COMM_WORLD
            buf = np.zeros(4)
            right = (mpi.rank + 1) % mpi.size
            left = (mpi.rank - 1) % mpi.size
            comm.Send(np.full(4, float(mpi.rank)), dest=right, tag=1)
            comm.Recv(buf, source=left, tag=mpi.ANY_TAG)
            out = np.zeros(1)
            comm.Allreduce(np.array([buf.sum()]), out, SUM)
            return float(out[0])

        a = run_job(32, main, wall_timeout=60, engine="cooperative")
        b = run_job(32, main, wall_timeout=60, engine="cooperative")
        assert a.returns == b.returns
        assert a.clocks == b.clocks
        assert a.sent_counts == b.sent_counts


def _wildcard_kernel(mpi):
    """Seeded, wildcard-heavy, schedule-independent kernel.

    Wildcards are exercised two ways that keep matching deterministic
    under ANY interleaving of the ranks (across shards too), so every
    backend must produce bit-identical results:

    * ``ANY_TAG`` receives from a *specific* source — the overflow
      (wildcard) list arbitration runs, but per-source FIFO pins the
      match order;
    * ``ANY_SOURCE`` receives with the senders serialized by barriers —
      one sender has in-flight traffic at a time.
    """
    comm = mpi.COMM_WORLD
    rank, size = mpi.rank, mpi.size
    rng = np.random.default_rng(1234 + rank)
    right, left = (rank + 1) % size, (rank - 1) % size
    K = 4

    # phase 1: ANY_TAG wildcards from a pinned source
    bufs = [np.empty(8) for _ in range(K)]
    reqs = [comm.Irecv(bufs[i], source=left, tag=mpi.ANY_TAG)
            for i in range(K)]
    for i in range(K):
        comm.Send(rng.standard_normal(8), dest=right, tag=10 + i)
    statuses = mpi.Waitall(reqs)
    tags = [st.tag for st in statuses]
    total = float(sum(b.sum() for b in bufs))

    # phase 2: ANY_SOURCE wildcards, senders serialized by barriers
    recv_sum = 0.0
    for sender in range(size):
        comm.Barrier()
        if rank == sender:
            for i in range(2):
                comm.Send(np.full(4, float(sender + i)),
                          dest=(sender + 1) % size, tag=77)
        elif rank == (sender + 1) % size:
            for _ in range(2):
                buf = np.zeros(4)
                comm.Recv(buf, source=mpi.ANY_SOURCE, tag=77)
                recv_sum += float(buf.sum())
    out = np.zeros(1)
    comm.Allreduce(np.array([total + recv_sum]), out, SUM)
    return (tags, float(out[0]), mpi.Wtime())


class TestBackendEquivalence:
    """Processes and cooperative must agree bit-for-bit on deterministic
    kernels — the scheduler is the differential-testing oracle."""

    @pytest.mark.parametrize("nprocs", [2, 8])
    def test_wildcard_kernel_jobresult_equivalence(self, nprocs):
        coop = run_job(nprocs, _wildcard_kernel, wall_timeout=60,
                       engine="cooperative")
        shard = run_job(nprocs, _wildcard_kernel, wall_timeout=60,
                        engine="processes:2")
        coop.raise_errors()
        shard.raise_errors()
        assert coop.returns == shard.returns
        assert coop.clocks == shard.clocks        # bitwise virtual times
        assert coop.sent_counts == shard.sent_counts
        assert coop.sent_bytes == shard.sent_bytes


class TestInstantDeadlockDetection:
    def test_all_blocked_detected_without_waiting_for_watchdog(self):
        """Every rank blocked + no predicate true => immediate
        DeadlockError, not a 60s wall-clock watchdog wait."""
        def main(mpi):
            mpi.COMM_WORLD.Recv(np.zeros(1), source=(mpi.rank + 1) % mpi.size,
                                tag=9)

        result = run_job(4, main, wall_timeout=60, engine="cooperative")
        assert result.errors
        assert "deadlock" in result.errors[0][1].lower()
        assert result.wall_seconds < 5.0   # instant, not watchdog-paced

    def test_deadlock_message_names_blocked_ranks(self):
        def main(mpi):
            if mpi.rank == 0:
                mpi.COMM_WORLD.Recv(np.zeros(1), source=1, tag=1)
            return "done"

        result = run_job(2, main, wall_timeout=60, engine="cooperative")
        assert result.errors
        assert "blocked ranks: [0]" in result.errors[0][1]

    def test_partial_block_is_not_deadlock(self):
        """A blocked rank whose peer is still computing must not trip
        the instant detector."""
        def main(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                buf = np.zeros(1)
                comm.Recv(buf, source=1, tag=3)
                return float(buf[0])
            mpi.compute(5.0)
            comm.Send(np.array([42.0]), dest=0, tag=3)
            return 42.0

        result = run_job(2, main, wall_timeout=60, engine="cooperative")
        result.raise_errors()
        assert result.returns == [42.0, 42.0]


class TestSpinFairness:
    def test_test_spin_loop_cannot_starve_sender(self):
        def main(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                buf = np.zeros(2)
                req = comm.Irecv(buf, source=1, tag=5)
                spins = 0
                while True:
                    done, _st = mpi.Test(req)
                    if done:
                        break
                    spins += 1
                    assert spins < 1_000_000, "Test spin starved the sender"
                return float(buf.sum())
            mpi.compute(1e-3)
            comm.Send(np.array([1.0, 2.0]), dest=0, tag=5)
            return 3.0

        result = run_job(2, main, wall_timeout=30, engine="cooperative")
        result.raise_errors()
        assert result.returns == [3.0, 3.0]

    def test_iprobe_spin_loop_cannot_starve_sender(self):
        def main(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                spins = 0
                while True:
                    flag, st = comm.Iprobe(source=mpi.ANY_SOURCE, tag=6)
                    if flag:
                        break
                    spins += 1
                    assert spins < 1_000_000
                buf = np.zeros(1)
                comm.Recv(buf, source=st.source, tag=6)
                return float(buf[0])
            mpi.compute(1e-3)
            comm.Send(np.array([7.0]), dest=0, tag=6)
            return 7.0

        result = run_job(2, main, wall_timeout=30, engine="cooperative")
        result.raise_errors()
        assert result.returns == [7.0, 7.0]

    def test_abort_unwinds_spinning_rank(self):
        """The cooperative analog of the threaded unwind-at-call-entry
        regression: a rank spinning on Test observes a peer's error
        abort through the nb_poll observation point and unwinds."""
        def main(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 1:
                raise ValueError("boom")
            req = comm.Irecv(np.zeros(1), source=1, tag=0)
            while True:
                done, _ = mpi.Test(req)
                assert not done

        result = run_job(2, main, wall_timeout=30, engine="cooperative")
        assert result.errors and result.errors[0][0] == 1
        assert result.wall_seconds < 10.0


class TestSchedulerInternals:
    def test_scheduler_runs_lock_free_mailboxes(self):
        """Cooperative runs bind every mailbox to the scheduler (no
        condition-variable path)."""
        from repro.mpi.engine import Engine

        eng = Engine(3, engine="cooperative")
        eng.run(lambda mpi: mpi.rank)
        assert eng.backend == "cooperative"
        assert eng.scheduler is not None
        assert eng.scheduler.switches > 0
        for mb in eng.mailboxes:
            assert mb._sched is eng.scheduler


# ---------------------------------------------------------------------------
# Schedule pins: the exact interleaving, not only the results
# ---------------------------------------------------------------------------

def _app_kernel(app):
    """``app`` from the scaling sweep as a plain rank body."""
    from repro.harness.scaling import SCALING_APPS
    from repro.statesave.context import Context

    params = SCALING_APPS[app.__name__]

    def main(mpi):
        return app(Context(mpi), **params)
    return main


def _schedule_observation(nprocs, main, kill):
    """Run on the cooperative engine; digest what the schedule decides."""
    import hashlib
    import json

    from repro.mpi import LEMIEUX
    from repro.mpi.engine import Engine

    plan = FaultPlan([FaultSpec(rank=kill[0], at_time=kill[1])]) if kill \
        else None
    eng = Engine(nprocs, machine=LEMIEUX, fault_plan=plan, wall_timeout=60,
                 engine="cooperative")
    result = eng.run(main)
    result.raise_errors()

    def digest(value):
        text = json.dumps(value, sort_keys=True)
        return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()

    return {
        "switches": eng.scheduler.switches,
        "clocks": digest([c.hex() for c in result.clocks]),
        "sent": digest([result.sent_counts, result.sent_bytes]),
        "returns": digest(repr(result.returns)),
        "failure": None if result.failure is None else
        [result.failure.rank, result.failure.time.hex()],
    }


def _spin_kernel(mpi):
    """Rank 0 spins on ``Test`` while every peer is blocked on it, so its
    fairness yields find no other runnable rank (the step hands the
    baton back to the parking task itself)."""
    comm = mpi.COMM_WORLD
    buf = np.zeros(1)
    if mpi.rank == 0:
        req = comm.Irecv(buf, source=1, tag=1)
        for _ in range(40):
            mpi.compute(1e-5)
            assert not mpi.Test(req)[0]
        for dest in range(1, mpi.size):
            comm.Send(np.array([1.0]), dest=dest, tag=2)
        mpi.Wait(req)
    else:
        comm.Recv(buf, source=0, tag=2)
        if mpi.rank == 1:
            comm.Send(buf + 1, dest=0, tag=1)
    return float(buf[0])


#: (kernel, ranks, (victim, at_time) or None) -> observation, recorded on
#: the scheduler that resumed every task from its run loop (two OS
#: hand-offs per switch); direct hand-off between carriers must
#: reproduce every value.  The clean runs take closed-form collectives
#: (one park per rank per collective), which lowered only their switch
#: counts: ring 789 -> 448, heat 1556 -> 1072, wildcard 419 -> 272.
SCHEDULE_PINS = {
    ("ring", 64, None): dict(
        switches=448, clocks="761f407f4099e69a", sent="ea388e9b870c8d8e",
        returns="7991101a4fa95986", failure=None),
    ("ring", 64, (33, 0.3)): dict(
        switches=436, clocks="07c3c75116482bf4", sent="b44616d55fa20cfe",
        returns="1523163764395b44", failure=[33, "0x1.33730a9fd2540p-2"]),
    ("heat", 64, None): dict(
        switches=1072, clocks="ba42f990d928ad93", sent="e00904aa937ed6d6",
        returns="00b5d1bbf27fd332", failure=None),
    ("heat", 64, (17, 2.4)): dict(
        switches=814, clocks="346a5f762fb6b45e", sent="2fb1ee26da3f0d5e",
        returns="1523163764395b44", failure=[17, "0x1.cd5f11cd20c25p+0"]),
    ("wildcard", 16, None): dict(
        switches=272, clocks="4bb2fb81e27ee243", sent="08c5ba844936b232",
        returns="eba02fa6962060b6", failure=None),
    ("wildcard", 16, (5, 1e-4)): dict(
        switches=76, clocks="ea373e4148222648", sent="e1325a5e7591d3bd",
        returns="4924454cace3ed23", failure=[5, "0x1.903cbd6468cecp-14"]),
    ("spin", 8, None): dict(
        switches=18, clocks="7e04eb359fe35f58", sent="f72695194253f6c3",
        returns="7c18d24e7ffbe220", failure=None),
    ("spin", 8, (0, 2e-4)): dict(
        switches=16, clocks="4b33214f55b4af4f", sent="aa1d6628b37b29dc",
        returns="41fd8cc0ee79b2ae", failure=[0, "0x1.5097c80841ee2p-12"]),
}

_PIN_KERNELS = {"ring": _app_kernel(ring), "heat": _app_kernel(heat),
                "wildcard": _wildcard_kernel, "spin": _spin_kernel}


class TestSchedulePins:
    @pytest.mark.parametrize("case", sorted(SCHEDULE_PINS, key=repr),
                             ids=lambda c: f"{c[0]}@{c[1]}"
                             + ("-killed" if c[2] else ""))
    def test_schedule_is_pinned(self, case):
        kernel, nprocs, kill = case
        got = _schedule_observation(nprocs, _PIN_KERNELS[kernel], kill)
        assert got == SCHEDULE_PINS[case]
        assert (got["failure"] is None) == (kill is None)


def _c3_app(kernel):
    from repro.harness.scaling import SCALING_APPS

    params = SCALING_APPS[kernel.__name__]
    return lambda ctx: kernel(ctx, **params)


def _c3_timer_ring16():
    from repro.core.ccc import run_c3
    from repro.core.protocol import C3Config
    from repro.mpi import LEMIEUX

    return run_c3(_c3_app(ring), 16, machine=LEMIEUX,
                  config=C3Config(checkpoint_interval=0.15))[0]


def _resume_heat16():
    """The restart launch of a heat job killed after two committed lines."""
    from repro.core.ccc import resume_from_manifest, run_c3
    from repro.core.protocol import C3Config
    from repro.mpi import LEMIEUX
    from repro.storage.stable import InMemoryStorage
    from repro.storage.wal import WalStore

    store, config = WalStore(InMemoryStorage()), \
        C3Config(checkpoint_interval=1.2)
    killed, _ = run_c3(_c3_app(heat), 16, machine=LEMIEUX, storage=store,
                       config=config,
                       fault_plan=FaultPlan([FaultSpec(rank=3, at_time=4.2)]))
    assert killed.failure is not None
    return resume_from_manifest(_c3_app(heat), 16, store, machine=LEMIEUX,
                                config=config)[0]


def _in_collective_ring16():
    from repro.mpi import LEMIEUX
    from repro.mpi.engine import Engine

    plan = FaultPlan([FaultSpec(rank=5, in_collective=3)])
    return Engine(16, machine=LEMIEUX, fault_plan=plan,
                  engine="cooperative").run(_app_kernel(ring))


def _c3_heat64():
    from repro.core.ccc import run_c3
    from repro.core.protocol import C3Config
    from repro.mpi import LEMIEUX

    return run_c3(_c3_app(heat), 64, machine=LEMIEUX, config=C3Config())[0]


#: launches that must keep the p2p schedule bit for bit, switches
#: included — a C3 job with a checkpoint timer, a restart, an armed
#: mid-collective kill — recorded before closed-form collectives existed;
#: the two C3 jobs' clocks were re-pinned when the checkpoint format
#: dropped four unread fields (smaller sections: every clock fell)
GUARD_PINS = {
    "c3-timer ring@16": (_c3_timer_ring16, dict(
        switches=218, clocks="11267748e10ba2e4", sent="af7df80113476483",
        returns="a41edf37a5dcc20c", failure=None)),
    "resume heat@16": (_resume_heat16, dict(
        switches=265, clocks="f068d2c85e2ded74", sent="172760971b50f992",
        returns="51e34d864f748e1d", failure=None)),
    "in_collective ring@16": (_in_collective_ring16, dict(
        switches=51, clocks="2128c30653e3ca1f", sent="d62bdea1fa572a1c",
        returns="4924454cace3ed23", failure=[5, "0x1.99d2f617daf95p-4"])),
}


def _launch_observation(launch, monkeypatch):
    """``_schedule_observation`` for a launch made through a runner: the
    switches are read off the scheduler of the last launch."""
    import hashlib
    import json

    from repro.mpi.scheduler import CooperativeScheduler

    switches = []
    run = CooperativeScheduler.run

    def counted(sched, *args, **kw):
        try:
            return run(sched, *args, **kw)
        finally:
            switches.append(sched.switches)
    monkeypatch.setattr(CooperativeScheduler, "run", counted)
    result = launch()

    def digest(value):
        text = json.dumps(value, sort_keys=True)
        return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()

    return {
        "switches": switches[-1],
        "clocks": digest([c.hex() for c in result.clocks]),
        "sent": digest([result.sent_counts, result.sent_bytes]),
        "returns": digest(repr(result.returns)),
        "failure": None if result.failure is None else
        [result.failure.rank, result.failure.time.hex()],
    }


class TestClosedFormGuard:
    @pytest.mark.parametrize("name", list(GUARD_PINS))
    def test_order_observing_launches_keep_the_p2p_schedule(
            self, name, monkeypatch):
        launch, pinned = GUARD_PINS[name]
        assert _launch_observation(launch, monkeypatch) == pinned

    def test_configuration_1_c3_heat64_only_switches_less(self, monkeypatch):
        """Recorded before closed-form collectives: 1810 switches."""
        got = _launch_observation(_c3_heat64, monkeypatch)
        assert got.pop("switches") < 1810
        assert got == dict(clocks="1449bb001d54ea31", sent="7f5d10899e204855",
                           returns="00b5d1bbf27fd332", failure=None)


# ---------------------------------------------------------------------------
# Carrier hygiene: no carrier thread outlives its job
# ---------------------------------------------------------------------------

def _live_carriers():
    import threading

    return [t.name for t in threading.enumerate()
            if t.name.startswith("coop-rank-") and t.is_alive()]


def _ring_exchange(mpi):
    comm = mpi.COMM_WORLD
    buf = np.zeros(2)
    for _ in range(4):
        comm.Sendrecv(np.full(2, float(mpi.rank)), (mpi.rank + 1) % mpi.size,
                      1, buf, (mpi.rank - 1) % mpi.size, 1)
        mpi.compute(1e-3)
    return float(buf.sum())


def _app_raises(mpi):
    if mpi.rank == 2:
        raise ValueError("boom")
    return _ring_exchange(mpi)


def _deadlocks(mpi):
    mpi.COMM_WORLD.Recv(np.zeros(1), source=(mpi.rank + 1) % mpi.size, tag=9)


#: name -> (rank body, fault plan, how the job ends)
_LEAK_CASES = {
    "clean": (_ring_exchange, None, "ok"),
    "fault": (_ring_exchange, FaultPlan([FaultSpec(rank=3, at_time=2e-3)]),
              "failure"),
    "deadlock": (_deadlocks, None, "deadlock"),
    "app-raises": (_app_raises, None, "error"),
}


class TestCarrierLeaks:
    @pytest.mark.parametrize("name", list(_LEAK_CASES))
    def test_no_carrier_survives_the_job(self, name):
        main, plan, outcome = _LEAK_CASES[name]
        assert not _live_carriers()
        result = run_job(8, main, fault_plan=plan, wall_timeout=30)
        assert _live_carriers() == []
        if outcome == "ok":
            result.raise_errors()
        elif outcome == "failure":
            assert result.failure is not None and result.failure.rank == 3
        elif outcome == "deadlock":
            assert "deadlock" in result.errors[0][1]
        else:
            assert result.errors and result.errors[0][0] == 2
