"""Engine behavior: results, virtual time, faults, deadlock watchdog."""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.mpi import (
    DeadlockError, Engine, FaultPlan, FaultSpec, MachineModel, TESTING,
    run_job,
)

from repro.testutil import run


class TestBasics:
    def test_returns_per_rank(self):
        result = run(4, lambda mpi: mpi.rank * 2)
        assert result.returns == [0, 2, 4, 6]

    def test_single_rank(self):
        result = run(1, lambda mpi: "solo")
        assert result.returns == ["solo"]

    def test_nprocs_validation(self):
        with pytest.raises(ValueError):
            Engine(0)

    def test_app_exception_collected(self):
        def main(mpi):
            if mpi.rank == 1:
                raise ValueError("boom")
            mpi.COMM_WORLD.Barrier()

        result = run_job(3, main, wall_timeout=30)
        assert result.errors and result.errors[0][0] == 1
        with pytest.raises(RuntimeError, match="boom"):
            result.raise_errors()

    def test_processor_names(self):
        machine = TESTING.with_overrides(procs_per_node=2)
        result = run_job(4, lambda mpi: mpi.Get_processor_name(),
                         machine=machine)
        assert result.returns[0] == result.returns[1]
        assert result.returns[2] != result.returns[0]


class TestVirtualTime:
    def test_compute_advances_clock(self):
        def main(mpi):
            mpi.compute(0.5)
            return mpi.Wtime()

        result = run(1, main)
        assert result.returns[0] >= 0.5
        assert result.virtual_time >= 0.5

    def test_work_uses_flop_rate(self):
        machine = TESTING.with_overrides(flops_per_proc=1e6)
        def main(mpi):
            mpi.work(2e6)
            return mpi.Wtime()

        result = run_job(1, main, machine=machine)
        assert result.returns[0] == pytest.approx(2.0)

    def test_message_latency_charged_to_receiver(self):
        machine = TESTING.with_overrides(latency=1e-3, call_overhead=0.0)

        def main(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                comm.Send(np.zeros(1), dest=1, tag=0)
            else:
                comm.Recv(np.zeros(1), source=0, tag=0)
            return mpi.Wtime()

        result = run_job(2, main, machine=machine)
        assert result.returns[0] < 1e-4          # sender pays ~nothing
        assert result.returns[1] >= 1e-3         # receiver pays the latency

    def test_bandwidth_term(self):
        machine = TESTING.with_overrides(latency=0.0, bandwidth=1e6,
                                         call_overhead=0.0)

        def main(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                comm.Send(np.zeros(125_000), dest=1, tag=0)  # 1 MB
            else:
                comm.Recv(np.zeros(125_000), source=0, tag=0)
            return mpi.Wtime()

        result = run_job(2, main, machine=machine)
        assert result.returns[1] == pytest.approx(1.0, rel=0.01)

    def test_blocked_receiver_syncs_to_sender_time(self):
        def main(mpi):
            comm = mpi.COMM_WORLD
            if comm.rank == 0:
                mpi.compute(2.0)
                comm.Send(np.zeros(1), dest=1, tag=0)
            else:
                comm.Recv(np.zeros(1), source=0, tag=0)
            return mpi.Wtime()

        result = run(2, main)
        assert result.returns[1] >= 2.0


class TestFaults:
    def test_after_ops_trigger(self):
        plan = FaultPlan([FaultSpec(rank=1, after_ops=3)])

        def main(mpi):
            comm = mpi.COMM_WORLD
            for i in range(10):
                comm.Send(np.zeros(1), dest=(mpi.rank + 1) % 2, tag=i)
                comm.Recv(np.zeros(1), source=(mpi.rank + 1) % 2, tag=i)
            return "finished"

        result = run_job(2, main, fault_plan=plan, wall_timeout=30)
        assert result.failure is not None
        assert result.failure.rank == 1
        assert "finished" not in result.returns

    def test_at_time_trigger(self):
        plan = FaultPlan([FaultSpec(rank=0, at_time=0.5)])

        def main(mpi):
            for _ in range(100):
                mpi.compute(0.05)
                mpi.COMM_WORLD.Barrier()
            return "finished"

        result = run_job(2, main, fault_plan=plan, wall_timeout=30)
        assert result.failure is not None
        assert result.failure.time >= 0.5

    def test_fault_spec_requires_trigger(self):
        with pytest.raises(ValueError):
            FaultSpec(rank=0)

    def test_surviving_ranks_unwind(self):
        plan = FaultPlan([FaultSpec(rank=0, after_ops=1)])

        def main(mpi):
            comm = mpi.COMM_WORLD
            comm.Barrier()
            comm.Barrier()
            return "finished"

        result = run_job(4, main, fault_plan=plan, wall_timeout=30)
        assert result.failure is not None
        assert result.returns == [None] * 4
        assert not result.errors  # JobAborted is not an application error

    def test_fired_specs_do_not_refire(self):
        plan = FaultPlan([FaultSpec(rank=0, after_ops=1)])

        def main(mpi):
            mpi.COMM_WORLD.Barrier()
            return "ok"

        first = run_job(2, main, fault_plan=plan, wall_timeout=30)
        assert first.failure is not None
        second = run_job(2, main, fault_plan=plan, wall_timeout=30)
        assert second.failure is None
        assert second.returns == ["ok", "ok"]


class TestRankStacks:
    def test_stack_size_restored_only_after_threads_start(self, monkeypatch):
        """Regression: ``threading.stack_size`` takes effect at thread
        *start*; restoring the old value before the start loop silently
        reverts the intended carrier stacks."""
        from repro.mpi.scheduler import CooperativeScheduler

        events = []
        real_stack_size = threading.stack_size

        def recording_stack_size(*args):
            events.append(("stack_size", args))
            return real_stack_size(*args)

        real_start = threading.Thread.start

        def recording_start(self):
            if self.name.startswith("coop-rank-"):
                events.append(("start", self.name))
            return real_start(self)

        monkeypatch.setattr(threading, "stack_size", recording_stack_size)
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        result = run_job(2, lambda mpi: mpi.rank, wall_timeout=30)
        assert result.returns == [0, 1]

        carrier = (CooperativeScheduler.STACK_BYTES,)
        set_idx = next(i for i, (kind, a) in enumerate(events)
                       if kind == "stack_size" and a == carrier)
        restore_idx = next(i for i in range(set_idx + 1, len(events))
                           if events[i][0] == "stack_size"
                           and events[i][1] != carrier)
        start_idxs = [i for i, (kind, _) in enumerate(events) if kind == "start"]
        assert len(start_idxs) == 2
        # carrier size applied before every start; restored only afterwards
        assert set_idx < min(start_idxs)
        assert restore_idx > max(start_idxs)

    def test_a_fork_while_a_thread_holds_the_stack_lock_can_launch(self):
        """Service executor threads fork ``processes`` workers while
        other threads may be starting carriers: the child must not
        start with the stack-size lock held."""
        from repro.mpi import scheduler

        holding = threading.Event()

        def hold():
            with scheduler._STACK_LOCK:
                holding.set()
                time.sleep(0.2)

        holder = threading.Thread(target=hold)
        holder.start()
        holding.wait()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                result = run_job(2, lambda mpi: mpi.rank, wall_timeout=30)
                code = 0 if result.returns == [0, 1] else 2
            finally:
                os._exit(code)
        holder.join(timeout=30)
        assert not holder.is_alive()
        deadline = time.monotonic() + 30
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done and os.waitstatus_to_exitcode(status) == 0


class TestAbortUnification:
    def test_error_abort_unwinds_peers_at_call_entry(self):
        """Regression: error-triggered aborts (failure is None) must unwind
        ranks at MPI call entry just like fault-triggered ones."""
        def main(mpi):
            if mpi.rank == 1:
                raise ValueError("boom")
            # Hand the scheduler turns (no MPI call, so no call-entry
            # check) until the peer's error has aborted the job; the
            # next MPI call must then unwind at entry.
            while not mpi._ctx.engine.abort_event.is_set():
                mpi._ctx.engine.scheduler.yield_now()
            mpi.COMM_WORLD.Send(np.zeros(1), dest=0, tag=0)
            return "survived"

        result = run_job(2, main, wall_timeout=60)
        assert result.errors and result.errors[0][0] == 1
        assert result.returns[0] is None  # unwound, did not outlive the abort

    def test_abort_unwinds_nonblocking_test_poll_loop(self):
        """Regression: a rank spinning on MPI_Test never reaches a blocking
        wait; the abort must still unwind it (via the C3-style poll hook)."""
        def main(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 1:
                raise ValueError("boom")
            req = comm.Irecv(np.zeros(1), source=1, tag=0)
            while True:
                mpi._ctx.poll_hook()
                done, _ = req.test()
                if done:  # pragma: no cover - the sender died
                    return "got it"

        result = run_job(2, main, wall_timeout=60)
        assert result.errors and result.errors[0][0] == 1
        assert result.returns[0] is None


class TestVirtualTimeFaultScheduler:
    def test_blocked_victim_is_woken_by_peer_clock_crossing(self):
        """A rank blocked in a receive is killed promptly once any rank's
        virtual clock crosses the fault time — event-driven, not by poll."""
        plan = FaultPlan([FaultSpec(rank=0, at_time=1.0)])

        def main(mpi):
            comm = mpi.COMM_WORLD
            if mpi.rank == 0:
                # Blocks forever; clock stays at ~0 < at_time.
                comm.Recv(np.zeros(1), source=1, tag=0)
                return "received"
            mpi.compute(2.0)  # crosses the fault time on rank 1's clock
            return "computed"

        result = run_job(2, main, fault_plan=plan, wall_timeout=20)
        assert result.failure is not None
        assert result.failure.rank == 0
        # wall time proves event-driven delivery (no 300 s deadline wait)
        assert result.wall_seconds < 10.0

    def test_fired_at_time_specs_not_rearmed_on_restart(self):
        plan = FaultPlan([FaultSpec(rank=0, at_time=0.1)])

        def main(mpi):
            mpi.compute(0.5)
            mpi.COMM_WORLD.Barrier()
            return "ok"

        first = run_job(2, main, fault_plan=plan, wall_timeout=30)
        assert first.failure is not None and first.failure.rank == 0
        second = run_job(2, main, fault_plan=plan, wall_timeout=30)
        assert second.failure is None
        assert second.returns == ["ok", "ok"]


class TestDeadlockWatchdog:
    def test_detects_never_matching_recv(self):
        def main(mpi):
            if mpi.rank == 0:
                mpi.COMM_WORLD.Recv(np.zeros(1), source=1, tag=1)
            return "done"

        result = run_job(2, main, wall_timeout=1.0)
        assert result.errors
        assert "deadlock" in result.errors[0][1].lower() or \
               "timeout" in result.errors[0][1].lower()


class TestContextIds:
    def test_context_for_is_stable(self):
        engine = Engine(2)
        a = engine.context_for(("k", 1))
        b = engine.context_for(("k", 1))
        c = engine.context_for(("k", 2))
        assert a == b
        assert a != c
        assert a[1] == a[0] + 1  # shadow pairs
