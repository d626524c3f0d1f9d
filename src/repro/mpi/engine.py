"""Job engine: runs one simulated MPI job.

The engine owns the mailboxes, the virtual-time machine model, the fault
plan, and the communicator context-id registry.  ``Engine.run(main)``
executes ``main(mpi)`` on every rank, where ``mpi`` is the rank's
:class:`~repro.mpi.api.MPI` facade, and collects per-rank return values,
final virtual clocks, and traffic statistics into a :class:`JobResult`.

Paper mapping: the engine plays the role of the MPI job launcher plus
the machine under test in Section 6 — it provides the fail-stop fault
model of footnote 1 (a killed rank simply stops; peers observe the
failure and unwind), the per-process clocks whose maximum is the
runtimes reported in Tables 2-7, and the process counts of the
evaluation (the cooperative engine runs the paper's true 32-1024-rank
configurations; see :mod:`repro.harness.platforms`).

Two engines share all of the above; ``engine=`` picks one by name
(:func:`resolve_backend`; the ``REPRO_ENGINE`` environment variable
overrides the default) and :meth:`Engine.run` switches on it directly:

* ``"cooperative"`` (default) — rank mains run as fibers under the
  deterministic cooperative scheduler (:mod:`repro.mpi.scheduler`):
  exactly one rank executes at a time, blocking MPI operations yield to
  a single run loop, wakeups are exact, deadlock is detected the moment
  every live rank blocks, and runs are bit-reproducible.  This engine
  scales to the paper's process counts (256+ ranks).
* ``"processes"`` / ``"processes:N"`` — the simulated nodes are
  partitioned across N forked OS processes, each running a cooperative
  scheduler over its own ranks, with cross-process delivery gated by a
  conservative lookahead bound (:mod:`repro.mpi.processes`, DESIGN.md
  §12).  Fault specs are delivered as actual SIGKILLs to the victim's
  node process, and recovery restarts from shared stable storage that
  survived the crash; kill evidence (waitpid-confirmed termination
  signals) lands in :attr:`JobResult.real_kills`.  Clean runs reproduce
  the cooperative engine's :class:`JobResult` bitwise on
  schedule-independent kernels (the differential battery in
  ``tests/mpi/test_sharded.py`` pins the exact cross-engine contract).
  ``"sharded[:N]"`` is an accepted spelling of it.  A platform without
  ``os.fork`` refuses it at resolution.

Failure semantics: a triggered :class:`ProcessFailure` kills its rank,
sets the job-wide abort flag, and every other rank unwinds with
:class:`JobAborted` at its next MPI operation — call entry, blocking-wait
wakeup, or non-blocking poll hook — fail-stop detection.  Any other
exception in application code also aborts the job the same way but is
recorded (and re-raised by :meth:`JobResult.raise_errors`) so test
failures surface instead of hanging.

Blocking waits carry no timeout: they are woken precisely by deliveries
and aborts, ``at_time`` faults are signalled by the
:class:`VirtualTimeFaultScheduler` the moment any rank's virtual clock
crosses the threshold, a job whose every rank blocks is a deadlock the
scheduler detects at once, and the scheduler wakes every blocked rank
once the wall deadline passes, so they unwind with
:class:`DeadlockError`.  See DESIGN.md section 2.
"""

from __future__ import annotations

import heapq
import math
import os
import threading
import time as _time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .errors import DeadlockError, JobAborted, ProcessFailure
from .faults import FaultPlan, FaultSpec
from .matching import Mailbox
from .scheduler import CooperativeScheduler
from .timemodel import MachineModel, RankClock, TESTING


#: every accepted ``engine=`` spelling -> its engine
_SPELLINGS: Dict[str, str] = {
    "cooperative": "cooperative", "coop": "cooperative",
    "processes": "processes", "process": "processes", "procs": "processes",
    # the perf benchmark's shard-256 workload names "sharded:4"
    "sharded": "processes",
}


def resolve_backend(name: Optional[str]) -> str:
    """Canonical engine spec: explicit arg > ``REPRO_ENGINE`` > default.

    ``processes`` accepts a worker-count suffix — ``"processes:2"``
    packs the simulated nodes into 2 OS processes (always clamped to
    the simulated node count).  It needs ``os.fork``; a platform
    without it refuses the engine here rather than run its faults as
    simulated unwinds.
    """
    if name is None:
        name = os.environ.get("REPRO_ENGINE") or "cooperative"
    text = str(name).lower()
    base, sep, count = text.partition(":")
    engine = _SPELLINGS.get(base)
    if engine is None:
        raise ValueError(
            f"unknown engine backend {name!r}; "
            f"known: {sorted(_SPELLINGS)}")
    if engine == "processes" and not hasattr(os, "fork"):
        raise ValueError(
            f"engine backend {name!r} forks one OS process per node, "
            "but os.fork is not available on this platform")
    if sep:
        if engine == "cooperative":
            raise ValueError(
                f"engine backend {base!r} takes no ':N' suffix ({name!r})")
        if not count.isdigit() or int(count) < 1:
            raise ValueError(f"bad worker count in engine spec {name!r}")
        return f"{engine}:{int(count)}"
    return engine


def is_processes(name: Optional[str]) -> bool:
    """Does ``name`` (``None``: ``REPRO_ENGINE`` or the default) resolve
    to the processes engine, whose faults are real SIGKILLs?"""
    return resolve_backend(name).partition(":")[0] == "processes"


def engine_help(default: str = "the cooperative scheduler") -> str:
    """The shared ``--engine`` help text of the study CLIs."""
    return ("execution backend: cooperative (deterministic fiber "
            "scheduler, the oracle), processes[:N] (one OS process per "
            "node, faults delivered as real SIGKILLs) "
            f"(default: {default}, or REPRO_ENGINE)")


class VirtualTimeFaultScheduler:
    """Engine-level scheduler for virtual-time (``at_time``) fault specs.

    The one delivery path of ``at_time`` (the per-operation
    :meth:`FaultPlan.check` ignores it): every rank clock watches the
    earliest scheduled fault time, and when *any* rank's clock crosses it,
    the due spec is marked on its victim rank and the victim's mailbox is
    notified — so a blocked victim unwinds promptly, at its next check
    point.  ``next_time`` is what the clock-advance hot path compares
    against.
    """

    def __init__(self, engine: "Engine", specs: List[FaultSpec]):
        self._engine = engine
        self._heap: List[Tuple[float, int, FaultSpec]] = [
            (spec.at_time, i, spec) for i, spec in enumerate(specs)
        ]
        heapq.heapify(self._heap)
        self.next_time: float = self._heap[0][0] if self._heap else math.inf

    def clock_crossed(self, now: float) -> None:
        """A rank clock reached ``now``: mark every spec due by then."""
        due: List[FaultSpec] = []
        while self._heap and self._heap[0][0] <= now:
            due.append(heapq.heappop(self._heap)[2])
        self.next_time = self._heap[0][0] if self._heap else math.inf
        for spec in due:
            contexts = self._engine.rank_contexts
            if 0 <= spec.rank < len(contexts):
                contexts[spec.rank].set_due_fault(spec)


class RankContext:
    """Everything the runtime knows about one rank."""

    def __init__(self, engine: "Engine", rank: int):
        self.engine = engine
        self.rank = rank
        self.machine = engine.machine
        self.clock = RankClock()
        self.mailbox = engine.mailboxes[rank]
        self.op_count = 0
        self.sent_count = 0
        self.sent_bytes = 0
        #: collective operations begun by this rank (1-based after the
        #: first begin_collective; drives ``in_collective`` fault specs)
        self.collective_count = 0
        #: scratch space for runtime-internal per-rank state (collective tag
        #: sequence numbers, attached buffers, ...)
        self.scratch: Dict[Any, Any] = {}
        #: failed non-blocking completion checks since the last nb yield
        self._nb_misses = 0
        #: set by the virtual-time fault scheduler (from whichever rank's
        #: clock crossed the time); consumed by this rank at its next
        #: check point
        self._due_fault: Optional[FaultSpec] = None

    # -- hooks charged on every MPI call ------------------------------------
    def enter_mpi_call(self) -> None:
        """Account one MPI operation: overhead charge + fault check + abort check."""
        if self.engine.abort_event.is_set():
            # Any abort unwinds at call entry — fail-stop faults and
            # error-triggered aborts alike (wait_for already unwinds on
            # both; entry must agree or error aborts leak past it).
            raise JobAborted()
        self.op_count += 1
        self.clock.advance(self.machine.call_overhead)
        self.raise_due_fault()
        self.engine.fault_plan.check(self.rank, self.op_count, self.clock.now)

    def poll_hook(self) -> None:
        """Abort/fault/watchdog observation point.

        Runs on every wakeup of a blocking wait and on every intercepted
        C3 call.  Checking the abort flag here is what unwinds ranks stuck
        in non-blocking poll loops (Test/Iprobe spinning): those paths
        never reach :meth:`enter_mpi_call`, and before this check a rank
        whose peer died mid-exchange would spin until the wall deadline.
        Inside :meth:`Mailbox.wait_for` the predicate is evaluated before
        this hook, so an operation whose match already arrived still
        completes.
        """
        if self.engine.abort_event.is_set():
            raise JobAborted()
        self.engine.check_deadline()
        self.raise_due_fault()

    #: consecutive non-blocking misses between cooperative yields.  The
    #: C3 control plane probes (``has_pending``/``Iprobe``) on every
    #: intercepted call, so yielding on *every* miss would cost a fiber
    #: switch per protocol operation; amortizing keeps the hot path at
    #: one integer increment while bounding any spin loop to
    #: ``NB_YIELD_EVERY`` cheap probes per scheduling turn.
    NB_YIELD_EVERY = 16

    def nb_poll(self) -> None:
        """Fairness + observation point for failed non-blocking checks.

        Called when a ``Test``/``Iprobe``/``has_pending``-style
        completion check misses.  A spin loop would otherwise monopolize
        the single runner and livelock the job, so every
        ``NB_YIELD_EVERY``-th miss observes aborts/faults/deadline (like
        :meth:`poll_hook`) and then yields the scheduler one turn.
        """
        self._nb_misses += 1
        if self._nb_misses % self.NB_YIELD_EVERY:
            return
        self.poll_hook()
        self.engine.scheduler.yield_now()

    # -- protocol/collective fault check points -------------------------------
    def begin_collective(self) -> None:
        """Count one collective operation started by this rank."""
        self.collective_count += 1

    def fault_point(self, window: str, n: int) -> None:
        """Structural fault check point: this rank has reached ``window``
        number ``n`` (one of :data:`~repro.mpi.faults.WINDOW_FIELDS`).

        The layer owning each window reports it on this rank's own
        thread: the C3 layer right after ``chkpt_StartCheckpoint``
        advances the epoch (``at_epoch``), while a line is still draining
        (``in_drain``) and right before its COMMIT marker is written
        (``at_commit``); the WAL store right after staging the rank's
        COMMIT record (``at_group_commit``); and the collective
        algorithms at each internal message (``in_collective``, with
        ``n`` the rank's collective count), so the victim dies with its
        peers already committed to the exchange.
        """
        self.engine.fault_plan.reached(self.rank, window, n, self.clock.now)

    # -- virtual-time fault delivery -----------------------------------------
    @property
    def has_due_fault(self) -> bool:
        """A scheduled fault awaits delivery on this rank (scheduler wakeups)."""
        return self._due_fault is not None

    def set_due_fault(self, spec: FaultSpec) -> None:
        """Mark a scheduled fault due and wake this rank if it is blocked."""
        self._due_fault = spec
        self.mailbox.notify()

    def raise_due_fault(self) -> None:
        """Deliver the pending scheduled fault, if any (on this rank's
        thread).  Delivery goes through :meth:`FaultPlan.deliver` so the
        processes engine's kill hook can turn it into an actual SIGKILL."""
        spec = self._due_fault
        if spec is None:
            return
        self._due_fault = None
        if not self.engine.fault_plan.mark_fired(spec):
            return
        self.engine.fault_plan.deliver(spec, self.rank, self.clock.now)


@dataclass
class JobResult:
    """Outcome of one engine run."""

    nprocs: int
    returns: List[Any]
    clocks: List[float]
    failure: Optional[ProcessFailure]
    errors: List[Tuple[int, str]] = field(default_factory=list)
    sent_counts: List[int] = field(default_factory=list)
    sent_bytes: List[int] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: real-kill evidence from the processes engine:
    #: one record per SIGKILLed node process, with the waitpid-confirmed
    #: termination signal (``{"rank", "pid", "termsig", "sigkill", ...}``)
    real_kills: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def aborted(self) -> bool:
        return self.failure is not None or bool(self.errors)

    @property
    def virtual_time(self) -> float:
        """Job makespan in virtual seconds (max over ranks)."""
        return max(self.clocks) if self.clocks else 0.0

    def raise_errors(self) -> None:
        """Re-raise the first non-fault application error, if any."""
        if self.errors:
            rank, tb = self.errors[0]
            raise RuntimeError(f"rank {rank} raised:\n{tb}")


class Engine:
    """One simulated MPI job."""

    #: world communicator context ids
    WORLD_CTX = 0
    WORLD_SHADOW = 1

    def __init__(self, nprocs: int, machine: MachineModel = TESTING,
                 fault_plan: Optional[FaultPlan] = None, seed: int = 0,
                 wall_timeout: float = 300.0, engine: Optional[str] = None):
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = nprocs
        self.machine = machine
        self.seed = seed
        self.backend = resolve_backend(engine)
        #: virtual-time node-local disk shared by co-located ranks; the
        #: C3 layer's overlapped write-back pipeline drains staged
        #: checkpoint bytes through it (fresh per execution, like clocks)
        from ..storage.drain import DrainDevice  # local import, no cycle
        self.disk = DrainDevice(machine, nprocs)
        self.fault_plan = fault_plan or FaultPlan.none()
        self.abort_event = threading.Event()
        self.failure: Optional[ProcessFailure] = None
        self.mailboxes = [Mailbox(r) for r in range(nprocs)]
        self._ctx_registry: Dict[Any, Tuple[int, int]] = {}
        self._next_cid = 4
        self._wall_timeout = wall_timeout
        self._deadline = 0.0
        self.rank_contexts: List[RankContext] = []
        self.fault_scheduler: Optional[VirtualTimeFaultScheduler] = None
        #: the cooperative scheduler while a cooperative run is live
        self.scheduler: Optional[CooperativeScheduler] = None
        #: real-kill evidence appended by the processes engine (parent side)
        self.real_kills: List[Dict[str, Any]] = []
        #: the current run's ``args`` tuple; shard workers substitute
        #: recording store wrappers here, so rank bodies must read the
        #: job arguments through the engine rather than a closure
        self._job_args: Tuple = ()
        #: open collective rendezvous of a closed-form launch, keyed by
        #: (shadow context, call sequence); None runs every collective
        #: point-to-point (see :meth:`_closed_form_eligible`)
        self._rendezvous: Optional[Dict[Tuple[int, int], Any]] = None

    # -- communicator context ids ------------------------------------------
    def context_for(self, key, force: Optional[Tuple[int, int]] = None
                    ) -> Tuple[int, int]:
        """Deterministic (context, shadow) pair for a creation key.

        All members of a collective creation call compute the same key, so
        they all receive the same ids without extra synchronization.

        ``force`` binds the key to explicit ids instead of the next free
        pair.  The checkpoint-restore path uses it to replay communicator
        creations with the ids of the original run: within one run the
        first-come key order makes ids consistent across ranks but *not*
        across runs, and the protocol's message registries persist raw
        context ids — a restored communicator must therefore get exactly
        the ids it had when the registries were written (DESIGN.md §3).
        ``_next_cid`` is bumped past forced ids so later creations never
        collide with restored ones.
        """
        if key not in self._ctx_registry:
            if force is not None:
                self._ctx_registry[key] = force
                self._next_cid = max(self._next_cid, force[1] + 1)
            else:
                self._ctx_registry[key] = (self._next_cid, self._next_cid + 1)
                self._next_cid += 2
        return self._ctx_registry[key]

    # -- virtual-time fault scheduling ---------------------------------------
    def _arm_fault_scheduler(self) -> None:
        """Attach a scheduler for unfired ``at_time`` specs to every clock."""
        time_specs = [
            spec
            for spec in self.fault_plan.unfired()
            if spec.at_time is not None
        ]
        if not time_specs:
            self.fault_scheduler = None
            return
        self.fault_scheduler = VirtualTimeFaultScheduler(self, time_specs)
        for ctx in self.rank_contexts:
            ctx.clock.watch(self.fault_scheduler)

    # -- watchdog -------------------------------------------------------------
    def check_deadline(self) -> None:
        if self._deadline and _time.monotonic() > self._deadline:
            if not self.abort_event.is_set():
                self.abort(None)
            raise DeadlockError(
                f"job exceeded wall timeout of {self._wall_timeout}s "
                "(likely deadlock)"
            )

    def abort(self, failure: Optional[ProcessFailure]) -> None:
        """Mark the job failed and wake every blocked rank.

        The failure is kept without its traceback: rank, time and reason
        are the record, and the victim's frames (its whole state) must
        not outlive the job.
        """
        if failure is not None and self.failure is None:
            self.failure = failure.with_traceback(None)
        self.abort_event.set()
        for mb in self.mailboxes:
            mb.notify()

    # -- run --------------------------------------------------------------------
    def run(self, main: Callable, args: Tuple = (), wall_timeout: Optional[float] = None) -> JobResult:
        """Execute ``main(mpi, *args)`` on every rank and gather the results."""
        from .api import MPI  # local import to avoid a cycle

        timeout = wall_timeout if wall_timeout is not None else self._wall_timeout
        self._deadline = _time.monotonic() + timeout
        self._job_args = tuple(args)
        self.rank_contexts = [RankContext(self, r) for r in range(self.nprocs)]
        self.real_kills = []
        self._arm_fault_scheduler()
        returns: List[Any] = [None] * self.nprocs
        errors: List[Tuple[int, str]] = []

        def worker(rank: int) -> None:
            ctx = self.rank_contexts[rank]
            mpi = MPI(ctx)
            try:
                # read through the engine: shard workers swap recording
                # store wrappers into _job_args after forking
                returns[rank] = main(mpi, *self._job_args)
            except ProcessFailure as pf:
                self.abort(pf)
            except JobAborted:
                pass
            except DeadlockError as exc:
                if not any(r == rank for r, _ in errors):
                    errors.append((rank, str(exc)))
                self.abort(None)
            except BaseException:
                errors.append((rank, traceback.format_exc()))
                self.abort(None)

        self._rendezvous = {} if self._closed_form_eligible(main) else None

        t0 = _time.monotonic()
        if self.backend == "cooperative":
            self._run_cooperative(worker, errors)
        else:
            from .processes import run_processes  # local import, no cycle
            run_processes(self, worker, timeout, errors, returns)
        wall = _time.monotonic() - t0

        return JobResult(
            nprocs=self.nprocs,
            returns=returns,
            clocks=[c.clock.now for c in self.rank_contexts],
            failure=self.failure,
            errors=errors,
            sent_counts=[c.sent_count for c in self.rank_contexts],
            sent_bytes=[c.sent_bytes for c in self.rank_contexts],
            wall_seconds=wall,
            real_kills=list(self.real_kills),
        )

    def _closed_form_eligible(self, main: Callable) -> bool:
        """May this launch evaluate collectives in closed form?

        A closed-form collective reorders fibers (every rank parks once,
        the last arriver runs the whole algorithm), so it is used only
        when no rank can observe fiber order: one cooperative loop holds
        every rank, no unfired fault spec can fire mid-collective, and
        the job body does not declare out-of-band control traffic — the
        C3 layer's job body declares it for jobs with a checkpoint timer
        or a restore (:func:`repro.core.ccc._c3_exchanges_control`), whose
        ranks consume control messages at fiber-order-dependent points.
        Decided once per launch, so every rank uses the same driver
        (DESIGN.md §2.5).
        """
        if self.backend != "cooperative" or self.fault_plan.unfired():
            return False
        declares = getattr(main, "_exchanges_control", None)
        return declares is None or not declares(*self._job_args)

    def _run_cooperative(self, worker: Callable[[int], None],
                         errors: List[Tuple[int, str]]) -> None:
        """Run every rank as a fiber under the deterministic scheduler.

        The scheduling step itself checks the wall deadline between
        switches and detects true deadlocks (all ranks blocked, no
        predicate true) instantly.
        """
        self.scheduler = CooperativeScheduler(self)
        for mb in self.mailboxes:
            mb.bind_scheduler(self.scheduler)
        self.scheduler.run(worker, deadline=self._deadline, errors=errors)


def run_job(nprocs: int, main: Callable, args: Tuple = (),
            machine: MachineModel = TESTING,
            fault_plan: Optional[FaultPlan] = None, seed: int = 0,
            wall_timeout: float = 300.0,
            engine: Optional[str] = None) -> JobResult:
    """Convenience wrapper: build an :class:`Engine` and run one job.

    ``engine`` selects the engine (:func:`resolve_backend`):
    ``"cooperative"`` (the default — deterministic rank fibers, scales
    to paper process counts) or ``"processes[:N]"``.  ``None`` defers to
    the ``REPRO_ENGINE`` environment variable, then the default.
    """
    eng = Engine(nprocs, machine=machine, fault_plan=fault_plan, seed=seed,
                 wall_timeout=wall_timeout, engine=engine)
    return eng.run(main, args=args)
