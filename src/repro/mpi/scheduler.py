"""Deterministic cooperative rank scheduler.

The execution model of the :class:`~repro.mpi.engine.Engine` — the one
in-process path every backend runs ranks on (the sharded and processes
backends run one of these loops per worker).  Each rank's ``main`` runs
as a *fiber*: a task that executes until it reaches a blocking point — a
mailbox wait (``Recv``/``Wait``/``Probe``, collective internals, the C3
checkpoint coordination paths) or a failed non-blocking completion check
(``Test``/``Iprobe`` spin loops) — and then yields.  Exactly one rank
executes at any instant, so

* the schedule is **deterministic**: runnable ranks are serviced from a
  FIFO queue seeded in rank order, and blocked ranks are woken in rank
  order, so a job's message matching, virtual clocks, and fault
  delivery points are a pure function of the program and the fault
  plan — every run of the same job is bit-identical;
* the mailbox needs **no locks and no condition variables**: all
  matching state is mutated by whichever single task is running, and a
  delivery or notification is a note in the scheduler's dirty set;
* **wakeups are exact**: a dirty rank's wait predicate is re-evaluated,
  and exactly the ranks whose predicate became true (or that have a due
  fault to observe) are resumed — there are no notify-all storms and no
  timeout polls;
* **deadlock is detected instantly**: when every live rank is blocked
  and no wait predicate holds, no future delivery can occur (only
  ranks send), so the scheduler declares deadlock immediately instead
  of waiting out a wall-clock timeout.

CPython cannot suspend an arbitrary call stack (no first-class
continuations, and ``greenlet`` is not a dependency), so each fiber is
*carried* by a parked OS thread with a small stack.  A carrier parks on
a raw ``_thread`` lock born held — a ``threading.Semaphore`` is a
pure-Python condition variable that allocates a fresh lock on every
blocking acquire, a raw lock is one C call each way.

**Hand-off.** A parking task runs the scheduling step itself: it files
itself (blocked, yielded or done), re-examines the dirty ranks, pops the
FIFO head and releases that carrier's lock directly — one OS hand-off
per switch instead of a trip through the run loop and back.  If the
head is the parking task itself it simply keeps running.  The run loop
(the thread that called :meth:`CooperativeScheduler.run`) gets the
baton back only when the step cannot name a successor, and keeps every
job the parking task cannot do:

* quiescence and deadlock — no task runnable, ask :meth:`_on_quiescent`
  (the sharded worker's master link), else declare deadlock;
* the :meth:`_on_idle_spin` hook after a run of no-progress switches;
* the ``HANDOFF_GRACE`` watchdog: it waits for the baton at most until
  the job's wall deadline plus the grace, then abandons the task that
  never yielded;
* the end of the run — joining the finished carriers, so none outlives
  :meth:`run`.

Abort and wall-deadline handling is part of the step, so whichever
thread holds the baton wakes every blocked rank once the job aborts or
its deadline passes.  Switch counts, the FIFO order and the rank-ordered
wakeups are exactly those of a loop that resumes every task itself.

Rank code must reach its blocking points *through the simulated MPI
layer*: a task that blocks on a bare OS primitive (``Event.wait``,
``time.sleep`` loops) stalls the job, because it holds the baton without
yielding.  The run loop's watchdog abandons such a task (its daemon
carrier leaks, flagged ``RankTask.leaked``) and the job aborts with an
engine-watchdog error.

See DESIGN.md section 4 for the execution-model contract.
"""

from __future__ import annotations

import threading
import time as _time
from _thread import allocate_lock
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set

from .errors import DeadlockError, JobAborted

#: task states
_RUNNING = "running"
_BLOCKED = "blocked"
_YIELDED = "yielded"
_DONE = "done"


def _held_lock():
    """A raw lock born held: ``acquire`` parks until someone releases it."""
    lock = allocate_lock()
    lock.acquire()
    return lock


class RankTask:
    """One rank's fiber: a parked carrier thread plus scheduling state."""

    __slots__ = ("rank", "lock", "thread", "state", "predicate", "leaked")

    def __init__(self, rank: int):
        self.rank = rank
        #: the carrier parks here whenever the task is not scheduled
        self.lock = _held_lock()
        self.thread: Optional[threading.Thread] = None
        self.state = _YIELDED
        #: wait predicate registered by the current blocking operation
        self.predicate: Optional[Callable[[], bool]] = None
        #: True once the watchdog abandoned a non-yielding task
        self.leaked = False


class CooperativeScheduler:
    """One rank fiber at a time, handed off directly between carriers."""

    #: carrier-thread stack size: tasks never recurse deeply, and with
    #: one runner at a time there is no per-thread working set beyond
    #: the (lazily committed) stack — 512 KiB bounds a 1024-rank job to
    #: 0.5 GiB of *virtual* address space
    STACK_BYTES = 512 << 10

    #: extra wall-clock grace beyond the job deadline before the run
    #: loop abandons a task that never yields (non-MPI blocking call)
    HANDOFF_GRACE = 30.0

    #: consecutive no-progress switches (yield/block with no mailbox
    #: activity) before :meth:`_on_idle_spin` fires; a no-op hook here,
    #: overridden by the sharded worker loop to poll its master pipe so
    #: Test/Iprobe spinners waiting on cross-shard traffic make progress
    SPIN_HOOK_EVERY = 64

    def __init__(self, engine, ranks=None):
        self.engine = engine
        #: the subset of ranks this loop runs (None = all engine ranks);
        #: the sharded backend runs one loop per simulated-node group
        self.ranks = None if ranks is None else [int(r) for r in ranks]
        #: the run loop parks here while the baton is with the tasks
        self._main = _held_lock()
        self._current: Optional[RankTask] = None
        #: ranks whose mailbox saw activity since they blocked (mailboxes
        #: bound to this scheduler add to this very set)
        self._dirty: Set[int] = set()
        self._blocked: Dict[int, RankTask] = {}
        self._runnable: Deque[RankTask] = deque()
        self._live = 0
        self._idle_spins = 0
        #: set by the parking task that found :meth:`_on_idle_spin` due
        self._spin_hook_due = False
        self._deadline = 0.0
        #: set when every live rank is blocked with no wakeup possible;
        #: observed by parked tasks, which unwind with DeadlockError
        self.deadlocked = False
        self._deadlock_ranks: List[int] = []
        self._tasks: List[RankTask] = []
        #: statistics: fiber context switches performed
        self.switches = 0

    # -- task-side suspension points ---------------------------------------
    def wait(self, predicate: Callable[[], bool],
             poll: Optional[Callable[[], None]] = None) -> None:
        """Park the running fiber until the predicate holds or the job
        aborts/deadlocks.

        The predicate is checked before the abort flag (an operation
        whose match already arrived completes even under abort), and
        ``poll`` runs on every wakeup in the task's own context so due
        faults and deadline errors raise on the right rank.
        """
        task = self._current
        abort = self.engine.abort_event
        while True:
            if predicate():
                return
            if abort.is_set():
                raise JobAborted()
            if self.deadlocked:
                raise DeadlockError(self._deadlock_message())
            if poll is not None:
                poll()
                if predicate():
                    return
            task.predicate = predicate
            self._park(task, _BLOCKED)

    def yield_now(self) -> None:
        """Fairness point: hand the loop one turn, stay runnable.

        Called on failed non-blocking completion checks so ``Test`` /
        ``Iprobe`` spin loops let their peers progress instead of
        monopolizing the single runner.
        """
        task = self._current
        if task is not None:
            self._park(task, _YIELDED)

    def _park(self, task: RankTask, state: str) -> None:
        """File ``task`` as ``state`` and pass the baton on."""
        if task.leaked:  # pragma: no cover - abandoned by the watchdog
            if state is not _DONE:
                task.lock.acquire()  # touch nothing; never resumed
            return
        task.state = state
        nxt = self._step(task)
        if nxt is task:
            task.state = _RUNNING
            return
        (self._main if nxt is None else nxt.lock).release()
        if state is not _DONE:
            task.lock.acquire()
            task.state = _RUNNING

    def _deadlock_message(self) -> str:
        return (f"cooperative deadlock: all live ranks blocked with no "
                f"matching traffic possible "
                f"(blocked ranks: {self._deadlock_ranks})")

    # -- the scheduling step -------------------------------------------------
    def _step(self, task: RankTask) -> Optional[RankTask]:
        """File a parking task, then name (and count) its successor.

        ``None`` hands the baton back to the run loop: no task is
        runnable, the idle-spin hook is due, or every task is done.
        """
        state = task.state
        if state is _DONE:
            self._live -= 1
            self._idle_spins = 0
        elif state is _BLOCKED:
            self._blocked[task.rank] = task
            self._idle_spins += 1
        else:  # _YIELDED: round-robin to the back of the queue
            self._runnable.append(task)
            self._idle_spins += 1
        if self._dirty:
            self._idle_spins = 0
        elif self._idle_spins >= self.SPIN_HOOK_EVERY:
            self._idle_spins = 0
            self._spin_hook_due = True
            return None
        if not self._live:
            return None
        nxt = self._next_runnable()
        if nxt is not None:
            self._current = nxt
            self.switches += 1
        return nxt

    def _next_runnable(self) -> Optional[RankTask]:
        """Apply aborts and wakeups, then pop the FIFO head (if any)."""
        blocked = self._blocked
        runnable = self._runnable
        if (self.engine.abort_event.is_set()
                or _time.monotonic() > self._deadline):
            # Wake everything: blocked tasks observe the abort flag
            # (JobAborted) or the expired deadline (their poll's
            # check_deadline raises DeadlockError and aborts).
            for r in sorted(blocked):
                runnable.append(blocked.pop(r))
            self._dirty.clear()
        elif self._dirty:
            # Exact wakeups: only dirty ranks are re-examined, and only
            # those whose predicate holds (or that must observe a due
            # fault) are resumed — in rank order.
            wake = self._dirty & blocked.keys()
            self._dirty.clear()
            contexts = self.engine.rank_contexts
            for r in sorted(wake):
                task = blocked[r]
                if task.predicate() or contexts[r].has_due_fault:
                    del blocked[r]
                    runnable.append(task)
        return runnable.popleft() if runnable else None

    # -- extension hooks (overridden by the sharded worker loop) -----------
    def _on_quiescent(self) -> bool:
        """All live ranks are blocked and no wait predicate holds.

        Return True if external traffic may still arrive (the override
        marks ranks dirty after delivering it); False means quiescence
        is final and the loop declares deadlock.  A single-loop run has
        no external traffic source, so the default is final.
        """
        return False

    def _on_idle_spin(self) -> None:
        """Ran after :data:`SPIN_HOOK_EVERY` consecutive switches with
        no mailbox activity — runnable ranks are spinning in
        non-blocking completion checks with nothing arriving."""

    # -- carriers ------------------------------------------------------------
    def _start_carriers(self, body: Callable[[int], None]) -> None:
        def carrier(task: RankTask) -> None:
            task.lock.acquire()         # wait to be scheduled the first time
            task.state = _RUNNING
            try:
                body(task.rank)         # never raises (engine worker wrapper)
            finally:
                self._park(task, _DONE)

        old_stack = threading.stack_size()
        try:
            threading.stack_size(self.STACK_BYTES)
        except (ValueError, RuntimeError):  # pragma: no cover - platform quirk
            pass
        try:
            for task in self._tasks:
                task.thread = threading.Thread(
                    target=carrier, args=(task,), daemon=True,
                    name=f"coop-rank-{task.rank}")
                task.thread.start()
        finally:
            try:
                threading.stack_size(old_stack)
            except (ValueError, RuntimeError):  # pragma: no cover
                pass

    # -- the run loop ----------------------------------------------------------
    def run(self, body: Callable[[int], None], deadline: float,
            errors: List) -> None:
        """Execute ``body(rank)`` for every rank to completion."""
        engine = self.engine
        ranks = self.ranks if self.ranks is not None else range(engine.nprocs)
        self._tasks = [RankTask(r) for r in ranks]
        self._runnable.extend(self._tasks)
        self._live = len(self._tasks)
        self._deadline = deadline
        self._start_carriers(body)
        try:
            self._loop(deadline, errors)
        finally:
            # A finished carrier releases its successor and then exits;
            # join it so no carrier thread outlives the run.
            for task in self._tasks:
                if task.state is _DONE:
                    task.thread.join()

    def _loop(self, deadline: float, errors: List) -> None:
        while self._live:
            if self._spin_hook_due:
                self._spin_hook_due = False
                self._on_idle_spin()
            task = self._next_runnable()
            if task is None:
                if not self._blocked:  # pragma: no cover - defensive
                    break
                # Every live rank is blocked and no predicate holds.  In
                # a sharded run another shard (or an in-transit envelope)
                # may still wake us: ask the hook before giving up.
                if self._on_quiescent():
                    continue
                # No rank can ever deliver again — instant deadlock.
                # Wake them so each unwinds with DeadlockError/JobAborted.
                # A hook that already learned the global picture (sharded
                # master naming blocked ranks on every shard) has set
                # _deadlock_ranks itself; keep its list in that case.
                self.deadlocked = True
                if not self._deadlock_ranks:
                    self._deadlock_ranks = sorted(self._blocked)
                for r in sorted(self._blocked):
                    self._runnable.append(self._blocked.pop(r))
                continue
            self._current = task
            self.switches += 1
            task.lock.release()
            # The baton now travels between carriers; it comes back when
            # a step cannot name a successor.
            budget = max(1.0, deadline + self.HANDOFF_GRACE
                         - _time.monotonic())
            if self._main.acquire(timeout=budget):
                continue
            # The running task never yielded: it is stuck in a non-MPI
            # blocking call or an unbounded compute.  Abandon it (daemon
            # carrier leaks) and fail the job.
            stuck = self._current  # pragma: no cover - degraded mode
            stuck.leaked = True  # pragma: no cover
            errors.append((  # pragma: no cover
                -1,
                f"cooperative engine watchdog: rank {stuck.rank} never "
                f"yielded (blocked outside the simulated MPI layer?)"))
            self.engine.abort(None)  # pragma: no cover
            self._live -= 1  # pragma: no cover
