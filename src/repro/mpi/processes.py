"""``engine="processes"``: real OS processes, real SIGKILL crashes.

The cooperative engine *simulates* a fail-stop fault as a Python unwind
inside one process.  This engine makes the paper's fault model literal:
a job's ranks are partitioned **by simulated node** across forked
worker processes ("shards"; ``processes:N`` packs the nodes into N of
them, the default is one per node).  Each shard runs its nodes' ranks
under the deterministic cooperative loop (:mod:`repro.mpi.scheduler`);
only cross-shard sends leave the process, as pickled envelopes over
pipes to a master that routes them under the conservative delivery
bound of :mod:`repro.mpi.lookahead`.  A fault is a real ``SIGKILL`` of
the victim's node process — no ``finally`` blocks, no flushes, no
goodbye — so checkpoint state staged but not yet durable is genuinely
lost, which is precisely the crash application-level checkpointing must
survive.  Co-located ranks die with the victim, which fail-stop allows:
the recovery line is global anyway.

Why this shape:

* **fork, not multiprocessing** — campaign pool workers are daemonic
  processes, which may not spawn ``multiprocessing`` children; a raw
  ``os.fork`` has no such restriction, and the child inherits the whole
  engine (contexts, mailboxes, fault plan, the rank ``main`` closure)
  without any of it having to be picklable;
* **strict quiescence epochs** — the master releases cross-shard
  envelopes only when *no* shard is running (every shard is blocked at
  a barrier, soft-spinning, or done).  Each shard's input batches are
  then a pure function of the prior epochs, never of wall-clock races,
  which is what makes a run reproducible against itself.  Every waking
  message carries a per-shard epoch stamp that the worker echoes in its
  statuses, so a status written before a wake — but read after it —
  can never regress the master's view of a running shard;
* **bitwise against the cooperative oracle** — for schedule-independent
  kernels (wildcard matching pinned per source, senders serialized by
  barriers), per-stream FIFO release preserves exactly the arrival
  orders matching depends on, so a clean run's
  :class:`~repro.mpi.engine.JobResult` (returns, clocks, sent counts)
  is bit-identical to the cooperative engine's;
* **always a fork** — even a one-node job runs in a child: a fault
  could never really kill the caller.

Cross-shard semantics beyond messages:

* **abort** is a byte in anonymous shared memory (:class:`SharedFlag`),
  so a death in one shard is observed by every rank's next MPI call in
  every shard without a round-trip;
* **deadlock** is global: when every shard reports quiescence and no
  envelope is in transit, the master names the union of blocked ranks
  and every rank unwinds with the same
  :class:`~repro.mpi.errors.DeadlockError` message the cooperative
  engine would have produced;
* **faults**: a structural fault (``at_epoch``, ``in_collective``,
  ``at_commit``, ...) fires inside the victim process at the exact
  deterministic point the cooperative oracle would fire it, where the
  :class:`~repro.mpi.faults.FaultPlan` kill hook sends one dying-breath
  ``"dy"`` frame (injection bookkeeping only: victim rank, virtual
  time, fired spec indices — never application or storage state) and
  SIGKILLs the process.  An ``at_time`` fault comes due when *any*
  rank's clock crosses it — the master tracks the global clock
  high-water from shard statuses and SIGKILLs the victim's node process
  itself.  Every death is waitpid-confirmed before its evidence lands
  in :attr:`JobResult.real_kills <repro.mpi.engine.JobResult>`;
* **storage**: checkpoint stores found in the job args are wrapped
  per-shard in a :class:`~repro.storage.store.RecordingStore`; commit
  notices travel through the master at epoch boundaries (so GC floors
  converge).  Workers write through to a medium every process shares
  — real disk, or a scratch-directory copy of private memory that the
  parent writes back — and each store reloads from its bytes after the
  run, so a restart (:func:`repro.core.ccc.resume_from_manifest`) sees
  exactly what group commit made durable before the crash.  A killed
  node's staged log tail is lost whole; surviving nodes flush theirs on
  abort, matching the cooperative engine's survivors-drain semantics.

``repro.harness.procstudy`` runs the campaign matrix on both engines
and diffs the rows under the real-kill tolerance contract.  See
DESIGN.md section 12 for the protocol and determinism argument.
"""

from __future__ import annotations

import io
import mmap
import os
import pickle
import select
import shutil
import signal
import struct
import tempfile
import time as _time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from .errors import ProcessFailure
from .lookahead import LookaheadWindow
from .scheduler import CooperativeScheduler

__all__ = ["SharedFlag", "plan_shards", "run_processes"]

_LEN = struct.Struct("<I")

#: shard states tracked by the master
_BUSY, _WAIT, _SOFT, _EXITED = "busy", "wait", "soft", "exited"


class SharedFlag:
    """A one-byte abort flag in anonymous shared memory.

    Duck-types the slice of :class:`threading.Event` the engine uses
    (``is_set``/``set``) but is inherited across ``fork``, so
    a rank killed in one shard aborts every other shard's ranks at
    their next MPI call — the same fail-stop observation points as the
    single-process engine, at the cost of one shared-memory byte read.
    """

    def __init__(self):
        self._map = mmap.mmap(-1, 1)
        self._map[0] = 0

    def is_set(self) -> bool:
        return self._map[0] != 0

    def set(self) -> None:
        self._map[0] = 1


def plan_shards(nprocs: int, procs_per_node: int, n_shards: int
                ) -> List[List[int]]:
    """Contiguous node blocks -> shards; ranks of one node never split.

    The shard boundary is the simulated node: co-located ranks share a
    drain device and (for the WAL) a node log, so keeping a node whole
    keeps all per-node state single-writer.  ``n_shards`` is clamped to
    the node count.  The split is deterministic: first
    ``n_nodes % n_shards`` shards get one extra node.
    """
    ppn = max(1, int(procs_per_node))
    n_nodes = (nprocs + ppn - 1) // ppn
    n_shards = max(1, min(int(n_shards), n_nodes))
    base, extra = divmod(n_nodes, n_shards)
    shards: List[List[int]] = []
    node = 0
    for s in range(n_shards):
        take = base + (1 if s < extra else 0)
        lo = node * ppn
        hi = min(nprocs, (node + take) * ppn)
        shards.append(list(range(lo, hi)))
        node += take
    return shards


# -- pipe framing ------------------------------------------------------------
#
# Readers are UNBUFFERED (``os.fdopen(fd, "rb", buffering=0)``): both
# loops gate reads on ``select()`` of the raw fd, and a buffered reader
# would slurp whole frames into a Python-level buffer that select cannot
# see, stranding the second of two back-to-back frames until unrelated
# traffic arrives.  Raw reads may return short, so frames are assembled
# with exact-length loops.

def _write_msg(fd: int, obj: Any) -> None:
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    data = _LEN.pack(len(blob)) + blob
    view = memoryview(data)
    while view:
        n = os.write(fd, view)
        view = view[n:]


def _read_exact(reader: io.RawIOBase, length: int) -> bytes:
    buf = bytearray()
    while len(buf) < length:
        chunk = reader.read(length - len(buf))
        if not chunk:
            raise EOFError("shard pipe closed"
                           + (" mid-frame" if buf else ""))
        buf.extend(chunk)
    return bytes(buf)


def _read_msg(reader: io.RawIOBase) -> Any:
    (length,) = _LEN.unpack(_read_exact(reader, _LEN.size))
    return pickle.loads(_read_exact(reader, length))


def _wait_readable(fd: int, timeout: Optional[float]) -> bool:
    while True:
        try:
            ready, _, _ = select.select([fd], [], [], timeout)
            return bool(ready)
        except InterruptedError:  # pragma: no cover - signal noise
            continue


# -- worker side -------------------------------------------------------------

class _RemoteMailbox:
    """Mailbox stand-in for a rank living on another shard.

    ``deliver`` captures the envelope into the worker's outbox (with the
    sending world rank — exactly one fiber runs at a time, so the
    scheduler's current task is the sender); ``notify`` is a no-op
    (aborts reach remote ranks through the shared flag and the master).
    """

    __slots__ = ("rank", "_worker")

    def __init__(self, rank: int, worker: "_ShardWorker"):
        self.rank = rank
        self._worker = worker

    def deliver(self, env) -> None:
        self._worker.capture_send(env)

    def notify(self) -> None:
        pass


class _ShardScheduler(CooperativeScheduler):
    """Cooperative loop for one shard's ranks, with master hooks."""

    def __init__(self, engine, ranks, worker: "_ShardWorker"):
        super().__init__(engine, ranks=ranks)
        self._worker = worker

    def _on_quiescent(self) -> bool:
        return self._worker.on_quiescent(self)

    def _on_idle_spin(self) -> None:
        self._worker.on_idle_spin(self)


class _ShardWorker:
    """Everything one forked shard process does."""

    def __init__(self, engine, shard: int, ranks: List[int],
                 rfd: int, wfd: int, deadline: float):
        self.engine = engine
        self.shard = shard
        self.ranks = ranks
        self.local = set(ranks)
        self.rfd = rfd
        self.wfd = wfd
        self.reader = os.fdopen(rfd, "rb", buffering=0)
        self.deadline = deadline
        #: epoch of the last master message processed, echoed in every
        #: status so the master can spot statuses written before a grant
        self.epoch = 0
        self.outbox: List[Tuple[int, Any]] = []
        self.sched: Optional[_ShardScheduler] = None
        #: recording stores substituted into the job args
        self.stores: List[Any] = []

    # -- plumbing -----------------------------------------------------------
    def capture_send(self, env) -> None:
        src = self.sched._current.rank
        self.outbox.append((src, env))

    def _drain_notices(self) -> List[Tuple[int, int]]:
        notices: List[Tuple[int, int]] = []
        for store in self.stores:
            notices.extend(store.take_notices())
        return notices

    def _send_status(self, kind: str, floor: Optional[float],
                     blocked: List[int]) -> None:
        clock_high = max(
            (self.engine.rank_contexts[r].clock.now for r in self.ranks),
            default=0.0)
        outbox, self.outbox = self.outbox, []
        _write_msg(self.wfd, ("st", self.shard, kind, floor, blocked,
                              clock_high, outbox, self._drain_notices(),
                              self.epoch))

    def _handle(self, msg, sched: _ShardScheduler) -> bool:
        """Apply one master message; False ends the loop in deadlock."""
        tag = msg[0]
        self.epoch = msg[-1]  # every master message carries the epoch
        if tag == "gr":
            _tag, items, notices, _epoch = msg
            for store in self.stores:
                store.apply_remote_commits(notices)
            for _src, env in items:
                self.engine.mailboxes[env.dest].deliver(env)
            return True
        if tag == "dl":
            sched._deadlock_ranks = list(msg[1])
            return False
        # "wk": wake — the loop re-checks abort/deadline itself
        return True

    # -- scheduler hooks ----------------------------------------------------
    def on_quiescent(self, sched: _ShardScheduler) -> bool:
        # Drain anything the master sent while we were running, so a
        # spontaneous message (a wake) is never mistaken
        # for the reply to the status we are about to send.
        drained = False
        while _wait_readable(self.rfd, 0.0):
            if not self._handle(_read_msg(self.reader), sched):
                return False
            drained = True
        if drained:
            return True
        if self.engine.abort_event.is_set():
            return True  # the loop's own abort path wakes everyone
        self._send_status("b", None, sorted(sched._blocked))
        budget = self.deadline + CooperativeScheduler.HANDOFF_GRACE \
            - _time.monotonic()
        if not _wait_readable(self.rfd, max(1.0, budget)):
            # Master gone silent past the wall deadline: abort locally.
            self.engine.abort(None)  # pragma: no cover - degraded mode
            return True  # pragma: no cover
        try:
            msg = _read_msg(self.reader)
        except EOFError:  # pragma: no cover - master died
            self.engine.abort(None)
            return True
        return self._handle(msg, sched)

    def on_idle_spin(self, sched: _ShardScheduler) -> None:
        # Runnable ranks are spinning in Test/Iprobe loops with nothing
        # arriving: publish a soft status (finite floor — we might still
        # send) and poll the master without blocking.
        floor = min(
            (self.engine.rank_contexts[t.rank].clock.now
             for t in sched._tasks if t.state == "yielded"),
            default=None)
        self._send_status("s", floor, sorted(sched._blocked))
        while _wait_readable(self.rfd, 0.0):
            try:
                msg = _read_msg(self.reader)
            except EOFError:  # pragma: no cover - master died
                self.engine.abort(None)
                return
            if not self._handle(msg, sched):  # pragma: no cover - stale race
                # A deadlock verdict while ranks are still spinning can
                # only follow a master/worker state divergence (the
                # epoch stamps make that unreachable); do not leave a
                # half-applied verdict — drop the rank list and degrade
                # to an abort so the loop actually terminates.
                sched._deadlock_ranks = []
                self.engine.abort(None)
                return

    # -- fault delivery ------------------------------------------------------
    def _real_die(self, spec, rank: int, now: float) -> None:
        """Fault-plan kill hook: SIGKILL this node process at the fire
        site.

        One dying-breath ``"dy"`` frame first — injection *bookkeeping*
        only (victim rank, virtual fire time, fired spec indices), never
        application or storage state, so recovery can never depend on a
        message a real crash would not have sent.  Then the process
        kills itself with SIGKILL: no Python unwind, no ``finally``
        blocks, no flushes — staged checkpoint state not yet durable is
        genuinely lost.  Never returns.
        """
        plan = self.engine.fault_plan
        index = {id(s): i for i, s in enumerate(plan.all_specs())}
        fired = sorted(index[id(s)] for s in plan.fired if id(s) in index)
        try:
            _write_msg(self.wfd, ("dy", self.shard,
                                  (rank, now, spec.reason), fired))
        except OSError:  # pragma: no cover - master already gone
            pass
        os.kill(os.getpid(), signal.SIGKILL)
        os._exit(1)  # pragma: no cover - unreachable (SIGKILL lands first)

    # -- lifecycle ----------------------------------------------------------
    def install(self, disks: Dict[int, Any]) -> None:
        """Rewire the forked engine copy for this shard; ``disks`` maps
        ``id()`` of each private medium to its scratch copy."""
        engine = self.engine
        self.sched = _ShardScheduler(engine, self.ranks, self)
        engine.scheduler = self.sched
        # Post-fork, child-only: the parent's plan keeps simulated
        # delivery, this copy SIGKILLs at every fire site (check(),
        # reached(), and the scheduled-fault delivery path alike).
        engine.fault_plan._kill_hook = self._real_die
        for r in range(engine.nprocs):
            if r in self.local:
                engine.mailboxes[r].bind_scheduler(self.sched)
            else:
                engine.mailboxes[r] = _RemoteMailbox(r, self)
        # Substitute recording wrappers for every checkpoint store in
        # the job args (remote commit notices overlay the fork-private
        # view), each first pointed at the scratch copy of a private
        # medium so its writes outlive this process.
        from ..storage.store import CheckpointStore, RecordingStore
        args = list(engine._job_args)
        seen: Dict[int, Any] = {}
        for pos, value in enumerate(args):
            if isinstance(value, CheckpointStore):
                wrapper = seen.get(id(value))
                if wrapper is None:
                    _repoint(value, disks)
                    wrapper = RecordingStore(value)
                    seen[id(value)] = wrapper
                    self.stores.append(wrapper)
                args[pos] = wrapper
        engine._job_args = tuple(args)

    def run(self, body: Callable[[int], None],
            returns: List[Any], errors: List) -> None:
        self.sched.run(body, deadline=self.deadline, errors=errors)
        engine = self.engine
        if engine.abort_event.is_set():
            # Surviving nodes of a real kill drain their staged tails
            # before exiting — the same survivors-flush semantics the
            # cooperative engine applies in store.on_job_end (which
            # cannot reach state staged inside this process).  The
            # *killed* node never gets here: its staged tail is lost
            # whole.
            for store in self.stores:
                try:
                    store.flush()
                except Exception:  # noqa: BLE001 - crash-grade abandon
                    pass
        spec_index = {id(s): i
                      for i, s in enumerate(engine.fault_plan.all_specs())}
        report = {
            "returns": {r: returns[r] for r in self.ranks},
            "clocks": {r: engine.rank_contexts[r].clock.now
                       for r in self.ranks},
            "sent_counts": {r: engine.rank_contexts[r].sent_count
                            for r in self.ranks},
            "sent_bytes": {r: engine.rank_contexts[r].sent_bytes
                           for r in self.ranks},
            "errors": list(errors),
            # A fault never reaches here (its kill hook SIGKILLs the
            # process); this is an MPI_Abort.  ProcessFailure does not
            # pickle round-trip (its args hold the formatted message,
            # not the constructor arguments), so ship the fields and
            # rebuild on the parent side.
            "failure": None if engine.failure is None else
                       (engine.failure.rank, engine.failure.time,
                        engine.failure.reason),
            "fired": sorted(spec_index[id(s)]
                            for s in engine.fault_plan.fired
                            if id(s) in spec_index),
            "outbox": self.outbox,
            "notices": self._drain_notices(),
        }
        try:
            _write_msg(self.wfd, ("ex", self.shard, report))
        except (pickle.PicklingError, TypeError):
            report["returns"] = {r: None for r in self.ranks}
            report["errors"] = list(errors) + [
                (self.ranks[0], "processes engine: shard report was "
                                "not picklable (unpicklable return "
                                "value?)")]
            _write_msg(self.wfd, ("ex", self.shard, report))


def _repoint(store, disks: Dict[int, Any]) -> None:
    """Point the link of ``store``'s backend chain that names a staged
    medium at its scratch disk; proxies above the link stay in place."""
    owner, attr, link = store, "backend", store.backend
    while link is not None:
        disk = disks.get(id(link))
        if disk is not None:
            setattr(owner, attr, disk)
            return
        owner, attr, link = link, "inner", link.inner


def _worker_main(engine, shard: int, ranks: List[int], rfd: int, wfd: int,
                 deadline: float, disks: Dict[int, Any],
                 body: Callable[[int], None],
                 returns: List[Any], errors: List) -> None:
    """Child-process entry; never returns (``os._exit``)."""
    status = 0
    try:
        worker = _ShardWorker(engine, shard, ranks, rfd, wfd, deadline)
        worker.install(disks)
        worker.run(body, returns, errors)
    except BaseException:
        status = 1
        try:
            _write_msg(wfd, ("cr", shard, traceback.format_exc()))
        except OSError:
            pass
    finally:
        # Skip atexit/IO teardown of the forked interpreter: the parent
        # owns stdout, coverage hooks, pytest capture, etc.
        os._exit(status)


# -- master side -------------------------------------------------------------

class _ShardHandle:
    __slots__ = ("shard", "ranks", "pid", "rfd", "wfd", "reader", "state",
                 "blocked", "report", "notices_sent", "epoch")

    def __init__(self, shard: int, ranks: List[int]):
        self.shard = shard
        self.ranks = ranks
        self.pid = -1
        self.rfd = -1
        self.wfd = -1
        self.reader: Optional[io.RawIOBase] = None
        self.state = _BUSY
        self.blocked: List[int] = []
        self.report: Optional[dict] = None
        #: how many global store notices this shard has been sent
        self.notices_sent = 0
        #: bumped on every waking message sent to this shard; a status
        #: echoing an older epoch was written before the wake and must
        #: not regress the shard's state (see absorb())
        self.epoch = 0


def run_processes(engine, body: Callable[[int], None], timeout: float,
                  errors: List, returns: List[Any]) -> None:
    """Fork one worker per shard and route cross-shard traffic.

    ``engine.backend`` is ``"processes"`` (one shard per simulated
    node) or ``"processes:N"`` (at most N shards).  Mutates
    ``errors``/``returns`` and the engine's rank contexts in place,
    exactly like the cooperative run loop, so ``Engine.run`` assembles
    the :class:`JobResult` the same way for both engines.

    Fault specs are delivered as actual SIGKILLs to the victim's node
    process — structural faults self-deliver at the fire site inside
    the child (one dying-breath ``"dy"`` frame, then SIGKILL), ``at_time``
    victims are killed by this coordinator directly — and every death
    is confirmed by waitpid status before its evidence lands in
    ``engine.real_kills``.  Checkpoint stores in the job args come back
    by reload alone (a private medium is staged, :func:`_stage`).
    """
    from ..storage.store import CheckpointStore
    stores = {id(a): a for a in engine._job_args
              if isinstance(a, CheckpointStore)}
    private: Dict[int, Any] = {}
    for store in stores.values():
        medium = store.backend
        while medium.inner is not None:
            medium = medium.inner
        if not medium.shared_across_fork:
            private[id(medium)] = medium
    root = tempfile.mkdtemp(prefix="repro-processes-") if private else None
    staged: Dict[int, Tuple] = {}
    try:
        for key, medium in private.items():
            staged[key] = _stage(medium, os.path.join(root, str(len(staged))))
        _run_shards(engine, body, errors, returns,
                    {key: disk for key, (disk, _) in staged.items()})
    finally:
        try:
            for key, (disk, snapshot) in staged.items():
                _hand_back(private[key], disk, snapshot)
        finally:
            if root is not None:
                shutil.rmtree(root, ignore_errors=True)
    for store in stores.values():
        store.reload()


def _stage(medium, root: str) -> Tuple[Any, Dict[str, bytes]]:
    """Copy a private medium, which dies with each node process, into a
    fresh :class:`~repro.storage.stable.DiskStorage` at ``root`` the
    workers write through instead (appends, unsynced: the copy is
    scratch).  Returns the disk and the pre-fork snapshot."""
    from ..storage.stable import DiskStorage, StorageError
    disk = DiskStorage(root)
    snapshot: Dict[str, bytes] = {}
    for path in medium.list():
        try:
            snapshot[path] = medium.read(path)
        except StorageError:
            continue  # deleted meanwhile by a concurrent job
        disk.append(path, snapshot[path])
    return disk, snapshot


def _hand_back(medium, disk, snapshot: Dict[str, bytes]) -> None:
    """Write what the run changed on ``disk`` back into ``medium``: new
    or changed objects and deletions only, so concurrent jobs whose
    namespaces share the medium never overwrite each other."""
    from ..storage.stable import StorageError
    live = disk.list()
    for path in live:
        data = disk.read(path)
        if snapshot.get(path) != data:
            medium.write(path, data)
    for path in snapshot.keys() - set(live):
        try:
            medium.delete(path)
        except StorageError:
            pass  # already gone


def _run_shards(engine, body: Callable[[int], None], errors: List,
                returns: List[Any], disks: Dict[int, Any]) -> None:
    """The fork, routing and merge of one run (see :func:`run_processes`)."""
    count = engine.backend.partition(":")[2]
    # nprocs >= the node count, so the default is one shard per node
    shards = plan_shards(engine.nprocs, engine.machine.procs_per_node,
                         int(count) if count else engine.nprocs)
    flag = SharedFlag()
    if engine.abort_event.is_set():  # pragma: no cover - defensive
        flag.set()
    engine.abort_event = flag

    # Unfired at_time specs in firing order; the master delivers them.
    pending_specs = sorted(
        (s for s in engine.fault_plan.unfired() if s.at_time is not None),
        key=lambda s: (s.at_time, s.rank))
    spec_list = list(engine.fault_plan.all_specs())

    deadline = engine._deadline
    window = LookaheadWindow(len(shards), engine.machine.latency)
    handles: List[_ShardHandle] = []
    shard_of_rank: Dict[int, int] = {}
    for idx, ranks in enumerate(shards):
        for r in ranks:
            window.route(r, idx)
            shard_of_rank[r] = idx
        handles.append(_ShardHandle(idx, ranks))

    for h in handles:
        p2c_r, p2c_w = os.pipe()
        c2p_r, c2p_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(p2c_w)
            os.close(c2p_r)
            for other in handles:
                if other is not h and other.pid > 0:
                    os.close(other.wfd)
                    os.close(other.rfd)
            _worker_main(engine, h.shard, h.ranks, p2c_r, c2p_w,
                         deadline, disks, body, returns, errors)
            raise SystemExit(1)  # pragma: no cover - unreachable
        os.close(p2c_r)
        os.close(c2p_w)
        h.pid = pid
        h.wfd = p2c_w
        h.rfd = c2p_r
        h.reader = os.fdopen(c2p_r, "rb", buffering=0)

    notices_log: List[Tuple[int, int]] = []
    clock_high = 0.0
    #: fail-stop records from real kills (child self-kills reported by
    #: "dy" frames, plus coordinator-delivered at_time kills); folded
    #: into engine.failure by _merge — a killed shard sends no report
    real_failures: List[ProcessFailure] = []

    def confirm_death(h: _ShardHandle) -> Optional[int]:
        """Reap a killed node process; waitpid-confirmed termination
        signal (the acceptance evidence), or None if it somehow exited
        on its own.  Marks the handle so _reap skips the pid."""
        pid, h.pid = h.pid, -1  # -1: _reap must not waitpid again
        try:
            _pid, status = os.waitpid(pid, 0)
        except ChildProcessError:  # pragma: no cover - reaped elsewhere
            return None
        return os.WTERMSIG(status) if os.WIFSIGNALED(status) else None

    def record_kill(h: _ShardHandle, rank: int, now: float, reason: str,
                    pid: int, termsig: Optional[int]) -> None:
        """Fold one confirmed real kill into the master-side run state."""
        h.state = _EXITED
        real_failures.append(ProcessFailure(rank, now, reason))
        engine.real_kills.append({
            "rank": rank, "shard": h.shard, "pid": pid,
            "termsig": termsig,
            "sigkill": termsig == signal.SIGKILL,
            "time": now, "reason": reason,
        })
        window.drop_dest(h.shard)
        flag.set()
        # Wake blocked survivors immediately: they observe the abort
        # flag at their next poll and unwind — fail-stop detection with
        # no dependence on the select loop's timeout.
        for other in handles:
            if other.state == _WAIT:
                post(other, "wk")
                other.state = _BUSY

    def strike(h: _ShardHandle, spec) -> None:
        """Coordinator-delivered at_time kill: SIGKILL the node process.

        Mirrors the cooperative rule that an ``at_time`` fault fires
        when *any* rank's clock crosses it: a victim blocked at the
        quiescence barrier cannot self-deliver, so the coordinator
        kills its process directly.  The failure record uses the spec's
        own time — deterministic, like the blocked victim's frozen
        clock under the cooperative engine.
        """
        pid = h.pid
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:  # pragma: no cover - lost the race
            pass
        termsig = confirm_death(h)
        engine.fault_plan.mark_fired(spec)
        record_kill(h, spec.rank, spec.at_time, spec.reason, pid, termsig)

    def post(h: _ShardHandle, *parts) -> None:
        """Send a waking message, stamped with a bumped shard epoch.

        The worker echoes the epoch of the last master message it has
        processed in every status, so a status written *before* this
        message — possibly still sitting in the pipe — is recognizably
        stale and cannot regress the shard's master-side state.
        """
        h.epoch += 1
        try:
            _write_msg(h.wfd, parts + (h.epoch,))
        except (BrokenPipeError, OSError):  # pragma: no cover - child died
            pass

    def grant(h: _ShardHandle, items) -> None:
        fresh = notices_log[h.notices_sent:]
        h.notices_sent = len(notices_log)
        post(h, "gr", [item[4] for item in items], fresh)
        h.state = _BUSY

    def progress() -> None:
        nonlocal clock_high
        live = [h for h in handles if h.state != _EXITED]
        if flag.is_set():
            for h in live:
                if h.state == _WAIT:
                    post(h, "wk")
                    h.state = _BUSY
            return
        # Virtual-time faults: a fault comes due when ANY rank's clock
        # crosses it (the cooperative engine's rule), so SIGKILL the
        # victim's node process from here (the victim may be blocked at
        # the barrier, unable to self-deliver; a *running* victim
        # usually beats us to it via its own fault check, which also
        # counts as a real kill — see "dy").
        while pending_specs and pending_specs[0].at_time <= clock_high:
            spec = pending_specs.pop(0)
            victim = handles[shard_of_rank[spec.rank]]
            if victim.state == _EXITED:
                continue
            strike(victim, spec)
            return  # the flag is set; next pass wakes the others
        if any(h.state == _BUSY for h in handles):
            return  # strict epochs: release only at full quiescence
        if not live:
            return
        released_any = False
        for h in live:
            items = window.release(h.shard)
            if items:
                released_any = True
                grant(h, items)
        if released_any:
            return
        if (window.transit_count() == 0
                and all(h.state == _WAIT for h in live)):
            # Global quiescence with nothing in flight: no rank on any
            # shard can ever be woken again — the cross-shard deadlock.
            # Only the shard owning the lowest blocked rank is told: in
            # the cooperative engine blocked ranks wake in rank order,
            # so exactly the lowest raises DeadlockError and its abort
            # makes every later rank unwind as JobAborted.  The other
            # shards stay parked until the abort flag is set and the
            # master wakes them (the flag branch above), which keeps
            # the error list deterministic across process boundaries.
            ranks = sorted(r for h in live for r in h.blocked)
            if ranks:
                owner = handles[shard_of_rank[ranks[0]]]
                post(owner, "dl", ranks)
                owner.state = _BUSY

    def absorb(h: _ShardHandle, msg) -> None:
        nonlocal clock_high
        tag = msg[0]
        if tag == "st":
            (_t, _shard, kind, floor, blocked, high, outbox, notices,
             epoch) = msg
            # Sends, notices and the clock high-water are real no matter
            # when the status was written; absorb them unconditionally.
            clock_high = max(clock_high, high)
            for src, env in outbox:
                dest = shard_of_rank[env.dest]
                if handles[dest].state == _EXITED:
                    continue  # unconsumable: the destination completed
                window.send(src, env.dest, env.avail_time, (src, env))
            notices_log.extend(notices)
            if epoch != h.epoch:
                # Written before a wake we already sent (grant/wake/
                # deadlock): the worker is running that wake right now,
                # so taking this state would regress a _BUSY shard to
                # _WAIT/_SOFT with a stale blocked list — the raw
                # material of a spurious cross-shard deadlock verdict
                # or a release epoch started mid-run.  The worker
                # re-sends a fresh status at its next quiescence/spin.
                return
            h.state = _WAIT if kind == "b" else _SOFT
            h.blocked = blocked
            window.report(h.shard, floor)
        elif tag == "ex":
            _t, _shard, report = msg
            h.state = _EXITED
            h.report = report
            clock_high = max(clock_high,
                             max(report["clocks"].values(), default=0.0))
            for src, env in report["outbox"]:
                dest = shard_of_rank[env.dest]
                if handles[dest].state == _EXITED:
                    continue
                window.send(src, env.dest, env.avail_time, (src, env))
            notices_log.extend(report["notices"])
            window.drop_dest(h.shard)
        elif tag == "dy":
            # Dying breath of a killed child: it fired a fault spec
            # at its deterministic fire site, reported the injection
            # bookkeeping, and SIGKILLed itself — confirm the death by
            # waitpid before trusting the frame.
            _t, _shard, (rank, now, reason), fired_idx = msg
            pid = h.pid
            termsig = confirm_death(h)
            for idx in fired_idx:
                engine.fault_plan.mark_fired(spec_list[idx])
            record_kill(h, rank, now, reason, pid, termsig)
        else:  # "cr" — the shard process itself crashed
            _t, _shard, tb = msg
            h.state = _EXITED
            errors.append((-1, f"processes engine: shard {h.shard} "
                               f"(ranks {h.ranks[0]}-{h.ranks[-1]}) "
                               f"crashed:\n{tb}"))
            window.drop_dest(h.shard)
            flag.set()

    hard_deadline = deadline + CooperativeScheduler.HANDOFF_GRACE
    try:
        while any(h.state != _EXITED for h in handles):
            now = _time.monotonic()
            if now > hard_deadline:
                break  # pragma: no cover - stuck children killed below
            if now > deadline and not flag.is_set():
                flag.set()  # ranks unwind via their deadline checks
            fds = {h.rfd: h for h in handles if h.state != _EXITED}
            if _wait_readable_any(list(fds), min(1.0, hard_deadline - now)):
                for rfd, h in list(fds.items()):
                    if not _wait_readable(rfd, 0.0):
                        continue
                    try:
                        msg = _read_msg(h.reader)
                    except EOFError:
                        if h.state != _EXITED:
                            h.state = _EXITED
                            errors.append(
                                (-1, f"processes engine: shard {h.shard} "
                                     f"exited without a report"))
                            window.drop_dest(h.shard)
                            flag.set()
                        continue
                    absorb(h, msg)
            progress()
    finally:
        _reap(handles, errors)

    _merge(engine, handles, spec_list, errors, returns, real_failures)


def _wait_readable_any(fds: List[int], timeout: float) -> bool:
    if not fds:
        return False
    while True:
        try:
            ready, _, _ = select.select(fds, [], [], max(0.0, timeout))
            return bool(ready)
        except InterruptedError:  # pragma: no cover - signal noise
            continue


def _reap(handles: List[_ShardHandle], errors: List) -> None:
    """Tear down children: close pipes, then collect (or kill) them."""
    for h in handles:
        try:
            os.close(h.wfd)
        except OSError:
            pass
    deadline = _time.monotonic() + 5.0
    for h in handles:
        if h.pid <= 0:
            # Already reaped (a confirmed real kill) or never forked;
            # still close the read end so a long campaign of kills
            # cannot leak descriptors.
            if h.reader is not None:
                try:
                    h.reader.close()
                except OSError:  # pragma: no cover
                    pass
            continue
        while True:
            try:
                pid, _status = os.waitpid(h.pid, os.WNOHANG)
            except ChildProcessError:  # pragma: no cover - reaped elsewhere
                break
            if pid:
                break
            if _time.monotonic() > deadline:  # pragma: no cover - stuck
                try:
                    os.kill(h.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                try:
                    os.waitpid(h.pid, 0)
                except ChildProcessError:
                    pass
                errors.append((-1, f"processes engine: shard {h.shard} "
                                   f"killed after timeout"))
                break
            _time.sleep(0.01)
        try:
            h.reader.close()
        except OSError:  # pragma: no cover
            pass


def _merge(engine, handles: List[_ShardHandle], spec_list: List,
           errors: List, returns: List[Any],
           failures: List[ProcessFailure]) -> None:
    """Fold shard reports back into the parent engine's run state.

    ``failures`` starts with the real-kill fail-stop records: a
    SIGKILLed shard sends no exit report, so its failure arrives out of
    band.
    """
    for h in handles:
        report = h.report
        if report is None:
            continue
        for r, value in report["returns"].items():
            returns[r] = value
        for r, clock in report["clocks"].items():
            ctx = engine.rank_contexts[r]
            if clock > ctx.clock.now:
                ctx.clock.sync_to(clock)
        for r, n in report["sent_counts"].items():
            engine.rank_contexts[r].sent_count = n
        for r, n in report["sent_bytes"].items():
            engine.rank_contexts[r].sent_bytes = n
        errors.extend(tuple(e) for e in report["errors"])
        if report["failure"] is not None:
            failures.append(ProcessFailure(*report["failure"]))
        for idx in report["fired"]:
            engine.fault_plan.mark_fired(spec_list[idx])
    if failures and engine.failure is None:
        # The schedule-level "first" failure is not observable across
        # processes; pick the earliest virtual time (rank breaks ties),
        # which matches the cooperative engine for every single-victim
        # plan — the only case whose failure record we pin bitwise.
        failures.sort(key=lambda f: (f.time, f.rank))
        engine.failure = failures[0]
