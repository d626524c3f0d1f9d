"""Top-level C3 runner: make an application fault-tolerant and run it.

The Figure-1 pipeline, in library form: an application written against the
:class:`~repro.statesave.context.Context` API (or instrumented into that
form by :mod:`repro.precompiler`) is linked with the coordination layer
and executed on the simulated MPI runtime.  On a fail-stop fault the job
aborts; :func:`run_fault_tolerant` relaunches it, each rank restores from
the last recovery line committed on all nodes, and execution resumes.

Three entry points:

* :func:`run_original` — the uninstrumented application (baseline rows of
  Tables 2-3);
* :func:`run_c3` — one run under the coordination layer (optionally with
  fault injection); returns per-rank protocol stats;
* :func:`run_fault_tolerant` — run + restart loop until completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from ..mpi.api import MPI
from ..mpi.engine import JobResult, run_job
from ..mpi.faults import FaultPlan
from ..mpi.timemodel import MachineModel, TESTING
from ..statesave.context import Context
from ..storage.stable import InMemoryStorage, StorageBackend
from ..storage.store import CheckpointStore, as_store
from ..storage.wal import WalStore
from .checkpoint import restore_checkpoint
from .comms import C3Comm
from .modes import ProtocolError
from .protocol import C3Config, C3Protocol, C3Stats


@dataclass
class C3RunResult:
    """Outcome of a complete fault-tolerant execution."""

    #: every execution in order, as ``(job, per-rank stats)``; all but
    #: the last failed
    runs: List[Tuple[JobResult, List[Optional[C3Stats]]]]

    @property
    def job(self) -> JobResult:
        return self.runs[-1][0]

    @property
    def stats(self) -> List[Optional[C3Stats]]:
        return self.runs[-1][1]

    @property
    def restarts(self) -> int:
        return len(self.runs) - 1

    @property
    def history(self) -> List[JobResult]:
        """The failed executions' results."""
        return [job for job, _stats in self.runs[:-1]]

    @property
    def virtual_time(self) -> float:
        return self.job.virtual_time

    @property
    def returns(self) -> List[Any]:
        return self.job.returns


class RestartsExhausted(ProtocolError):
    """The job was still failing when the restart budget ran out."""

    def __init__(self, restarts: int, failure) -> None:
        super().__init__(f"job failed {restarts} times; giving up "
                         f"(last failure: {failure})")
        self.restarts = restarts
        #: the last execution's :class:`~repro.mpi.errors.ProcessFailure`
        self.failure = failure


def _c3_main(mpi: MPI, app: Callable, config: C3Config,
             storage, restoring: bool, app_args: Tuple):
    """Per-rank job body: build the layer, maybe restore, run the app."""
    protocol = C3Protocol(mpi, storage, config)
    ctx = Context(mpi, comm=C3Comm(protocol, protocol.world_entry),
                  pragma_hook=protocol.pragma)
    ctx.c3 = protocol
    protocol.bind(ctx)
    if restoring:
        restore_checkpoint(protocol)
        # After a restore the world entry may have been replaced.
        ctx.comm = C3Comm(protocol, protocol.commtable.get(0))
    result = app(ctx, *app_args)
    protocol.finalize()
    return result, protocol.stats


def _c3_exchanges_control(app: Callable, config: C3Config, storage,
                          restoring: bool, app_args: Tuple) -> bool:
    """Can a rank of this job exchange out-of-band control traffic?

    A checkpoint timer starts lines (Checkpoint-Initiated to every
    peer) and a restore redistributes the early registries; ranks drain
    that traffic at whatever call they happen to be in, so the point
    where a rank learns of a line depends on fiber order.  The engine
    then keeps the point-to-point collectives, whose fiber schedule is
    the pinned one (DESIGN.md §2.5).
    """
    return config.checkpoint_interval is not None or restoring


_c3_main._exchanges_control = _c3_exchanges_control


def run_c3(app: Callable, nprocs: int, machine: MachineModel = TESTING,
           storage=None,
           config: Optional[C3Config] = None,
           fault_plan: Optional[FaultPlan] = None,
           restoring: bool = False, app_args: Tuple = (),
           wall_timeout: float = 300.0,
           engine: Optional[str] = None) -> Tuple[JobResult, List[Optional[C3Stats]]]:
    """One job execution under the coordination layer.

    ``storage`` may be a :class:`CheckpointStore` or a bare
    :class:`StorageBackend` (wrapped through
    :func:`~repro.storage.store.as_store` — a backend already holding WAL
    segments opens as a shared :class:`WalStore`).  The default is the
    production engine: a WAL over in-memory storage.
    """
    # Normalize to ONE store instance before the job starts: the WAL is
    # stateful (staged buffers, group-commit accounting), so every rank
    # must share it rather than wrap the backend independently.
    store = as_store(storage) if storage is not None \
        else WalStore(InMemoryStorage())
    config = config or C3Config()
    result = run_job(
        nprocs, _c3_main,
        args=(app, config, store, restoring, app_args),
        machine=machine, fault_plan=fault_plan, wall_timeout=wall_timeout,
        engine=engine,
    )
    # Job-lifetime boundary: a clean end drains staged group commits; a
    # fail-stop applies the store's crash semantics (the WAL tears the
    # failed node's unsynced tail and rebuilds its index by replay).
    store.on_job_end(result.failure.rank if result.failure else None)
    stats: List[Optional[C3Stats]] = []
    returns = []
    for r in result.returns:
        if isinstance(r, tuple) and len(r) == 2 and isinstance(r[1], C3Stats):
            returns.append(r[0])
            stats.append(r[1])
        else:
            returns.append(None)
            stats.append(None)
    result.returns = returns
    return result, stats


def run_fault_tolerant(app: Callable, nprocs: int,
                       machine: MachineModel = TESTING,
                       storage=None,
                       config: Optional[C3Config] = None,
                       fault_plan: Optional[FaultPlan] = None,
                       app_args: Tuple = (), max_restarts: int = 8,
                       wall_timeout: float = 300.0,
                       engine: Optional[str] = None) -> C3RunResult:
    """Run to completion, restarting from the last recovery line on failure.

    The one restart loop: each restart goes through
    :func:`resume_from_manifest` over the same store, so a restart after
    a failure that left no committed line is a fresh run.  Specs of the
    fault plan that already fired do not fire again, so a plan with
    several specs kills once per execution until its triggers run out.
    More than ``max_restarts`` failures raise :class:`RestartsExhausted`.
    """
    # One store for the whole restart loop: the failed run's survivors and
    # the restarted run must see the same durable state.
    storage = as_store(storage) if storage is not None \
        else WalStore(InMemoryStorage())
    config = config or C3Config()
    plan = fault_plan or FaultPlan.none()
    common = dict(machine=machine, config=config, fault_plan=plan,
                  app_args=app_args, wall_timeout=wall_timeout,
                  engine=engine)
    runs = [run_c3(app, nprocs, storage=storage, **common)]
    restarts = 0
    while True:
        result = runs[-1][0]
        result.raise_errors()
        if result.failure is None:
            return C3RunResult(runs)
        restarts += 1
        if restarts > max_restarts:
            raise RestartsExhausted(restarts, result.failure)
        runs.append(resume_from_manifest(app, nprocs, storage,
                                         require_line=False, **common))


def resume_from_manifest(app: Callable, nprocs: int,
                         storage,
                         machine: MachineModel = TESTING,
                         config: Optional[C3Config] = None,
                         fault_plan: Optional[FaultPlan] = None,
                         app_args: Tuple = (),
                         wall_timeout: float = 300.0,
                         require_line: bool = True,
                         engine: Optional[str] = None,
                         ) -> Tuple[JobResult, List[Optional[C3Stats]]]:
    """Restart a job directly from the checkpoints a storage backend holds.

    The entry point for restarting *outside* the in-process
    :func:`run_fault_tolerant` loop — a campaign driver, an operator
    script, or a fresh process pointed at the stable storage of a failed
    job.  It queries the commit manifest for the last recovery line
    committed on **all** ranks (the same answer the per-rank global
    reduction of ``chkpt_RestoreCheckpoint`` computes), then relaunches
    the job in restore mode.

    ``require_line=True`` (default) raises :class:`ProtocolError` when the
    storage holds no complete recovery line, instead of silently
    re-running the application from the beginning.
    """
    # as_store auto-detects the layout: a backend holding WAL segments
    # opens as a WalStore (replaying the log), anything else as the
    # scatter layout.  validate=True: torn lines (a crash
    # mid-drain/mid-commit left a marker-less or truncated line) are
    # invisible, exactly as they are to the per-rank restore scan.
    store = as_store(storage)
    line = store.last_committed_global(nprocs, validate=True)
    if line is None and require_line:
        raise ProtocolError(
            f"storage holds no recovery line committed by all {nprocs} "
            "ranks; nothing to restart from"
        )
    return run_c3(app, nprocs, machine=machine, storage=store,
                  config=config, fault_plan=fault_plan,
                  restoring=line is not None,
                  app_args=app_args, wall_timeout=wall_timeout,
                  engine=engine)


def _original_main(mpi: MPI, app: Callable, app_args: Tuple):
    ctx = Context(mpi)
    return app(ctx, *app_args)


def run_original(app: Callable, nprocs: int, machine: MachineModel = TESTING,
                 app_args: Tuple = (), wall_timeout: float = 300.0,
                 engine: Optional[str] = None) -> JobResult:
    """Run the uninstrumented application (no coordination layer)."""
    return run_job(nprocs, _original_main, args=(app, app_args),
                   machine=machine, wall_timeout=wall_timeout, engine=engine)


def cached_comm(ctx: Context, name: str, factory: Callable[[], C3Comm]):
    """Create a sub-communicator once per job lifetime.

    On the first execution ``factory()`` runs (and the protocol records the
    creation); after a restart the recorded creation was already replayed
    by ``chkpt_RestoreCheckpoint``, so the handle is rebuilt from the
    communicator table instead of calling ``factory`` again.
    """
    key_name = f"__comm_{name}"
    protocol: Optional[C3Protocol] = getattr(ctx, "c3", None)
    if ctx.first_time(key_name):
        comm = factory()
        ctx.done(key_name)
        if protocol is not None:
            ctx.state[key_name] = comm._entry.key
        return comm
    if protocol is None:
        # Original mode has no restarts; first_time can only be False if
        # the application called this twice with the same name.
        raise ProtocolError(f"communicator {name!r} created twice")
    key = int(ctx.state[key_name])
    entry = protocol.commtable.get(key)
    from .comms import C3CartComm
    if entry.recipe.get("kind") == "cart":
        return C3CartComm(protocol, entry)
    return C3Comm(protocol, entry)
