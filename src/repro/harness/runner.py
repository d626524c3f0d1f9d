"""Experiment runner primitives.

Wraps the three execution modes of the evaluation — original, C3 without
checkpoints, C3 with one checkpoint (configurations #1/#2/#3 of Tables
4-5) — plus the restart measurement of Tables 6-7, returning plain
result records the table drivers assemble into rows.

Every measurement is addressed by *app name* and plain-data parameters,
so a measurement is also a picklable :class:`~repro.harness.parallel.Cell`
— the ``*_cell`` builders below wrap the measure functions for the
process-pool harness that sweeps whole tables concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from ..apps import APPS
from ..core.ccc import run_c3, run_fault_tolerant, run_original
from ..core.protocol import C3Config
from ..mpi.engine import resolve_backend
from ..mpi.faults import FaultPlan, FaultSpec
from ..mpi.timemodel import MachineModel
from ..storage.drain import DrainDaemon
from ..storage.stable import InMemoryStorage, StorageBackend
from ..storage.store import as_store
from ..storage.wal import WalStore
from .parallel import Cell


@dataclass
class ModeResult:
    """One job execution's measurements."""

    virtual_seconds: float
    checkpoint_bytes: int = 0
    log_bytes: int = 0
    checkpoints_committed: int = 0
    last_commit_time: float = 0.0
    restore_seconds: float = 0.0
    app_sends: int = 0


def _with_params(app_name: str, params: dict) -> Callable:
    app = APPS[app_name]

    def wrapped(ctx):
        return app(ctx, **params)

    wrapped.__name__ = f"{app_name}_configured"
    return wrapped


def measure_original(app_name: str, nprocs: int, machine: MachineModel,
                     params: dict, wall_timeout: float = 240.0,
                     engine: Optional[str] = None) -> ModeResult:
    result = run_original(_with_params(app_name, params), nprocs,
                          machine=machine, wall_timeout=wall_timeout,
                          engine=engine)
    result.raise_errors()
    return ModeResult(virtual_seconds=result.virtual_time)


def measure_c3(app_name: str, nprocs: int, machine: MachineModel,
               params: dict, checkpoints: int = 0, save_to_disk: bool = True,
               overlap: bool = False,
               interval_fraction: float = 0.45,
               reference_time: Optional[float] = None,
               wall_timeout: float = 240.0,
               engine: Optional[str] = None,
               storage=None) -> ModeResult:
    """A C3 run: ``checkpoints == 0`` is configuration #1, otherwise one
    (or more) timer-initiated checkpoints — #2 with ``save_to_disk=False``,
    #3 with True.  ``overlap=True`` is the *overlapped* configuration of
    the extended Tables 4-5 study: checkpoints write to disk through the
    background drain device instead of blocking in-line (the production
    path; here default-off so configurations #2/#3 keep the paper's
    in-line semantics)."""
    interval = None
    if checkpoints > 0:
        base = reference_time if reference_time else 1.0
        interval = base * interval_fraction / checkpoints
    config = C3Config(checkpoint_interval=interval,
                      save_to_disk=save_to_disk, overlap=overlap,
                      max_checkpoints=checkpoints or None)
    # storage=None: the production engine (a WAL over in-memory storage),
    # so every table measurement exercises group commit and segment GC;
    # the study CLIs' --storage seam passes an explicit store instead
    result, stats = run_c3(_with_params(app_name, params), nprocs,
                           machine=machine, storage=storage, config=config,
                           wall_timeout=wall_timeout, engine=engine)
    result.raise_errors()
    st = [s for s in stats if s is not None]
    return ModeResult(
        virtual_seconds=result.virtual_time,
        checkpoint_bytes=max((s.last_checkpoint_bytes for s in st), default=0),
        log_bytes=max((s.last_log_bytes for s in st), default=0),
        checkpoints_committed=min((s.checkpoints_committed for s in st),
                                  default=0),
        last_commit_time=max((s.last_commit_time for s in st), default=0.0),
        app_sends=sum(s.app_sends for s in st),
    )


def measure_restart(app_name: str, machine: MachineModel, params: dict,
                    wall_timeout: float = 240.0) -> Dict[str, float]:
    """Tables 6-7 methodology, on a uniprocessor run.

    Run 1: execute to completion taking one mid-run checkpoint; measure
    the elapsed time from the last committed checkpoint to the end.
    Run 2: restart from that checkpoint; measure from the start of the
    restore procedure to the end.  The restart cost is the difference.
    """
    app = _with_params(app_name, params)
    base = run_original(app, 1, machine=machine, wall_timeout=wall_timeout)
    base.raise_errors()
    total = base.virtual_time

    # One production store (WAL over memory) shared by run 1 and the
    # restart: run 2 restores by replaying the log run 1 committed.
    storage = WalStore(InMemoryStorage())
    config = C3Config(checkpoint_interval=total * 0.5, max_checkpoints=1)
    full, stats = run_c3(app, 1, machine=machine, storage=storage,
                         config=config, wall_timeout=wall_timeout)
    full.raise_errors()
    st = stats[0]
    if st is None or st.checkpoints_committed < 1:
        raise RuntimeError(f"{app_name}: no checkpoint committed in run 1")
    tail_after_ckpt = full.virtual_time - st.last_commit_time

    restarted, rstats = run_c3(app, 1, machine=machine, storage=storage,
                               config=config, restoring=True,
                               wall_timeout=wall_timeout)
    restarted.raise_errors()
    restart_elapsed = restarted.virtual_time
    return {
        "original_seconds": total,
        "tail_after_checkpoint": tail_after_ckpt,
        "restart_run_seconds": restart_elapsed,
        "restart_cost": restart_elapsed - tail_after_ckpt,
        "restore_seconds": rstats[0].restore_seconds if rstats[0] else 0.0,
    }


def _returns_equal(measured, golden) -> bool:
    """Bitwise result equivalence: the recovery correctness criterion."""
    if len(measured) != len(golden):
        return False
    for m, g in zip(measured, golden):
        if isinstance(m, np.ndarray) or isinstance(g, np.ndarray):
            if not np.array_equal(np.asarray(m), np.asarray(g)):
                return False
        elif m != g:
            return False
    return True


#: the failure of a recovery row whose deterministic kills never fired
VACUOUS_KILL = "deterministic kill never fired (scenario vacuous)"


class Kills(NamedTuple):
    """A checked kill list: its fault specs and what they need to fire."""

    specs: List[FaultSpec]
    #: no probabilistic kill: at least one must fire, or the run is no
    #: recovery test
    deterministic: bool
    #: an ``in_collective`` kill, which fires only in apps with collectives
    needs_collectives: bool
    #: an ``at_group_commit`` kill, which fires only over WAL storage
    needs_wal: bool

    def vacuous(self, fired: Sequence) -> bool:
        """The one vacuous-kill verdict: deterministic kills, none fired."""
        return bool(self.specs) and self.deterministic and not fired


def resolve_kills(kills: Sequence[dict], nprocs: int,
                  golden_seconds: float = 1.0) -> Kills:
    """Check a list of kill dicts and resolve it into fault specs.

    Kills are plain data so scenarios, fuzz schedules and service jobs
    stay picklable and JSON-able: :class:`FaultSpec` fields only, plus a
    ``frac`` key, a fraction in (0, 1] of the golden runtime that
    resolves into ``at_time`` (``golden_seconds`` defaults to a
    placeholder for callers that only check).  Raises ``ValueError`` on
    an unknown field, a rank outside ``range(nprocs)`` or a ``frac``
    outside (0, 1].
    """
    specs = []
    for kill in kills:
        kill = dict(kill)
        frac = kill.pop("frac", None)
        if frac is not None:
            if not (0.0 < frac <= 1.0):
                raise ValueError(f"frac must be in (0, 1], not {frac!r}")
            kill["at_time"] = frac * golden_seconds
        spec = FaultSpec.from_dict(kill)
        if not (0 <= spec.rank < nprocs):
            raise ValueError(f"kill rank {spec.rank} out of range for "
                             f"nprocs={nprocs}")
        specs.append(spec)
    return Kills(
        specs,
        deterministic=not any(s.probability > 0 for s in specs),
        needs_collectives=any(s.in_collective is not None for s in specs),
        needs_wal=any(s.at_group_commit is not None for s in specs))


def measure_recovery(app_name: str, nprocs: int, machine: MachineModel,
                     params: dict, kills: List[dict],
                     interval_frac: float = 0.2, seed: int = 0,
                     max_restarts: int = 8, drain_streams: int = 4,
                     wall_timeout: float = 120.0,
                     engine: Optional[str] = None,
                     storage_factory: Optional[
                         Callable[[], StorageBackend]] = None) -> Dict:
    """One recovery-campaign scenario: golden run, fault run, restart,
    verify.

    1. **Golden** — the uninstrumented application runs to completion;
       its per-rank results are the ground truth and its runtime anchors
       fraction-based kill times and the checkpoint interval.
    2. **Clean C3** — the same app under the coordination layer with
       timer-initiated checkpoints, no faults.  Verifies instrumentation
       alone does not perturb results and provides the restart-cost
       baseline.
    3. **Faulty** — re-run with the scenario's fail-stop kills injected,
       through :func:`~repro.core.ccc.run_fault_tolerant`: on each
       failure it restarts through
       :func:`~repro.core.ccc.resume_from_manifest` — the same entry
       point an out-of-process operator would use — until the job
       completes (late-message replay, early-send suppression, and
       nondeterminism replay all exercised by the restore path).
    4. **Verify** — both the clean and the recovered results must be
       bitwise-identical to the golden ones.

    ``storage_factory`` supplies the stable storage per execution phase
    (default :class:`InMemoryStorage`); it may return a bare
    :class:`~repro.storage.stable.StorageBackend` (scatter layout) or a
    :class:`~repro.storage.store.CheckpointStore` such as a
    :class:`~repro.storage.wal.WalStore`.  A tmpdir-rooted
    :class:`~repro.storage.stable.DiskStorage` factory runs the whole
    kill/restart/verify pipeline against real files.

    Returns a plain-data record (JSON-able) with the verification
    verdicts and the restart-cost figures the Table 6/7 drivers consume.
    """
    app = _with_params(app_name, params)
    make_storage = storage_factory or InMemoryStorage

    golden = run_original(app, nprocs, machine=machine,
                          wall_timeout=wall_timeout, engine=engine)
    golden.raise_errors()
    golden_s = golden.virtual_time

    config = C3Config(checkpoint_interval=golden_s * interval_frac)
    clean, clean_stats = run_c3(app, nprocs, machine=machine,
                                storage=make_storage(), config=config,
                                wall_timeout=wall_timeout, engine=engine)
    clean.raise_errors()
    verified_clean = _returns_equal(clean.returns, golden.returns)

    plan = FaultPlan(resolve_kills(kills, nprocs, golden_s).specs, seed=seed)
    storage = make_storage()
    run = run_fault_tolerant(app, nprocs, machine=machine, storage=storage,
                             config=config, fault_plan=plan,
                             max_restarts=max_restarts,
                             wall_timeout=wall_timeout, engine=engine)
    run_times = [job.virtual_time for job, _stats in run.runs]
    real_kills = sum(1 for job, _stats in run.runs
                     for k in job.real_kills if k.get("sigkill"))
    restore_s = 0.0
    for _job, restarted in run.runs[1:]:
        restore_s += max((s.restore_seconds for s in restarted if s),
                         default=0.0)
    verified_recovery = _returns_equal(run.returns, golden.returns)

    st = [s for s in run.stats if s is not None]
    # Committed-line count from the storage engine, not from protocol
    # stats: failed executions return no stats, and the final (restarted)
    # execution's counters start at zero, so the store's index is the only
    # ground truth across the whole kill/restart sequence.  ``validate``
    # makes torn lines (a kill mid-drain/mid-commit/mid-group-commit)
    # invisible here, exactly as they are to restore.
    store = as_store(storage)
    committed = store.last_committed_global(nprocs, validate=True) or 0
    # Recovery-line GC evidence: distinct versions with any object still
    # on stable storage, per rank (<= 2 at steady state when GC is on).
    lines_retained = max(
        (len(v) for v in store.lines_on_storage().values()), default=0)
    drain = DrainDaemon(machine, drain_streams=drain_streams).drain_line(
        storage, nprocs)
    return {
        "app": app_name,
        "nprocs": nprocs,
        "platform": machine.name,
        "engine": resolve_backend(engine),
        "kills": [dict(k) for k in kills],
        "fired": [s.describe() for s in plan.fired],
        "interval_frac": interval_frac,
        "verified": verified_clean and verified_recovery,
        "verified_clean": verified_clean,
        "verified_recovery": verified_recovery,
        "restarts": run.restarts,
        #: waitpid-confirmed SIGKILL deliveries across the faulty run
        #: and every restart — 0 for simulated-fault engines, and for a
        #: real-kill engine the count of faults that physically took an
        #: OS process (the process-backend smoke gate asserts >= 1)
        "real_kills": real_kills,
        "golden_seconds": golden_s,
        "clean_c3_seconds": clean.virtual_time,
        "c3_overhead_pct": (clean.virtual_time - golden_s) / golden_s * 100.0,
        "run_seconds": run_times,
        "total_faulty_seconds": sum(run_times),
        "restart_cost_seconds": sum(run_times) - clean.virtual_time,
        "restore_seconds": restore_s,
        #: recovery lines committed on all ranks over the whole sequence
        "checkpoints_committed": committed,
        #: distinct checkpoint versions still on storage (max over ranks)
        #: after the final execution — the GC retention evidence
        "lines_retained": lines_retained,
        #: replay/suppression evidence from the final (recovering)
        #: execution — earlier failed executions return no stats
        "replayed_from_log": sum(s.replayed_from_log for s in st),
        "suppressed_sends": sum(s.suppressed_sends for s in st),
        #: the line the final execution restored from (None: cold start)
        #: — for torn-line scenarios this is the *previous* committed
        #: line, the fallback evidence
        "restored_version": max(
            (s.restored_version for s in st
             if s.restored_version is not None), default=None),
        "line_durable_at": drain.line_durable_at if drain else None,
        "drain_sync_penalty": drain.synchronous_penalty if drain else None,
    }


# ---------------------------------------------------------------------------
# Cell builders for the process-pool harness (see repro.harness.parallel).
# ---------------------------------------------------------------------------

def original_cell(app_name: str, nprocs: int, machine: MachineModel,
                  params: dict, **kw) -> Cell:
    """A :func:`measure_original` run as a farmable cell."""
    return Cell(measure_original, dict(app_name=app_name, nprocs=nprocs,
                                       machine=machine, params=params, **kw),
                label=f"original:{app_name}@{nprocs}:{machine.name}")


def c3_cell(app_name: str, nprocs: int, machine: MachineModel,
            params: dict, **kw) -> Cell:
    """A :func:`measure_c3` run as a farmable cell."""
    return Cell(measure_c3, dict(app_name=app_name, nprocs=nprocs,
                                 machine=machine, params=params, **kw),
                label=f"c3:{app_name}@{nprocs}:{machine.name}")


def restart_cell(app_name: str, machine: MachineModel, params: dict,
                 **kw) -> Cell:
    """A :func:`measure_restart` run as a farmable cell."""
    return Cell(measure_restart, dict(app_name=app_name, machine=machine,
                                      params=params, **kw),
                label=f"restart:{app_name}:{machine.name}")


def recovery_cell(app_name: str, nprocs: int, machine: MachineModel,
                  params: dict, kills: List[dict], label: str = "",
                  **kw) -> Cell:
    """A :func:`measure_recovery` scenario as a farmable cell."""
    return Cell(measure_recovery,
                dict(app_name=app_name, nprocs=nprocs, machine=machine,
                     params=params, kills=kills, **kw),
                label=label or f"recovery:{app_name}@{nprocs}:{machine.name}")
