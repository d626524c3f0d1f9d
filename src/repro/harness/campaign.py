"""Fault-injection recovery campaign: kill/restart/verify at matrix scale.

The paper's headline claim is that C3 makes restart about as cheap as
taking a checkpoint (Tables 6/7) while recovering *exactly* — replayed
late messages, suppressed early sends, and logged non-determinism give a
restarted run the failure-free answer bit for bit.  The unit tests
exercise single recovery paths; this module opens the whole scenario
space: every app kernel x platform model x kill timing, each scenario
running the golden/clean/faulty/verify pipeline of
:func:`repro.harness.runner.measure_recovery` through the process-pool
harness.

A *scenario* is plain data (picklable, JSON-able): an app name with
campaign-sized parameters, a machine-model name, and a named *kill
timing* that expands into fail-stop :class:`~repro.mpi.faults.FaultSpec`
triggers —

======================  ====================================================
timing                  kills
======================  ====================================================
``early``               one rank at 15% of the golden runtime
``mid_run``             one rank at 55%
``late``                one rank at 85%
``double``              two ranks, 35% and 70% (multi-fault schedule)
``epoch_boundary``      a rank the instant it advances to epoch 2
                        (``chkpt_StartCheckpoint`` ran, nothing committed)
``mid_collective``      a rank inside its 4th collective, mid-exchange
``mid_drain``           a rank while line 1's staged bytes are still
                        draining to the node disk (overlapped write-back:
                        sections on storage, COMMIT not yet written — the
                        torn line must be rejected at restore)
``mid_commit``          a rank the instant line 1 becomes durable, right
                        before its COMMIT marker is written (the
                        narrowest tear window of the commit pipeline)
``mid_group_commit``    a rank right after its COMMIT record for line 1 is
                        staged in its node's WAL buffer, before the
                        batched group-commit fsync — the staged group is
                        torn out of the log tail (WAL storage only)
``torn_record``         the last rank at the same window: its node's
                        unsynced tail is cut *mid-record* at crash, so
                        replay must truncate at the tear and recovery
                        fall back to the prior line (WAL storage only)
``storm``               every rank with per-operation probability, seeded
======================  ====================================================

The two WAL-only timings require ``--storage wal`` or ``--storage
wal-disk`` (scatter stores have no group-commit window; the matrix
builder skips them elsewhere).

Restarts go through :func:`repro.core.ccc.run_fault_tolerant`, whose
every restart is :func:`repro.core.ccc.resume_from_manifest` — the
storage-manifest entry point an operator would use — so the campaign
drives exactly the restart path the paper's Section 4 describes, not a
test-only shortcut.  Per scenario the report records the verification
verdicts (clean C3 vs golden, recovered vs golden), restart counts,
restart-cost figures in the Table 6/7 schema, protocol evidence (log
replays, suppressed sends), and the off-cluster durability numbers of
the PSC-style drain daemon.

Command line::

    python -m repro.harness.campaign --smoke            # CI subset, < 60 s
    python -m repro.harness.campaign --full             # kernels x 3 platforms x timings
    python -m repro.harness.campaign --apps CG,LU --kills mid_collective \
        --platforms lemieux --json CAMPAIGN.json

Exit status 0 iff every scenario verified (and every deterministic kill
actually fired); an unknown ``--apps`` / ``--platforms`` / ``--kills``
value, or ``--smoke`` combined with any of them, exits 2 before anything
runs.  ``--json`` writes the machine-readable report; the CI workflow
uploads it and fails on a non-zero exit.  The CLI is :data:`STUDY`, run
by :func:`repro.harness.jobs.study_main`; :data:`CAMPAIGN_TABLE` lays
the rows out for the terminal and EXPERIMENTS.md.

The module also holds the engine-differential kernel of the processes
study: :func:`diff_campaigns` runs one scenario list on the cooperative
oracle and then on another engine, and :func:`diff_rows` grades each
row pair under the real-kill contract of DESIGN.md §12.3.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..apps import APPS
from ..mpi.timemodel import MACHINES
from .jobs import (
    Study, StudyReport, Table, open_store, render_text, run_study,
    study_main, verdict,
)
from .parallel import Cell, CellError
from .runner import VACUOUS_KILL, Kills, measure_recovery, resolve_kills

__all__ = [
    "APP_KERNELS", "CAMPAIGN_PARAMS", "COLLECTIVE_APPS", "KILL_TIMINGS",
    "CAMPAIGN_TABLE", "CampaignReport", "STUDY", "Scenario",
    "build_matrix", "diff_campaigns", "diff_rows", "full_matrix", "main",
    "render_campaign", "run_campaign", "smoke_matrix",
]

#: The ten benchmark kernels of the paper's Section 6, plus the two demo
#: apps — the campaign's default coverage set.
APP_KERNELS: Tuple[str, ...] = (
    "CG", "LU", "SP", "BT", "MG", "EP", "FT", "IS", "SMG2000", "HPL",
    "ring", "heat",
)

#: Campaign-sized app parameters: long enough for several checkpoint
#: intervals (so structural kills have epochs/collectives to land in),
#: small enough that a 3-run scenario finishes in well under a second.
CAMPAIGN_PARAMS: Dict[str, dict] = {
    "CG": dict(local_n=32, nnz_per_row=4, niter=8),
    "LU": dict(local_nx=12, local_ny=12, niter=8),
    "SP": dict(local_rows=6, row_len=32, niter=8),
    "BT": dict(local_rows=6, row_len=32, niter=8),
    "MG": dict(local_n=64, levels=3, niter=6),
    "EP": dict(pairs_per_batch=512, batches=6),
    "FT": dict(local_rows=4, row_len=32, niter=6),
    "IS": dict(keys_per_rank=512, niter=6),
    "SMG2000": dict(local_n=8, levels=3, niter=4),
    "HPL": dict(n=48, block=8, trials=3),
    "ring": dict(payload=8, niter=10),
    "heat": dict(local_n=16, niter=10),
}
#: Apps whose kernels perform collective operations; ``mid_collective``
#: scenarios only apply to these (LU is pure point-to-point).
COLLECTIVE_APPS = frozenset(APP_KERNELS) - {"LU"}

#: The three platform models of the evaluation (Tables 2-7).
FULL_PLATFORMS: Tuple[str, ...] = ("lemieux", "velocity2", "cmi")


#: Named kill timings: name -> (builder, interval_frac), where
#: ``builder(nprocs)`` returns the timing's kill dicts.  What a timing
#: needs is derived from its kills (:func:`~repro.harness.runner.
#: resolve_kills`): a kill list without ``probability`` is deterministic
#: and must fire, or the scenario fails — a matrix whose kills silently
#: miss is not a recovery test; ``in_collective`` kills apply only to
#: apps with collectives, ``at_group_commit`` kills only to WAL storage.
#: ``interval_frac`` (when not None) overrides the scenario's checkpoint
#: cadence: ``epoch_boundary`` checkpoints densely so every kernel
#: reaches its first epoch boundary at all on every platform (EP's
#: pragmas all sit in the first fraction of the run on high-latency
#: machines; at the default cadence the timer never trips there).  For
#: multi-kill lists like ``double``, later kills are best-effort:
#: restarted runs reset virtual clocks, and cheap log-replay
#: re-execution can finish before a late trigger is reached again.
KILL_TIMINGS: Dict[str, Tuple[Callable[[int], List[dict]],
                              Optional[float]]] = {
    "early": (lambda n: [{"rank": n - 1, "frac": 0.15}], None),
    "mid_run": (lambda n: [{"rank": 1 % n, "frac": 0.55}], None),
    "late": (lambda n: [{"rank": 0, "frac": 0.85}], None),
    "double": (lambda n: [{"rank": 1 % n, "frac": 0.35},
                          {"rank": n - 1, "frac": 0.70}], None),
    # Epoch 1 is the one boundary every kernel reaches on every platform
    # (EP's pragmas all sit early in the run, so rank 1 never advances to
    # epoch 2 on the high-latency machines).  The boundary semantics are
    # the same at every line: the epoch has advanced, nothing of the new
    # line is committed, and recovery must come from the previous one —
    # here, from the beginning.  Deeper boundaries are pinned by
    # tests/integration/test_campaign.py on the testing platform.
    "epoch_boundary": (lambda n: [{"rank": 1 % n, "at_epoch": 1}], 0.05),
    "mid_collective": (lambda n: [{"rank": n - 1, "in_collective": 4}],
                       None),
    # Line 1 is the first line every checkpointing kernel stages on every
    # platform (the dense epoch_boundary cadence applies); the victim dies
    # with the line's sections staged but its COMMIT unwritten — recovery
    # must reject the torn line.
    "mid_drain": (lambda n: [{"rank": 1 % n, "in_drain": 1}], 0.05),
    "mid_commit": (lambda n: [{"rank": 0, "at_commit": 1}], 0.05),
    # The victim dies with its COMMIT record for line 1 staged in the
    # node's WAL buffer but the batched fsync not yet issued; the whole
    # staged group is lost, replay finds no durable COMMIT for the line,
    # and recovery falls back.  Line 1 for the same reason as mid_drain:
    # it is the one line every kernel stages on every platform.
    "mid_group_commit": (lambda n: [{"rank": 1 % n, "at_group_commit": 1}],
                         0.05),
    # Same window, but the *last* rank — typically the final committer of
    # its node's group, so the buffered tail it tears is the fullest one.
    # The crash model cuts the tail mid-record, forcing replay to detect
    # the torn record (bad length/CRC) and physically truncate at the
    # tear before recovery proceeds from the prior committed line.
    "torn_record": (lambda n: [{"rank": n - 1, "at_group_commit": 1}],
                    0.05),
    "storm": (lambda n: [{"rank": r, "probability": 0.002}
                         for r in range(n)], None),
}

#: Storage choices whose scenarios run against the WAL engine.
WAL_STORAGES = frozenset({"wal", "wal-disk"})


def inapplicable(kills: Kills, app: str, storage: str) -> Optional[str]:
    """Why ``kills`` can never fire on ``app`` over ``storage``, or None."""
    if kills.needs_collectives and app not in COLLECTIVE_APPS:
        return (f"in_collective kills need an app with collectives; "
                f"{app} is point-to-point only")
    if kills.needs_wal and storage not in WAL_STORAGES:
        return (f"at_group_commit kills need WAL storage "
                f"({', '.join(sorted(WAL_STORAGES))}), not {storage!r}")
    return None


@dataclass(frozen=True)
class Scenario:
    """One campaign cell: app x platform x kill timing, as plain data."""

    app: str
    platform: str
    kill: str
    nprocs: int = 4
    params: dict = field(default_factory=dict)
    kills: Tuple[dict, ...] = ()
    interval_frac: float = 0.2
    seed: int = 0
    wall_timeout: float = 120.0
    #: engine backend (None = the default cooperative scheduler)
    engine: Optional[str] = None
    #: stable-storage engine: "memory" (default) / "disk" (fresh
    #: tmpdir-rooted DiskStorage per execution phase — real files, real
    #: atomic renames) run the per-file scatter layout; "wal" /
    #: "wal-disk" run the log-structured WAL engine (group commit,
    #: replay recovery, segment GC) over the same two backends
    storage: str = "memory"

    @property
    def label(self) -> str:
        if self.storage != "memory":
            return f"{self.app}/{self.platform}/{self.kill}@{self.storage}"
        return f"{self.app}/{self.platform}/{self.kill}"


def build_matrix(apps: Sequence[str], platforms: Sequence[str],
                 kills: Sequence[str], nprocs: int = 4,
                 interval_frac: float = 0.2, seed: int = 0,
                 wall_timeout: float = 120.0,
                 engine: Optional[str] = None,
                 storage: str = "memory") -> List[Scenario]:
    """The scenario grid, skipping inapplicable combinations
    (``mid_collective`` on point-to-point-only apps; the WAL-only
    timings on scatter storage)."""
    unknown = [a for a in apps if a not in APPS]
    if unknown:
        raise ValueError(f"unknown apps: {unknown}; have {sorted(APPS)}")
    unknown = [p for p in platforms if p not in MACHINES]
    if unknown:
        raise ValueError(
            f"unknown platforms: {unknown}; have {sorted(MACHINES)}")
    unknown = [k for k in kills if k not in KILL_TIMINGS]
    if unknown:
        raise ValueError(
            f"unknown kill timings: {unknown}; have {sorted(KILL_TIMINGS)}")
    scenarios = []
    for app in apps:
        for platform in platforms:
            for kill in kills:
                builder, frac_override = KILL_TIMINGS[kill]
                victims = builder(nprocs)
                if inapplicable(resolve_kills(victims, nprocs), app,
                                storage):
                    continue
                scenarios.append(Scenario(
                    app=app, platform=platform, kill=kill, nprocs=nprocs,
                    params=CAMPAIGN_PARAMS.get(app, {}),
                    kills=tuple(victims),
                    interval_frac=(frac_override if frac_override is not None
                                   else interval_frac),
                    seed=seed, wall_timeout=wall_timeout, engine=engine,
                    storage=storage))
    return scenarios


def smoke_matrix(nprocs: int = 4, interval_frac: float = 0.2,
                 seed: int = 0, engine: Optional[str] = None,
                 storage: str = "memory") -> List[Scenario]:
    """The CI subset: every app kernel, one platform, kill timings
    rotated across apps so each deterministic timing appears several
    times — full kernel coverage in well under a minute.  WAL storage
    widens the rotation with the group-commit tear windows."""
    rotation = ("mid_run", "epoch_boundary", "mid_collective", "mid_drain",
                "early", "late", "double", "mid_commit")
    if storage in WAL_STORAGES:
        rotation += ("mid_group_commit", "torn_record")
    scenarios = []
    for i, app in enumerate(APP_KERNELS):
        scenarios.extend(build_matrix([app], ["testing"],
                                      [rotation[i % len(rotation)]],
                                      nprocs=nprocs,
                                      interval_frac=interval_frac,
                                      seed=seed, engine=engine,
                                      storage=storage))
    return scenarios


def full_matrix(nprocs: int = 4) -> List[Scenario]:
    """Every app kernel x the three evaluation platforms x every kill
    timing (deterministic and probabilistic)."""
    return build_matrix(APP_KERNELS, FULL_PLATFORMS, tuple(KILL_TIMINGS),
                        nprocs=nprocs)


# ---------------------------------------------------------------------------
# Execution and reporting
# ---------------------------------------------------------------------------

def _judge(scenario: Scenario, record: Dict) -> Dict:
    """Fold a measurement record into a campaign row with a verdict."""
    failure = None
    if record.get("error"):
        failure = record["error"]
    elif not record["verified_clean"]:
        failure = "clean C3 run diverged from the golden results"
    elif not record["verified_recovery"]:
        failure = "recovered results are not bitwise-equal to golden"
    elif resolve_kills(scenario.kills, scenario.nprocs).vacuous(
            record.get("fired")):
        failure = VACUOUS_KILL
    return {
        "scenario": scenario.label,
        "kill_timing": scenario.kill,
        "passed": failure is None,
        "failure": failure,
        **record,
    }


def _error_record(scenario: Scenario, exc: Exception) -> Dict:
    return {
        "app": scenario.app, "nprocs": scenario.nprocs,
        "platform": scenario.platform, "kills": list(scenario.kills),
        "fired": [], "interval_frac": scenario.interval_frac,
        "verified": False, "verified_clean": False,
        "verified_recovery": False, "restarts": 0,
        "error": f"{type(exc).__name__}: {exc}",
    }


def _measure_scenario(scenario: Scenario) -> Dict:
    """One scenario's measurement record; never raises.

    Scenario errors (a deadlocked run, a protocol assertion) become
    error records, so a broken cell neither aborts its ``run_cells``
    wave nor discards the pool's in-flight results for the rest.  The
    storage flavor resolves through :func:`repro.harness.jobs.
    open_store`: ``"disk"`` scenarios run against fresh tmpdir-rooted
    :class:`~repro.storage.stable.DiskStorage` backends (removed after
    the measurement); ``"wal"`` / ``"wal-disk"`` wrap the in-memory /
    tmpdir backend in a fresh :class:`~repro.storage.wal.WalStore`, so
    the whole kill/restart/verify pipeline — including WAL replay on
    restart — runs against the log-structured engine.
    """
    s = scenario
    try:
        with open_store(s.storage, prefix="repro-campaign-") as factory:
            return measure_recovery(
                s.app, s.nprocs, MACHINES[s.platform], dict(s.params),
                [dict(k) for k in s.kills], interval_frac=s.interval_frac,
                seed=s.seed, wall_timeout=s.wall_timeout, engine=s.engine,
                storage_factory=factory)
    except Exception as exc:  # noqa: BLE001 - verdict, not crash
        return _error_record(s, exc)


def _judged_scenario(scenario: Scenario) -> Dict:
    """Top-level (picklable) cell body: one scenario's judged row."""
    return _judge(scenario, _measure_scenario(scenario))


def _dead_scenario(cell: Cell, err: CellError) -> Dict:
    """The judged row of a scenario whose worker process died."""
    s = cell.kwargs["scenario"]
    return _judge(s, dict(_error_record(s, RuntimeError(err.error)),
                          traceback=err.traceback))


def run_campaign(scenarios: Sequence[Scenario],
                 parallel: Optional[bool] = None,
                 max_workers: Optional[int] = None,
                 progress: Optional[Callable[[Dict], None]] = None,
                 ) -> StudyReport:
    """Run every scenario through the shared farming loop.

    Per-scenario errors are captured as failed rows instead of aborting
    the campaign, so one broken cell cannot hide the verdicts of the
    rest.  ``progress`` receives each judged row as it completes (input
    order).
    """
    cells = [Cell(_judged_scenario, dict(scenario=s), label=s.label)
             for s in scenarios]
    return run_study(cells, _dead_scenario, parallel=parallel,
                     max_workers=max_workers, progress=progress)


def _us(seconds: Optional[float]) -> Optional[float]:
    """Microseconds — campaign runs are tiny; seconds would render 0.00."""
    return None if seconds is None else seconds * 1e6


CAMPAIGN_TABLE = Table("Recovery campaign: kill / restart / verify", (
    ("Scenario", "scenario"),
    ("Verdict", verdict),
    ("Restarts", "restarts"),
    ("Ckpts committed", "checkpoints_committed"),
    ("Lines retained", "lines_retained"),
    ("Golden µs", lambda r: _us(r.get("golden_seconds"))),
    ("Restart cost µs", lambda r: _us(r.get("restart_cost_seconds"))),
    ("Replayed", "replayed_from_log"),
    ("Suppressed", "suppressed_sends"),
))

#: kept importable under the package's lazy exports
CampaignReport = StudyReport
render_campaign = partial(render_text, CAMPAIGN_TABLE)


# ---------------------------------------------------------------------------
# The engine differential: the same scenarios on two engines, diffed
# ---------------------------------------------------------------------------

#: virtual timings that may skew by a few drain-position-coupled commit
#: charges on collective-heavy apps: compared under ``rtol`` instead of
#: bitwise (the skew is a handful of call overheads, so it is only
#: visible at the TESTING machine's microsecond-scale makespans)
_TOLERANT_FIELDS = ("golden_seconds", "clean_c3_seconds")
#: commit/GC instants evaluated *at* drain observation points: on
#: collective apps the observing drain itself differs, so the values
#: carry no cross-engine meaning — compared for presence only
_DRAIN_FIELDS = ("line_durable_at", "drain_sync_penalty")
#: derived from failed executions' makespans (abort-observation
#: instants): compared structurally, never numerically
_ABORT_FIELDS = ("total_faulty_seconds", "restart_cost_seconds")


def _close(a, b, rtol: float, atol: float = 0.0) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(float(a), float(b), rel_tol=rtol, abs_tol=atol)


def diff_rows(label: str, rc: Dict, rs: Dict,
              rtol: float = 2e-2) -> List[str]:
    """Mismatches between a cooperative and a processes campaign row.

    Empty list = the cell is equivalent under the engine-differential
    contract (DESIGN.md §12.3).  ``engine`` and ``real_kills`` naturally
    differ (the latter is the point) and are skipped.  A real SIGKILL
    destroys the victim node's *whole* staged WAL tail where the
    cooperative engine models a torn tail, so every field coupled to
    what the crash left durable — the commit count, the recovered
    run's makespan, and the replay / suppression evidence of the
    recovering execution — is compared structurally.  So are two
    schedule-coupled regimes (both verify bitwise; the *path* to the
    verified state is what differs):

    * ``storm`` cells inject kills probabilistically per executed op,
      and how many ops a survivor executes before observing an abort
      is engine-dependent — so the kill count itself is coupled;
    * a kill whose instant races a drain-triggered commit on a
      collective-heavy app lands on opposite sides of the commit per
      engine, flipping the recovery path between restore-from-line and
      pure log replay.

    The verification verdicts (``verified*``), the restart count, and
    the fired-kill evidence stay exact: recovery must still reach
    bitwise-identical results, however it got there.
    """
    storm = rc.get("kill_timing") == "storm"
    bad: List[str] = []
    for k in sorted(set(rc) | set(rs)):
        if k in ("engine", "real_kills"):
            continue
        v, w = rc.get(k), rs.get(k)
        if k in _TOLERANT_FIELDS:
            ok = _close(v, w, rtol)
        elif k == "c3_overhead_pct":
            # a ratio of two close numbers: the EP kernels amplify the
            # clean-run commit-position skew into ~2 points of overhead
            # at microsecond-scale makespans
            ok = _close(v, w, rtol, atol=2.5)
        elif k in _DRAIN_FIELDS:
            ok = (v is None) == (w is None)
        elif k == "lines_retained":
            # GC runs at drain observation points; a run that finishes
            # before the final GC pass retains more lines (never fewer
            # than one — the recovery line itself)
            ok = (isinstance(v, int) and isinstance(w, int)
                  and (v == w or (v >= 1 and w >= 1)))
        elif k == "checkpoints_committed":
            # what a crash leaves durable, and a commit racing the kill
            # instant, both move the commit count
            ok = isinstance(v, int) and isinstance(w, int)
        elif k == "restored_version":
            # restore-from-line vs. log-replay is commit-race-coupled;
            # require each engine's own restore evidence to be
            # internally consistent instead
            ok = all((r.get("restored_version") is None)
                     == (not r.get("restore_seconds"))
                     for r in (rc, rs))
        elif k == "restore_seconds":
            ok = True  # judged with restored_version above
        elif k == "restarts":
            ok = v == w or (storm and isinstance(v, int)
                            and isinstance(w, int) and v >= 1 and w >= 1)
        elif k == "run_seconds":
            # failed-run makespans are abort-observation times, and the
            # recovered (final) run's depends on what the crash left
            # durable: one entry per execution, each positive at the end
            ok = (isinstance(v, list) and isinstance(w, list)
                  and bool(v) and bool(w)
                  and float(v[-1]) > 0 and float(w[-1]) > 0)
            if ok and not storm:
                ok = len(v) == len(w)
        elif k in _ABORT_FIELDS:
            ok = (v is None) == (w is None) and (
                v is None or (v > 0) == (w > 0))
        elif k in ("replayed_from_log", "suppressed_sends"):
            # what a crash leaves in the durable log differs between a
            # lost-whole staged tail (real SIGKILL) and a torn tail
            # (cooperative), so the recovering execution's replay and
            # suppression counts carry no cross-engine meaning
            ok = (isinstance(v, int) and isinstance(w, int)
                  and v >= 0 and w >= 0)
        elif k == "fired":
            # describe() strings embed resolved at_time instants, which
            # inherit the collective-app golden-runtime skew; storm
            # kill counts are abort-observation-coupled outright
            ok = (isinstance(v, list) and isinstance(w, list)
                  and (len(v) == len(w)
                       or (storm and bool(v) and bool(w))))
        else:
            ok = v == w
        if not ok:
            bad.append(f"{label}: {k}: {v!r} != {w!r}")
    return bad


def diff_campaigns(scenarios: Sequence[Scenario], engine: str,
                   rtol: float = 2e-2,
                   parallel: Optional[bool] = False,
                   max_workers: Optional[int] = None,
                   progress: Optional[Callable[[Dict], None]] = None,
                   ) -> Tuple[StudyReport, StudyReport, List[str]]:
    """Run ``scenarios`` on the cooperative oracle, then on ``engine``.

    Returns both reports and every :func:`diff_rows` mismatch of their
    row pairs.  ``parallel`` defaults to ``False``: only inline passes
    make the two campaign walls an engine-to-engine comparison.
    """
    coop, other = [
        run_campaign([replace(s, engine=e) for s in scenarios],
                     parallel=parallel, max_workers=max_workers,
                     progress=progress)
        for e in (None, engine)]
    mismatches = [m for rc, ro in zip(coop.rows, other.rows)
                  for m in diff_rows(rc["scenario"], rc, ro, rtol=rtol)]
    return coop, other, mismatches


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _add_args(ap: argparse.ArgumentParser) -> None:
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true",
                      help="CI subset: every kernel, testing platform, "
                           "rotated kill timings (default)")
    mode.add_argument("--full", action="store_true",
                      help="every kernel x 3 platforms x every timing")
    ap.add_argument("--apps", help="comma-separated app names "
                                   f"(default: all of {', '.join(APP_KERNELS)})")
    ap.add_argument("--platforms",
                    help="comma-separated machine models "
                         f"(known: {', '.join(sorted(MACHINES))})")
    ap.add_argument("--kills",
                    help="comma-separated kill timings "
                         f"(known: {', '.join(KILL_TIMINGS)})")
    ap.add_argument("--nprocs", type=int, default=4,
                    help="simulated ranks per scenario (default 4)")
    ap.add_argument("--interval-frac", type=float, default=0.2,
                    help="checkpoint interval as a fraction of the golden "
                         "runtime (default 0.2)")
    ap.add_argument("--list", action="store_true",
                    help="print the scenario matrix and exit")


def _refuse(args: argparse.Namespace) -> Optional[str]:
    if args.smoke and (args.apps or args.platforms or args.kills):
        return ("--smoke selects a fixed matrix; drop it to combine "
                "--apps/--platforms/--kills (or use --full to widen their "
                "defaults)")
    return None


def _select_matrix(args: argparse.Namespace) -> List[Scenario]:
    common = dict(nprocs=args.nprocs, interval_frac=args.interval_frac,
                  seed=args.seed, engine=args.engine,
                  storage=args.storage or "memory")
    if args.full:
        return build_matrix(args.apps or APP_KERNELS,
                            args.platforms or FULL_PLATFORMS,
                            args.kills or tuple(KILL_TIMINGS), **common)
    if args.apps or args.platforms or args.kills:
        return build_matrix(args.apps or APP_KERNELS,
                            args.platforms or ["testing"],
                            args.kills or ["mid_run", "epoch_boundary",
                                           "mid_collective"], **common)
    return smoke_matrix(**common)


def _run(args: argparse.Namespace, progress):
    scenarios = _select_matrix(args)
    if args.list:
        for s in scenarios:
            kills = "; ".join(
                ", ".join(f"{k}={v}" for k, v in kill.items())
                for kill in s.kills)
            print(f"{s.label:36s} {kills}")
        print(f"{len(scenarios)} scenarios")
        return None
    report = run_campaign(scenarios, parallel=False if args.inline else None,
                          max_workers=args.workers,
                          progress=partial(progress, CAMPAIGN_TABLE))
    summary = report.summary()
    return ({"summary": summary, "rows": report.rows},
            [(CAMPAIGN_TABLE, report.rows)], summary["failed"])


STUDY = Study(
    name="campaign",
    description="Fault-injection recovery campaign: for each app kernel x "
                "platform x kill timing, run golden / clean-C3 / "
                "kill+restart and verify bitwise-equal results.",
    run=_run, add_args=_add_args, refuse=_refuse,
    shared=("storage", "seed", "quiet"),
    selections=(("apps", APPS, "apps"), ("platforms", MACHINES, "platforms"),
                ("kills", KILL_TIMINGS, "kill timings")),
    help={"storage": "stable-storage engine per scenario: scatter layout "
                     "over in-memory (default) or tmpdir-rooted real files, "
                     "or the WAL engine over the same two backends (enables "
                     "the group-commit kill windows)",
          "seed": "RNG seed for probabilistic kills (default 0)"})


def main(argv: Optional[Sequence[str]] = None) -> int:
    return study_main(STUDY, argv)


if __name__ == "__main__":
    sys.exit(main())
