"""Coverage-guided fault fuzzer.

The recovery campaign (:mod:`repro.harness.campaign`) replays a fixed
matrix of kill timings; this module *searches* the fault space instead.
A :class:`FuzzSchedule` is one attack: an app kernel, a platform, a
storage engine, a set of fail-stop kills drawn from the full
:class:`~repro.mpi.faults.FaultSpec` vocabulary (including correlated
node-wide kills and staggered multi-kill plans), and a set of storage
faults (:class:`~repro.storage.faulty.StorageFault`) injected behind the
storage seam — torn writes, short appends, bit-rot, ENOSPC, stalled
syncs.  Every schedule is plain JSON, replays deterministically, and is
judged by the campaign's own criterion: the job must recover through
:func:`~repro.core.ccc.run_fault_tolerant` (each restart a
:func:`~repro.core.ccc.resume_from_manifest`) and finish bitwise-equal
to the golden run.

Generation is steered AFL-style by *protocol-state coverage*
(:mod:`repro.coverage`): fault windows actually hit, message classes
matched by the delivery classifier, commit/fallback/GC/replay/truncation
paths taken, storage faults actually injected.  A schedule that lights
up a new coverage point is kept and mutated; one that fails is
delta-minimized (greedy fault dropping, then field shrinking) and
serialized into the regression corpus that ``tests/fuzz`` replays
forever.

``--smoke`` is the CI gate: the deterministic seed schedules (one per
campaign kill-timing class, one per storage-fault class, plus the
windows the campaign matrix never crosses) must together reach **100 %
fault-window coverage** with **zero verification failures**, in about a
minute.

The CLI is :data:`STUDY` (:func:`repro.harness.jobs.study_main`), whose
table :data:`FUZZ_TABLE` has one row per schedule tried.  It is not a
cell grid, so its ``run`` keeps the guided loop (and ``--replay``, which
reruns one schedule and fails on a ``fail`` verdict); outside
``--smoke``, found failures are reported and minimized but do not fail
the run.

Usage::

    python -m repro.harness.fuzz --smoke --json FUZZ_smoke.json
    python -m repro.harness.fuzz --schedules 500 --seed 7 --corpus out/
    python -m repro.harness.fuzz --replay tests/fuzz/corpus/<repro>.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import shutil
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from .. import coverage
from ..core.ccc import RestartsExhausted, run_fault_tolerant, run_original
from ..core.protocol import C3Config
from ..mpi.engine import is_processes
from ..mpi.faults import TRIGGER_FIELDS, FaultPlan
from ..mpi.timemodel import MACHINES, TESTING
from ..storage.faulty import (OP_CLASS, STORAGE_FAULT_KINDS, FaultyStorage,
                              StorageFault)
from ..storage.stable import DiskStorage, InMemoryStorage
from ..storage.store import WAL_PREFIX, ScatterStore
from ..storage.wal import WalStore
from .campaign import CAMPAIGN_PARAMS, COLLECTIVE_APPS
from .jobs import STORAGE_CHOICES, Study, Table, study_main
from .parallel import Cell, CellError, run_cells
from .runner import _returns_equal, resolve_kills

#: JSON schedule format version (bump on incompatible change)
FORMAT = 1

#: platforms the fuzzer draws from: the campaign's plus a 2-ranks-per-node
#: testing variant so node-wide correlated kills exist at testing speed
FUZZ_MACHINES = dict(MACHINES)
FUZZ_MACHINES["testing-x2"] = replace(TESTING, name="testing-x2",
                                      procs_per_node=2)

#: fast kernels the generator draws from (CG/MG cover the collectives)
FUZZ_APPS: Tuple[str, ...] = ("ring", "heat", "CG", "MG")

#: the smoke gate: every fault window and every storage-fault class
REQUIRED_WINDOWS = frozenset(f"window:{k}" for k in TRIGGER_FIELDS)
REQUIRED_STORAGE = frozenset(f"storage:{k}" for k in STORAGE_FAULT_KINDS)
REQUIRED_COVERAGE = REQUIRED_WINDOWS | REQUIRED_STORAGE

#: fault features only the WAL engine exposes
_WAL_ONLY_KINDS = frozenset({"short_append", "stall_sync"})

#: per engine (WAL or not): the backend operations it issues and the
#: prefix of every path it writes; a fault outside them never fires
_ENGINE_SURFACE = {False: (frozenset({"write"}), "ckpt/"),
                   True: (frozenset({"append", "sync"}), WAL_PREFIX)}


# ---------------------------------------------------------------------------
# Schedule model + JSON codec
# ---------------------------------------------------------------------------

@dataclass
class FuzzSchedule:
    """One fuzz attack, as plain data (JSON round-trippable)."""

    label: str
    app: str
    nprocs: int
    platform: str = "testing"
    #: stable-storage flavor (:data:`repro.harness.jobs.STORAGE_CHOICES`):
    #: "memory"/"disk" = scatter layout, "wal"/"wal-disk" = log-structured
    #: engine, each over an in-memory or tmpdir-rooted real-file backend
    #: wrapped by :class:`FaultyStorage`
    storage: str = "memory"
    interval_frac: float = 0.2
    seed: int = 0
    #: fail-stop kills: FaultSpec dicts; ``frac`` resolves against the
    #: golden runtime into ``at_time`` (see runner.resolve_kills)
    kills: List[dict] = field(default_factory=list)
    #: StorageFault dicts (see repro.storage.faulty)
    storage_faults: List[dict] = field(default_factory=list)
    #: app parameters; defaults to the campaign scale for the app
    params: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.app not in CAMPAIGN_PARAMS:
            raise ValueError(f"unknown app {self.app!r}")
        if self.platform not in FUZZ_MACHINES:
            raise ValueError(f"unknown platform {self.platform!r}")
        if self.storage not in STORAGE_CHOICES:
            raise ValueError(f"storage must be one of "
                             f"{', '.join(STORAGE_CHOICES)}, "
                             f"not {self.storage!r}")
        if self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if not (0.0 < self.interval_frac <= 1.0):
            raise ValueError("interval_frac must be in (0, 1]")
        if self.params is None:
            self.params = dict(CAMPAIGN_PARAMS[self.app])
        resolve_kills(self.kills, self.nprocs)   # raises on junk
        for sf in self.storage_faults:
            StorageFault.from_dict(sf)   # raises on junk

    def fault_count(self) -> int:
        return len(self.kills) + len(self.storage_faults)

    def needs_wal(self) -> bool:
        return (resolve_kills(self.kills, self.nprocs).needs_wal
                or any(sf["kind"] in _WAL_ONLY_KINDS
                       for sf in self.storage_faults))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": FORMAT,
            "label": self.label,
            "app": self.app,
            "nprocs": self.nprocs,
            "platform": self.platform,
            "storage": self.storage,
            "interval_frac": self.interval_frac,
            "seed": self.seed,
            "kills": [dict(k) for k in self.kills],
            "storage_faults": [dict(sf) for sf in self.storage_faults],
            "params": dict(self.params or {}),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzSchedule":
        data = dict(data)
        fmt = data.pop("format", FORMAT)
        if fmt != FORMAT:
            raise ValueError(f"unsupported schedule format {fmt!r} "
                             f"(this build reads format {FORMAT})")
        allowed = {f.name for f in fields(cls)}
        bad = sorted(set(data) - allowed)
        if bad:
            raise ValueError(f"unknown FuzzSchedule fields: {bad}")
        return cls(**data)

    def digest(self) -> str:
        """Stable content digest — corpus file names and dedup."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.blake2b(blob, digest_size=6).hexdigest()


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

#: golden-run cache: (app, platform, nprocs, params) -> (returns, seconds)
GoldenCache = Dict[tuple, Tuple[list, float]]


def _golden(sched: FuzzSchedule, cache: Optional[GoldenCache],
            wall_timeout: float,
            engine: Optional[str] = None) -> Tuple[list, float]:
    params = sched.params or {}
    key = (sched.app, sched.platform, sched.nprocs,
           tuple(sorted(params.items())), engine)
    if cache is not None and key in cache:
        return cache[key]
    from .runner import _with_params
    result = run_original(_with_params(sched.app, params), sched.nprocs,
                          machine=FUZZ_MACHINES[sched.platform],
                          wall_timeout=wall_timeout, engine=engine)
    result.raise_errors()
    value = (result.returns, result.virtual_time)
    if cache is not None:
        cache[key] = value
    return value


def run_schedule(sched: FuzzSchedule, cache: Optional[GoldenCache] = None,
                 max_restarts: int = 8, wall_timeout: float = 120.0,
                 engine: Optional[str] = None) -> Dict[str, Any]:
    """Execute one schedule: golden run, faulty run + restart loop, verify.

    Returns a plain-data record.  ``verdict`` is one of:

    * ``"pass"`` — the job recovered and finished bitwise-equal to golden;
    * ``"fail"`` — a verification mismatch, an unhandled exception
      escaping the runtime, or a deterministic schedule that exhausted
      its restart budget (``failure_class`` tags which);
    * ``"inconclusive"`` — a *probabilistic* schedule exhausted the
      restart budget (the storm may simply keep killing; not a bug), or
      the schedule was vacuous (``failure_class`` ``"vacuous"``): a
      deterministic kill never fired (the campaign's
      :meth:`~repro.harness.runner.Kills.vacuous` rule), or no kill fired
      and no storage fault was injected (on engine ``processes`` the
      injections are not visible here, so only kills are judged).

    All coverage observed during the faulty phase is in ``coverage``,
    including ``window:*`` points derived from the fired fault specs and
    ``storage:*`` points from the injected storage faults.
    """
    from .runner import _with_params
    machine = FUZZ_MACHINES[sched.platform]
    params = sched.params or {}
    app = _with_params(sched.app, params)

    golden_returns, golden_s = _golden(sched, cache, wall_timeout,
                                       engine=engine)
    config = C3Config(checkpoint_interval=golden_s * sched.interval_frac)
    kills = resolve_kills(sched.kills, sched.nprocs, golden_s)
    plan = FaultPlan(kills.specs, seed=sched.seed)
    tmp_root: Optional[str] = None
    if sched.storage in ("disk", "wal-disk"):
        tmp_root = tempfile.mkdtemp(prefix="repro-fuzz-")
        base_storage: Any = DiskStorage(f"{tmp_root}/store")
    else:
        base_storage = InMemoryStorage()
    backend = FaultyStorage(
        base_storage,
        [StorageFault.from_dict(sf) for sf in sched.storage_faults])
    storage = (WalStore(backend) if sched.storage in ("wal", "wal-disk")
               else ScatterStore(backend))

    cmap = coverage.CoverageMap()
    previous = coverage.install(cmap)
    failure: Optional[str] = None
    failure_class: Optional[str] = None
    verified: Optional[bool] = None
    restarts = 0
    committed = 0
    lines_retained = 0
    stats: list = []
    try:
        try:
            run = run_fault_tolerant(app, sched.nprocs, machine=machine,
                                     storage=storage, config=config,
                                     fault_plan=plan,
                                     max_restarts=max_restarts,
                                     wall_timeout=wall_timeout,
                                     engine=engine)
            restarts, stats = run.restarts, run.stats
            verified = _returns_equal(run.returns, golden_returns)
            if not verified:
                failure = "recovered result differs from golden run"
                failure_class = "mismatch"
            # Store queries crash-test the recovery index too: a corrupt
            # marker that escapes validation surfaces right here.
            committed = storage.last_committed_global(
                sched.nprocs, validate=True) or 0
            lines_retained = max(
                (len(v) for v in storage.lines_on_storage().values()),
                default=0)
        except RestartsExhausted as exc:
            restarts = exc.restarts
            failure = (f"still failing after {max_restarts} restarts "
                       f"(last: {exc.failure})")
            # a probabilistic storm may simply keep killing: not a bug
            failure_class = ("livelock" if kills.deterministic
                             else "inconclusive")
        except Exception as exc:   # noqa: BLE001 - the fuzzer's whole job
            failure = f"{type(exc).__name__}: {exc}"
            failure_class = f"exception:{type(exc).__name__}"
    finally:
        coverage.install(previous)
        if tmp_root is not None:
            shutil.rmtree(tmp_root, ignore_errors=True)

    injected = {k: n for k, n in backend.injected.items() if n}
    # engine "processes" counts storage injections inside its node
    # processes, out of this process's sight
    unseen = is_processes(engine) and bool(sched.storage_faults)
    if failure_class is None and (
            kills.vacuous(plan.fired)
            or not (plan.fired or injected or unseen)):
        failure = "no fault took effect (schedule vacuous)"
        failure_class = "vacuous"
    points: Set[str] = set(cmap.points())
    for spec in plan.fired:
        points.add(f"window:{spec.kind()}")
    if failure_class in ("inconclusive", "vacuous"):
        verdict = "inconclusive"
    elif failure_class is not None:
        verdict = "fail"
    else:
        verdict = "pass"
    st = [s for s in stats if s is not None]
    return {
        "label": sched.label,
        "schedule": sched.to_dict(),
        "verdict": verdict,
        "failure": failure,
        "failure_class": failure_class,
        "verified": verified,
        "restarts": restarts,
        "golden_seconds": golden_s,
        "coverage": sorted(points),
        "fired": [s.describe() for s in plan.fired],
        "injected": injected,
        "checkpoints_committed": committed,
        "lines_retained": lines_retained,
        "replayed_from_log": sum(s.replayed_from_log for s in st),
        "suppressed_sends": sum(s.suppressed_sends for s in st),
    }


# ---------------------------------------------------------------------------
# Seed schedules: the deterministic coverage floor
# ---------------------------------------------------------------------------

def seed_schedules(nprocs: int = 4) -> List[FuzzSchedule]:
    """One schedule per campaign kill-timing class, one per storage-fault
    class, plus the windows the campaign never crosses (``after_ops``,
    node-wide correlated kills).  Together they hit every point of
    :data:`REQUIRED_COVERAGE` — the ``--smoke`` floor."""
    n = nprocs
    s = FuzzSchedule
    return [
        # -- campaign kill-timing classes, at fuzz scale ---------------------
        s("early", "ring", n, kills=[{"rank": n - 1, "frac": 0.15}]),
        s("mid_run", "heat", n, kills=[{"rank": 1 % n, "frac": 0.55}]),
        s("late", "CG", n, kills=[{"rank": 0, "frac": 0.85}]),
        s("double", "ring", n, kills=[{"rank": 1 % n, "frac": 0.35},
                                      {"rank": n - 1, "frac": 0.70}]),
        s("epoch_boundary", "heat", n, interval_frac=0.05,
          kills=[{"rank": 1 % n, "at_epoch": 1}]),
        s("mid_collective", "CG", n,
          kills=[{"rank": n - 1, "in_collective": 4}]),
        s("mid_drain", "heat", n, interval_frac=0.05,
          kills=[{"rank": 1 % n, "in_drain": 1}]),
        s("mid_commit", "ring", n, interval_frac=0.05,
          kills=[{"rank": 0, "at_commit": 1}]),
        s("mid_group_commit", "heat", n, interval_frac=0.05, storage="wal",
          kills=[{"rank": 1 % n, "at_group_commit": 1}]),
        s("torn_record", "ring", n, interval_frac=0.05, storage="wal",
          kills=[{"rank": n - 1, "at_group_commit": 1}]),
        s("storm", "ring", n, seed=3,
          kills=[{"rank": r, "probability": 0.02} for r in range(n)]),
        # -- windows the campaign matrix never crosses -----------------------
        s("after_ops", "heat", n, kills=[{"rank": 2 % n, "after_ops": 7}]),
        s("node_wide", "heat", n, platform="testing-x2",
          kills=[{"rank": 2 % n, "frac": 0.50},
                 {"rank": 3 % n, "frac": 0.55}]),
        # -- one per storage-fault class (paired with a late kill so the
        #    recovery path must reject the damaged line) ---------------------
        s("sf_torn_marker", "ring", n, interval_frac=0.1,
          storage_faults=[{"kind": "torn_write", "after_ops": 6,
                           "path_prefix": "ckpt/"}],
          kills=[{"rank": 0, "frac": 0.8}]),
        s("sf_bit_rot", "heat", n, interval_frac=0.1,
          storage_faults=[{"kind": "bit_rot", "after_ops": 5,
                           "path_prefix": "ckpt/", "bit": 123}],
          kills=[{"rank": 1 % n, "frac": 0.8}]),
        s("sf_enospc", "CG", n, interval_frac=0.1,
          storage_faults=[{"kind": "enospc", "after_ops": 3, "count": 8,
                           "path_prefix": "ckpt/"}]),
        s("sf_short_append", "heat", n, interval_frac=0.1, storage="wal",
          storage_faults=[{"kind": "short_append", "after_ops": 4,
                           "path_prefix": "wal/"}],
          kills=[{"rank": 1 % n, "frac": 0.7}]),
        s("sf_stall_sync", "ring", n, interval_frac=0.1, storage="wal",
          storage_faults=[{"kind": "stall_sync", "after_ops": 2,
                           "count": 3, "path_prefix": "wal/"}],
          kills=[{"rank": 0, "frac": 0.75}]),
    ]


# ---------------------------------------------------------------------------
# Generator + mutator
# ---------------------------------------------------------------------------

def _random_kill(rng: random.Random, sched_app: str, nprocs: int) -> dict:
    rank = rng.randrange(nprocs)
    window = rng.choice(TRIGGER_FIELDS)
    if window == "in_collective" and sched_app not in COLLECTIVE_APPS:
        window = "frac"
    builders = {
        "after_ops": lambda: {"after_ops": rng.randint(3, 200)},
        "at_time": lambda: {"frac": round(rng.uniform(0.1, 0.9), 3)},
        "probability": lambda: {"probability":
                                round(rng.uniform(0.002, 0.02), 4)},
        "at_epoch": lambda: {"at_epoch": rng.randint(1, 3)},
        "in_collective": lambda: {"in_collective": rng.randint(1, 6)},
        "in_drain": lambda: {"in_drain": rng.randint(1, 2)},
        "at_commit": lambda: {"at_commit": rng.randint(1, 2)},
        "at_group_commit": lambda: {"at_group_commit": rng.randint(1, 2)},
        "frac": lambda: {"frac": round(rng.uniform(0.1, 0.9), 3)},
    }
    kill = {"rank": rank}
    kill.update(builders[window]())
    return kill


def _random_storage_fault(rng: random.Random) -> dict:
    kind = rng.choice(STORAGE_FAULT_KINDS)
    sf: Dict[str, Any] = {"kind": kind,
                          "after_ops": rng.randint(1, 30)}
    prefix = rng.choice(("", "ckpt/", "wal/"))
    if prefix:
        sf["path_prefix"] = prefix
    if kind in ("torn_write", "short_append") and rng.random() < 0.5:
        sf["keep_fraction"] = round(rng.uniform(0.0, 0.9), 3)
    if kind == "bit_rot":
        sf["bit"] = rng.randrange(1 << 14)
    if kind in ("enospc", "stall_sync") and rng.random() < 0.5:
        sf["count"] = rng.randint(1, 4)
    return sf


def _normalize(sched: FuzzSchedule) -> FuzzSchedule:
    """Repair generator/mutator artifacts: clamp ranks, force the WAL
    engine when a WAL-only fault feature is present, and aim every
    storage fault at what the chosen engine does — a torn ``write``
    becomes a short ``append`` on the WAL (which issues no ``write``),
    and a path prefix the engine never writes becomes its own."""
    kills = [dict(k) for k in sched.kills]
    for kill in kills:
        kill["rank"] = kill.get("rank", 0) % sched.nprocs
    storage = sched.storage
    if sched.needs_wal() and storage in ("memory", "disk"):
        storage = "wal" if storage == "memory" else "wal-disk"
    ops, prefix = _ENGINE_SURFACE[storage in ("wal", "wal-disk")]
    faults = [dict(sf) for sf in sched.storage_faults]
    for sf in faults:
        if not ops.intersection(OP_CLASS[sf["kind"]]):
            sf["kind"] = "short_append"
        if sf.get("path_prefix", prefix) != prefix:
            sf["path_prefix"] = prefix
    return replace(sched, kills=kills, storage=storage,
                   storage_faults=faults, params=dict(sched.params or {}))


def random_schedule(rng: random.Random, index: int) -> FuzzSchedule:
    app = rng.choice(FUZZ_APPS)
    nprocs = rng.randint(2, 5)
    platform = rng.choice(("testing", "testing", "testing-x2"))
    sched = FuzzSchedule(
        label=f"r{index:04d}",
        app=app,
        nprocs=nprocs,
        platform=platform,
        storage=rng.choice(("memory", "wal")),
        interval_frac=rng.choice((0.05, 0.1, 0.2, 0.3)),
        seed=rng.randrange(1 << 16),
        kills=[_random_kill(rng, app, nprocs)
               for _ in range(rng.randint(1, 3))],
        storage_faults=[_random_storage_fault(rng)
                        for _ in range(rng.randint(0, 2))],
    )
    # node-wide correlated kill: stagger a whole node's ranks
    if platform == "testing-x2" and rng.random() < 0.4:
        node = rng.randrange(max(1, nprocs // 2))
        base = round(rng.uniform(0.2, 0.7), 3)
        sched.kills = [{"rank": r, "frac": round(base + 0.05 * i, 3)}
                       for i, r in enumerate(range(node * 2, nprocs))
                       if r // 2 == node]
    return _normalize(sched)


def mutate(rng: random.Random, parent: FuzzSchedule,
           index: int) -> FuzzSchedule:
    """One random structural or numeric edit of ``parent``."""
    sched = FuzzSchedule.from_dict(parent.to_dict())
    sched.label = f"m{index:04d}"
    ops = ["add_kill", "tweak", "reseed", "interval"]
    if len(sched.kills) > 1 or (sched.kills and sched.storage_faults):
        ops.append("drop_kill")
    if len(sched.storage_faults) < 2:
        ops.append("add_sf")
    if sched.storage_faults:
        ops.append("drop_sf")
    if not sched.needs_wal():
        ops.append("flip_storage")
    op = rng.choice(ops)
    if op == "add_kill":
        sched.kills.append(_random_kill(rng, sched.app, sched.nprocs))
    elif op == "drop_kill" and sched.kills:
        sched.kills.pop(rng.randrange(len(sched.kills)))
    elif op == "add_sf":
        sched.storage_faults.append(_random_storage_fault(rng))
    elif op == "drop_sf" and sched.storage_faults:
        sched.storage_faults.pop(rng.randrange(len(sched.storage_faults)))
    elif op == "flip_storage":
        sched.storage = {"memory": "wal", "wal": "memory",
                         "disk": "wal-disk", "wal-disk": "disk"}[sched.storage]
    elif op == "reseed":
        sched.seed = rng.randrange(1 << 16)
    elif op == "interval":
        sched.interval_frac = rng.choice((0.05, 0.1, 0.2, 0.3))
    elif op == "tweak" and sched.kills:
        kill = sched.kills[rng.randrange(len(sched.kills))]
        for key in ("frac", "after_ops", "at_epoch", "in_collective",
                    "in_drain", "at_commit", "at_group_commit",
                    "probability"):
            if key in kill:
                fresh = _random_kill(rng, sched.app, sched.nprocs)
                if key in fresh:
                    kill[key] = fresh[key]
                break
        else:
            kill["rank"] = rng.randrange(sched.nprocs)
    if sched.fault_count() == 0:
        sched.kills.append(_random_kill(rng, sched.app, sched.nprocs))
    return _normalize(sched)


# ---------------------------------------------------------------------------
# Delta minimization
# ---------------------------------------------------------------------------

def minimize(sched: FuzzSchedule,
             runner: Callable[[FuzzSchedule], Dict[str, Any]],
             failure_class: str, budget: int = 32,
             ) -> Tuple[FuzzSchedule, int]:
    """Greedy delta-minimize a failing schedule.

    Repeatedly re-runs candidate schedules with one fault dropped (then
    with stretch counts shrunk to 1), keeping any candidate that still
    fails with the same ``failure_class``.  Returns the smallest
    still-failing schedule and the number of runs spent.  Deterministic
    replays make this sound: a candidate either reproduces or it doesn't.
    """
    runs = 0

    def still_fails(cand: FuzzSchedule) -> bool:
        nonlocal runs
        runs += 1
        record = runner(cand)
        return record["failure_class"] == failure_class

    cur = sched
    improved = True
    while improved and runs < budget:
        improved = False
        for fld in ("kills", "storage_faults"):
            items = getattr(cur, fld)
            for i in range(len(items)):
                cand_dict = cur.to_dict()
                cand_dict[fld] = items[:i] + items[i + 1:]
                cand_dict["label"] = f"{sched.label}-min"
                cand = FuzzSchedule.from_dict(cand_dict)
                if cand.needs_wal() and cand.storage not in ("wal",
                                                             "wal-disk"):
                    continue
                if still_fails(cand):
                    cur = cand
                    improved = True
                    break
            if improved or runs >= budget:
                break
    # shrink stretch counts on what survived
    for i, sf in enumerate(list(cur.storage_faults)):
        if runs >= budget:
            break
        if sf.get("count", 1) > 1:
            cand_dict = cur.to_dict()
            cand_dict["storage_faults"][i] = {
                k: v for k, v in sf.items() if k != "count"}
            cand = FuzzSchedule.from_dict(cand_dict)
            if still_fails(cand):
                cur = cand
    return cur, runs


# ---------------------------------------------------------------------------
# Corpus IO
# ---------------------------------------------------------------------------

def corpus_entry(sched: FuzzSchedule, record: Dict[str, Any],
                 note: str = "") -> Dict[str, Any]:
    """The JSON document pinned into the regression corpus."""
    return {
        "schedule": sched.to_dict(),
        "expect": record["verdict"],
        "failure_class": record["failure_class"],
        "failure": record["failure"],
        "note": note,
    }


def write_corpus_entry(corpus_dir: str, sched: FuzzSchedule,
                       record: Dict[str, Any], note: str = "") -> str:
    import os
    os.makedirs(corpus_dir, exist_ok=True)
    name = f"{sched.label.replace('/', '_')}-{sched.digest()}.json"
    path = os.path.join(corpus_dir, name)
    with open(path, "w") as f:
        json.dump(corpus_entry(sched, record, note), f, indent=2,
                  sort_keys=True)
        f.write("\n")
    return path


def load_schedule(path: str) -> FuzzSchedule:
    """Load one schedule from a corpus entry or a bare schedule JSON."""
    with open(path) as f:
        data = json.load(f)
    if "schedule" in data and "app" not in data:
        data = data["schedule"]
    return FuzzSchedule.from_dict(data)


# ---------------------------------------------------------------------------
# The fuzz loop
# ---------------------------------------------------------------------------

def _run_schedule_cell(sched_dict: Dict[str, Any],
                       engine: Optional[str] = None) -> Dict[str, Any]:
    """Pool-farmable wrapper: one schedule by value (no shared cache)."""
    return run_schedule(FuzzSchedule.from_dict(sched_dict), engine=engine)


def fuzz(max_schedules: int = 200, max_seconds: Optional[float] = None,
         seed: int = 0, corpus_dir: Optional[str] = None,
         smoke: bool = False, nprocs: int = 4, engine: Optional[str] = None,
         storage: Optional[str] = None, workers: Optional[int] = None,
         progress: Optional[Callable[[Dict[str, Any]], None]] = None,
         ) -> Dict[str, Any]:
    """Run the coverage-guided loop; returns the machine-readable report.

    The deterministic seed schedules always run first (they are the
    smoke-coverage floor); after that the queue is fed AFL-style —
    schedules that light up new coverage points get mutated back into
    the queue, otherwise fresh random schedules are drawn.  Failures are
    delta-minimized and (when ``corpus_dir`` is set) pinned as corpus
    JSON.  ``progress(record)`` receives every tried schedule's record.

    ``engine`` forwards to every golden/faulty/resume execution;
    ``storage`` forces each schedule's stable-storage flavor (WAL-only
    fault features promote memory->wal and disk->wal-disk so the
    schedule stays runnable); ``workers`` farms the deterministic seed
    wave through the process pool — the guided phase stays sequential
    because each step's generation depends on the coverage feedback of
    the previous one.
    """
    rng = random.Random(seed)
    cache: GoldenCache = {}
    queue = deque(seed_schedules(nprocs=nprocs))
    achieved: Set[str] = set()
    interesting: List[FuzzSchedule] = []
    failures: List[Dict[str, Any]] = []
    inconclusive = 0
    tried = 0
    minimizer_runs = 0
    t0 = time.monotonic()

    def force(s: FuzzSchedule) -> FuzzSchedule:
        if storage is None:
            return s
        return _normalize(replace(s, storage=storage))

    def runner(s: FuzzSchedule) -> Dict[str, Any]:
        return run_schedule(s, cache, engine=engine)

    # farm the deterministic seed wave when a pool budget was given;
    # records are consumed in input order, so the accounting (and the
    # RNG stream feeding mutations) matches the sequential run
    prerun: deque = deque()
    if workers is not None and workers > 1 and queue:
        wave = [force(s) for s in list(queue)[:max_schedules]]
        for _ in wave:
            queue.popleft()
        outs = run_cells(
            [Cell(_run_schedule_cell,
                  dict(sched_dict=s.to_dict(), engine=engine),
                  label=f"fuzz:{s.label}") for s in wave],
            parallel=True, max_workers=workers)
        for s, rec in zip(wave, outs):
            prerun.append((s, None if isinstance(rec, CellError) else rec))

    while tried < max_schedules:
        if max_seconds is not None and time.monotonic() - t0 > max_seconds:
            break
        record = None
        if prerun:
            sched, record = prerun.popleft()
        elif queue:
            sched = force(queue.popleft())
        elif interesting and rng.random() < 0.7:
            sched = force(mutate(rng, rng.choice(interesting), tried))
        else:
            sched = force(random_schedule(rng, tried))
        if record is None:
            record = runner(sched)
        tried += 1
        new = set(record["coverage"]) - achieved
        achieved |= new
        if record["verdict"] == "fail":
            mini, spent = minimize(sched, runner,
                                   record["failure_class"])
            minimizer_runs += spent
            mini_record = runner(mini)
            entry = {
                "schedule": sched.to_dict(),
                "minimized": mini.to_dict(),
                "minimized_faults": mini.fault_count(),
                "failure_class": record["failure_class"],
                "failure": record["failure"],
                "minimizer_runs": spent,
            }
            if corpus_dir:
                entry["corpus_path"] = write_corpus_entry(
                    corpus_dir, mini, mini_record,
                    note=f"auto-minimized from {sched.label} "
                         f"(fuzz seed {seed})")
            failures.append(entry)
        elif record["verdict"] == "inconclusive":
            inconclusive += 1
        if new:
            interesting.append(sched)
            for _ in range(2):
                queue.append(mutate(rng, sched, tried * 10 + len(queue)))
        if progress is not None:
            progress(record)

    missing = sorted(REQUIRED_COVERAGE - achieved)
    report = {
        "seed": seed,
        "schedules_tried": tried,
        "minimizer_runs": minimizer_runs,
        "wall_seconds": round(time.monotonic() - t0, 3),
        "coverage": sorted(achieved),
        "required": sorted(REQUIRED_COVERAGE),
        "missing_required": missing,
        "window_coverage_pct": round(
            100.0 * len(achieved & REQUIRED_COVERAGE)
            / len(REQUIRED_COVERAGE), 1),
        "failures": failures,
        "inconclusive": inconclusive,
        "smoke": smoke,
        "smoke_ok": not missing and not failures,
    }
    if engine is not None:
        report["engine"] = engine
    if storage is not None:
        report["storage"] = storage
    return report


FUZZ_TABLE = Table("Fault fuzzer: schedules tried", (
    ("Schedule", "label"),
    ("Verdict", lambda r: ("PASS" if r["verdict"] == "pass"
                           else r["verdict"].upper())),
    ("Restarts", "restarts"),
    ("Kills fired", lambda r: len(r.get("fired") or ())),
    ("Storage faults", lambda r: sum((r.get("injected") or {}).values())),
    ("Ckpts committed", "checkpoints_committed"),
    ("Coverage points", lambda r: len(r.get("coverage") or ())),
))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _add_args(ap: argparse.ArgumentParser) -> None:
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true",
                      help="CI gate: seed schedules + a short guided run; "
                           "exit nonzero unless every fault window and "
                           "storage-fault class was covered with zero "
                           "failures")
    mode.add_argument("--replay", metavar="PATH",
                      help="replay one corpus entry (or bare schedule "
                           "JSON) and report its verdict")
    ap.add_argument("--schedules", type=int, default=200,
                    help="schedule budget (default 200)")
    ap.add_argument("--seconds", type=float,
                    help="wall-clock budget in seconds")
    ap.add_argument("--nprocs", type=int, default=4,
                    help="ranks for the seed schedules (default 4)")
    ap.add_argument("--corpus", metavar="DIR",
                    help="write minimized failing schedules here")


def _refuse(args: argparse.Namespace) -> Optional[str]:
    if args.smoke and is_processes(args.engine):
        return ("--smoke gates on storage-fault coverage, which engine "
                "'processes' counts inside its forked node processes, "
                "out of the gate's sight: drop --smoke (the seed wave "
                "reports its failures in the JSON) or use --replay")
    return None


def _run(args: argparse.Namespace, progress):
    if args.replay:
        record = run_schedule(load_schedule(args.replay), engine=args.engine)
        row = dict(record, passed=record["verdict"] != "fail")
        progress(FUZZ_TABLE, row)
        return (record, [(FUZZ_TABLE, [row])],
                [] if row["passed"] else [record["label"]])
    if args.smoke:
        budget = args.schedules if args.schedules != 200 else 40
        seconds = args.seconds if args.seconds is not None else 60.0
    else:
        budget = args.schedules
        seconds = args.seconds
    records: List[Dict[str, Any]] = []

    def on_record(record: Dict[str, Any]) -> None:
        records.append(dict(record, passed=record["verdict"] != "fail"))
        progress(FUZZ_TABLE, records[-1])

    report = fuzz(max_schedules=budget, max_seconds=seconds,
                  seed=args.seed, corpus_dir=args.corpus, smoke=args.smoke,
                  nprocs=args.nprocs, engine=args.engine,
                  storage=args.storage,
                  workers=None if args.inline else args.workers,
                  progress=on_record)
    for failure in report["failures"]:
        print(f"FAIL [{failure['failure_class']}] {failure['failure']}\n"
              f"  minimized to {failure['minimized_faults']} fault(s): "
              f"{json.dumps(failure['minimized'])}")
    failed = []
    if args.smoke:
        failed = ([f"missing coverage {m}" for m in report["missing_required"]]
                  + [f"{f['schedule']['label']} [{f['failure_class']}]"
                     for f in report["failures"]])
    return report, [(FUZZ_TABLE, records)], failed


STUDY = Study(
    name="fuzz",
    description="Coverage-guided fault fuzzer: search kill x storage-fault "
                "schedules for recovery bugs; minimize and pin failures as "
                "regression corpus JSON.",
    run=_run, add_args=_add_args, refuse=_refuse,
    shared=("storage", "seed", "quiet"),
    help={"storage": "force every schedule's stable-storage flavor "
                     "(default: each schedule's own choice; WAL-only fault "
                     "features promote memory->wal and disk->wal-disk)",
          "seed": "master RNG seed (default 0)"},
    sort_keys=True, trailing_newline=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    return study_main(STUDY, argv)


if __name__ == "__main__":
    raise SystemExit(main())
