"""The six workloads: fixed lists of units over the program's public calls.

A *unit* is one timed public call (a campaign cell, a scaling point, a
checkpointing run, a restart, a service loop) plus the untimed check
that applies the system's own oracle to what the call returned.  Kernels
and sizes are fixed; ``seed`` only picks *which* rank the injected faults
kill (campaign cells and service jobs; the restart-cold victim is
pinned), the fault-plan RNG seed, the order and tenant assignment of the
service mix, and a +-0.1% scale on the *modelled* FLOP charge (virtual
time only — the host does identical work).  Different seeds therefore
simulate different jobs of the same host cost, which is what keeps the
run-to-run spread across seeds down to the machine's own noise.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro  # noqa: F401 - numpy, mpi, core: everything instrumented needs

_t0 = time.perf_counter()
import repro.apps.instrumented  # noqa: E402,F401 - runs the precompiler
#: ``precompiler.import_s``: six kernels instrumented at import time
PRECOMPILER_IMPORT_S = time.perf_counter() - _t0

from repro.apps import APPS  # noqa: E402
from repro.core.ccc import resume_from_manifest, run_c3, run_original
from repro.core.protocol import C3Config
from repro.harness.campaign import run_campaign, smoke_matrix
from repro.harness.loadgen import build_mix
from repro.harness.scaling import (
    SCALING_APPS, check_flatness, measure_scaling_point,
)
from repro.mpi.faults import FaultPlan, FaultSpec
from repro.mpi.timemodel import MACHINES
from repro.service import (
    CampaignService, canonical_result_bytes, execute_job,
)
from repro.storage.stable import DiskStorage, InMemoryStorage
from repro.storage.wal import WalStore

NPROCS = 4
LEMIEUX = MACHINES["lemieux"]


@dataclass
class Checked:
    """What a unit's untimed check found."""

    ops: int
    failed: int
    #: deterministic result rows (digested; wall fields are dropped)
    rows: List[Any]
    #: Σ simulated makespans of the C3 / faulty / resumed executions
    virt_s: float
    notes: List[str] = field(default_factory=list)
    #: counts the program itself reports, by per-layer metric name
    counters: Dict[str, float] = field(default_factory=dict)
    #: service-loop only: submit -> end-of-events seconds
    executed_latencies: List[float] = field(default_factory=list)
    cached_latencies: List[float] = field(default_factory=list)


@dataclass
class Unit:
    name: str
    #: ops the unit attempts (all count as failed if ``run`` raises)
    ops: int
    run: Callable[[], Any]
    check: Callable[[Any], Checked]
    #: untimed per-sample preparation (fresh store directory, fresh copy)
    before: Optional[Callable[[], None]] = None
    #: layer the unit's root span is charged to in the traced pass
    layer: str = "harness"


class Workload:
    """Base: ``units`` built in ``__init__`` (cheap — it is part of
    ``setup_s``), expensive golden runs in :meth:`prepare`."""

    name = ""
    #: which result fields ``virt_s`` sums (recorded in the JSON)
    virt_fields = ""

    def __init__(self, seed: int, workdir: str, ranks: Optional[int] = None):
        self.seed = seed
        self.workdir = workdir
        self.ranks = ranks
        self.units: List[Unit] = []

    def prepare(self) -> None:
        """Untimed, once: golden runs, crashed stores."""

    def extras(self, wall_s: float) -> Dict[str, float]:
        """Traced runs only: ratios against a baseline measured once."""
        return {}


def work_jitter(seed: int) -> float:
    """Scale on the modelled FLOP charge: virtual time only."""
    return 1.0 + 1e-3 * random.Random(seed).uniform(-1.0, 1.0)


def shift_victims(kills: Sequence[dict], seed: int, nprocs: int
                  ) -> Tuple[dict, ...]:
    return tuple(dict(k, rank=(k["rank"] + seed) % nprocs) for k in kills)


def rank_errors(result) -> List[str]:
    """One line per rank that raised inside the job."""
    return [f"rank {r}: {tb.splitlines()[-1]}" for r, tb in result.errors]


def same_returns(measured: Sequence[Any], golden: Sequence[Any]) -> bool:
    """Bitwise result equality, the recovery correctness criterion."""
    if len(measured) != len(golden):
        return False
    for m, g in zip(measured, golden):
        if isinstance(m, np.ndarray) or isinstance(g, np.ndarray):
            if not np.array_equal(np.asarray(m), np.asarray(g)):
                return False
        elif m != g:
            return False
    return True


# ---------------------------------------------------------------------------
# campaign-smoke
# ---------------------------------------------------------------------------

class CampaignSmoke(Workload):
    name = "campaign-smoke"
    virt_fields = "clean_c3_seconds + total_faulty_seconds per cell"

    def __init__(self, seed, workdir, ranks=None):
        super().__init__(seed, workdir, ranks)
        cells = smoke_matrix(seed=seed) + smoke_matrix(seed=seed,
                                                       storage="wal")
        for cell in cells:
            cell = dataclasses.replace(
                cell, kills=shift_victims(cell.kills, seed, cell.nprocs))
            self.units.append(Unit(
                name=cell.label, ops=1,
                run=lambda cell=cell: run_campaign([cell], parallel=False),
                check=self._check))

    @staticmethod
    def _check(report) -> Checked:
        row = dict(report.rows[0])
        row.pop("traceback", None)
        ok = bool(row["passed"]) and bool(row.get("verified"))
        return Checked(
            ops=1, failed=0 if ok else 1, rows=[row],
            virt_s=(row.get("clean_c3_seconds", 0.0)
                    + row.get("total_faulty_seconds", 0.0)),
            notes=[] if ok else [f"{row['scenario']}: {row['failure']}"])


# ---------------------------------------------------------------------------
# scale-256 / shard-256
# ---------------------------------------------------------------------------

#: (kernel, ranks): the top of the scaling sweep; CG's allgather volume
#: grows with the rank count, so it runs at 64
SCALE_POINTS = (("ring", 256), ("heat", 256), ("CG", 64))
#: the SCALING_APPS parameter carrying each kernel's modelled compute
MODELLED_WORK = {"ring": "work", "heat": "work_scale", "CG": "work_scale"}


class Scale256(Workload):
    name = "scale-256"
    virt_fields = "c3_seconds per point"
    engine: Optional[str] = None

    def __init__(self, seed, workdir, ranks=None):
        super().__init__(seed, workdir, ranks)
        jitter = work_jitter(seed)
        self.points = []
        for app, n in SCALE_POINTS:
            n = min(n, ranks) if ranks else n
            key = MODELLED_WORK[app]
            params = dict(SCALING_APPS[app])
            params[key] = params[key] * jitter
            self.points.append((app, n, params))
            self.units.append(Unit(
                name=f"{app}@{n}", ops=1,
                run=lambda a=app, n=n, p=params: measure_scaling_point(
                    a, n, "lemieux", p, engine=self.engine),
                check=self._check))

    @staticmethod
    def _check(row) -> Checked:
        # the sweep's own "low everywhere" criterion on this one point
        violations = check_flatness([row])
        return Checked(ops=1, failed=1 if violations else 0, rows=[row],
                       virt_s=row["c3_seconds"], notes=violations)


class Shard256(Scale256):
    name = "shard-256"
    engine = "sharded:4"

    def extras(self, wall_s: float) -> Dict[str, float]:
        """The same points on the cooperative engine, once each."""
        cooperative = 0.0
        for app, n, params in self.points:
            t0 = time.perf_counter()
            measure_scaling_point(app, n, "lemieux", params, engine=None)
            cooperative += time.perf_counter() - t0
        return {"mpi.sharded.overhead_x": wall_s / cooperative}


# ---------------------------------------------------------------------------
# ckpt-stream / restart-cold
# ---------------------------------------------------------------------------

#: kernel -> (parameters, checkpoint interval as a fraction of golden).
#: Sizes give 2 MiB (heat) and 1.7 MB (CG) of state per rank per line.
#: CG's work_scale only stretches *virtual* time: without it the whole
#: run is 12 virtual ms, no line can drain through the modelled 35 MB/s
#: node disk before the job ends, and nothing commits until finalize.
STREAM_KERNELS: Dict[str, Tuple[dict, float]] = {
    "heat": (dict(local_n=262144, niter=40, work_scale=2000.0), 0.05),
    "CG": (dict(local_n=8192, nnz_per_row=8, niter=12, work_scale=5000.0),
           0.08),
}
#: restart-cold kill instants, as fractions of the golden makespan
KILL_FRACTIONS = (0.6, 0.95)


class _StreamKernel:
    """One configured kernel plus its golden run."""

    def __init__(self, app: str, seed: int):
        params, self.interval_frac = STREAM_KERNELS[app]
        params = dict(params, work_scale=params["work_scale"]
                      * work_jitter(seed))
        self.app_name = app
        kernel = APPS[app]
        self.app = lambda ctx: kernel(ctx, **params)
        self.golden_returns: List[Any] = []
        self.golden_s = 0.0
        self.config = C3Config()

    def run_golden(self) -> None:
        golden = run_original(self.app, NPROCS, machine=LEMIEUX)
        golden.raise_errors()
        self.golden_returns = golden.returns
        self.golden_s = golden.virtual_time
        self.config = C3Config(
            checkpoint_interval=self.golden_s * self.interval_frac)


class CkptStream(Workload):
    name = "ckpt-stream"
    virt_fields = "JobResult.virtual_time per run"

    def __init__(self, seed, workdir, ranks=None):
        super().__init__(seed, workdir, ranks)
        self.kernels = [_StreamKernel(app, seed) for app in STREAM_KERNELS]
        for k in self.kernels:
            root = os.path.join(workdir, f"stream-{k.app_name}")
            self.units.append(Unit(
                name=k.app_name, ops=1,
                before=lambda root=root: _fresh_dir(root),
                run=lambda k=k, root=root: run_c3(
                    k.app, NPROCS, machine=LEMIEUX,
                    storage=WalStore(DiskStorage(root)), config=k.config),
                check=lambda out, k=k, root=root: self._check(out, k, root)))

    def prepare(self) -> None:
        for k in self.kernels:
            k.run_golden()

    @staticmethod
    def _check(out, k: _StreamKernel, root: str) -> Checked:
        """op = recovery line: every started line must commit, and the
        newest must survive a cold reopen with deep validation."""
        result, stats = out
        notes = rank_errors(result)
        started = max((s.checkpoints_started for s in stats if s), default=0)
        committed = min((s.checkpoints_committed if s else 0 for s in stats),
                        default=0)
        ops = max(started, 1)
        failed = started - committed
        if notes or not same_returns(result.returns, k.golden_returns):
            notes.append(f"{k.app_name}: returns differ from golden")
            failed = ops
        else:
            cold = WalStore(DiskStorage(root))
            line = cold.last_committed_global(NPROCS, validate=True)
            if line is None or not all(
                    cold.validate_line(line, r, deep=True)
                    for r in range(NPROCS)):
                notes.append(f"{k.app_name}: no valid line after reopen")
                failed = max(failed, 1)
        shutil.rmtree(root, ignore_errors=True)
        row = {"app": k.app_name, "virtual_seconds": result.virtual_time,
               "started": started, "committed": committed,
               "sent_counts": result.sent_counts,
               "checkpoint_bytes": [s.last_checkpoint_bytes if s else None
                                    for s in stats]}
        return Checked(ops=ops, failed=failed, rows=[row],
                       virt_s=result.virtual_time, notes=notes)


class RestartCold(Workload):
    name = "restart-cold"
    virt_fields = "JobResult.virtual_time per resumed run"
    #: pinned, unlike the campaign's victims: which rank dies decides which
    #: line survives, and with it a tenth of the restart's host time
    VICTIM = 1

    def __init__(self, seed, workdir, ranks=None):
        super().__init__(seed, workdir, ranks)
        self.kernels = [_StreamKernel(app, seed) for app in STREAM_KERNELS]
        for k in self.kernels:
            for frac in KILL_FRACTIONS:
                crashed = self._crashed(k, frac)
                fresh = crashed + "-copy"
                self.units.append(Unit(
                    name=f"{k.app_name}@{frac}", ops=1,
                    before=lambda c=crashed, f=fresh: _fresh_copy(c, f),
                    run=lambda k=k, f=fresh: resume_from_manifest(
                        k.app, NPROCS, DiskStorage(f), machine=LEMIEUX,
                        config=k.config),
                    check=lambda out, k=k, f=fresh: self._check(out, k, f)))

    def _crashed(self, k: _StreamKernel, frac: float) -> str:
        return os.path.join(self.workdir, f"crashed-{k.app_name}-{frac}")

    def prepare(self) -> None:
        """Kill each kernel at each instant; what the dead job left on
        disk is all the restarts get."""
        for k in self.kernels:
            k.run_golden()
            for frac in KILL_FRACTIONS:
                crashed = self._crashed(k, frac)
                _fresh_dir(crashed)
                plan = FaultPlan([FaultSpec(rank=self.VICTIM,
                                            at_time=frac * k.golden_s)],
                                 seed=self.seed)
                result, _stats = run_c3(
                    k.app, NPROCS, machine=LEMIEUX,
                    storage=WalStore(DiskStorage(crashed)), config=k.config,
                    fault_plan=plan)
                result.raise_errors()
                if result.failure is None:
                    raise RuntimeError(
                        f"{k.app_name}@{frac}: the injected fault never "
                        "fired; there is nothing to restart from")

    @staticmethod
    def _check(out, k: _StreamKernel, fresh: str) -> Checked:
        result, stats = out
        shutil.rmtree(fresh, ignore_errors=True)
        notes = rank_errors(result)
        restored = [s.restored_version if s else None for s in stats]
        if not notes and not same_returns(result.returns, k.golden_returns):
            notes.append(f"{k.app_name}: recovered returns differ from "
                         "golden")
        if not notes and None in restored:
            notes.append(f"{k.app_name}: a rank restored from no line")
        row = {"app": k.app_name, "virtual_seconds": result.virtual_time,
               "restored_version": restored,
               "restore_seconds": [s.restore_seconds if s else None
                                   for s in stats],
               "replayed_from_log": [s.replayed_from_log if s else None
                                     for s in stats]}
        return Checked(ops=1, failed=1 if notes else 0, rows=[row],
                       virt_s=result.virtual_time, notes=notes)


def _fresh_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def _fresh_copy(src: str, dst: str) -> None:
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)


# ---------------------------------------------------------------------------
# service-loop
# ---------------------------------------------------------------------------

class ServiceLoop(Workload):
    name = "service-loop"
    virt_fields = ("clean_c3_seconds + total_faulty_seconds (recovery "
                   "jobs), c3_seconds (overhead jobs), executed jobs only")

    TENANTS = 4
    UNIQUE = 42
    DUPLICATES = 18
    #: the job mix itself is pinned; ``seed`` shuffles and re-targets it
    MIX_SEED = 0

    def __init__(self, seed, workdir, ranks=None):
        super().__init__(seed, workdir, ranks)
        rng = random.Random(seed)
        specs = []
        for i, spec in enumerate(build_mix(random.Random(self.MIX_SEED),
                                           self.UNIQUE)):
            specs.append(dataclasses.replace(
                spec, seed=1000 * seed + i,
                kills=shift_victims(spec.kills, seed, spec.nprocs)))
        rng.shuffle(specs)
        self.specs = specs
        self.tenants = [f"tenant{i:02d}" for i in range(self.TENANTS)]
        # spec i belongs to tenant i mod N; a duplicate goes back to the
        # same tenant (the golden-run cache is per tenant)
        self.first = [specs[t::self.TENANTS] for t in range(self.TENANTS)]
        dup = rng.sample(range(self.UNIQUE), self.DUPLICATES)
        self.second = [[specs[i] for i in dup if i % self.TENANTS == t]
                       for t in range(self.TENANTS)]
        self.units.append(Unit(
            name="closed-loop", ops=self.UNIQUE + self.DUPLICATES,
            run=self._run, check=self._check, layer="service"))

    def _run(self):
        async def client(svc, tenant, specs, out):
            """Closed loop: the next submission waits for this job's
            event stream to end."""
            for spec in specs:
                t0 = time.perf_counter()
                job = await svc.submit(tenant, spec)
                async for _event in job.events():
                    pass
                out.append({"tenant": tenant, "key": spec.cache_key(),
                            "latency": time.perf_counter() - t0,
                            "cached": job.cached, "ok": job.ok,
                            "error": job.error, "rows": job.rows})

        async def loop():
            first: List[dict] = []
            second: List[dict] = []
            async with CampaignService(workers=2, queue_limit=32) as svc:
                for phase, out in ((self.first, first),
                                   (self.second, second)):
                    await asyncio.gather(*[
                        client(svc, tenant, specs, out)
                        for tenant, specs in zip(self.tenants, phase)])
                return first, second, svc.stats()

        return asyncio.run(loop())

    def _check(self, out) -> Checked:
        first, second, stats = out
        originals = {(r["tenant"], r["key"]): r for r in first}
        notes = []
        for r in first:
            if not r["ok"]:
                notes.append(f"{r['tenant']} {r['key'][0]}: {r['error']}")
            elif r["cached"]:
                notes.append(f"{r['tenant']} {r['key'][0]}: first "
                             "submission served from cache")
        for r in second:
            orig = originals[(r["tenant"], r["key"])]
            if not r["ok"] or not r["cached"]:
                notes.append(f"{r['tenant']} {r['key'][0]}: duplicate not "
                             "cache-served")
            elif (orig["rows"] is None or canonical_result_bytes(r["rows"])
                    != canonical_result_bytes(orig["rows"])):
                notes.append(f"{r['tenant']} {r['key'][0]}: duplicate not "
                             "bitwise-equal")
        virt = 0.0
        for r in first:
            for row in r["rows"] or []:
                virt += (row["clean_c3_seconds"] + row["total_faulty_seconds"]
                         if "total_faulty_seconds" in row
                         else row["c3_seconds"])
        # digest rows in submission-independent order: completion order
        # is a property of the host schedule, not of the simulation
        rows = sorted(([list(r["key"]), r["cached"], r["rows"]]
                       for r in first + second), key=repr)
        return Checked(
            ops=len(first) + len(second), failed=len(notes), rows=rows,
            virt_s=virt, notes=notes,
            counters={"service.jobs_executed": float(stats["jobs_executed"]),
                      "service.jobs_cached": float(stats["jobs_cached"])},
            executed_latencies=[r["latency"] for r in first],
            cached_latencies=[r["latency"] for r in second])

    def extras(self, wall_s: float) -> Dict[str, float]:
        """The same 42 specs straight through ``execute_job``."""
        t0 = time.perf_counter()
        for spec in self.specs:
            wal = spec.storage in ("wal", "wal-disk")
            execute_job(spec, lambda wal=wal: (
                WalStore(InMemoryStorage()) if wal else InMemoryStorage()))
        return {"service.overhead_x": wall_s / (time.perf_counter() - t0)}


WORKLOADS = {cls.name: cls for cls in (
    CampaignSmoke, Scale256, CkptStream, RestartCold, ServiceLoop, Shard256)}
