"""Scaling study: C3 overhead vs. process count at paper-true scales.

Paper mapping: Tables 2-3 make the headline scalability claim — the
C3 coordination layer's failure-free overhead stays small and roughly
*flat* as the process count grows into the hundreds ("up to hundreds of
processes").  The table drivers reproduce the individual cells at
downscaled rank counts; this module reproduces the *claim itself*: it
sweeps 16 -> 256 simulated ranks on the three evaluation cluster models
(Lemieux, Velocity 2, CMI), measuring the original-vs-C3 runtime at
each point under weak scaling (per-rank working set held constant, the
regime of the paper's scaling runs), and checks that the overhead at
the largest rank count does not deviate from the small-rank trend
beyond a tolerance.

Feasible because the engine's default backend is the cooperative rank
scheduler (:mod:`repro.mpi.scheduler`): a 256-rank job costs 256 parked
carrier fibers handing off to one another, not 256 free-running 1 MiB
threads.  The sweep also accepts ``engine="processes[:N]"`` to split
the simulated nodes across N forked worker processes
(:mod:`repro.mpi.processes`).  Those jobs run every collective on the
point-to-point driver while the cooperative sweep evaluates them in
closed form (DESIGN.md §2.5), so the two sweeps, minus wall clock and
engine name, are a bitwise differential of the two drivers.

Command line::

    python -m repro.harness.scaling --json BENCH_scaling.json
    python -m repro.harness.scaling --ranks 16,64,256 --apps ring,heat
    python -m repro.harness.scaling --platforms lemieux --engine processes:2

Exit status 0 iff every (platform, app) series satisfies the flatness
criterion (the violations are the failure roster); a malformed
``--ranks`` or an unknown ``--apps`` / ``--platforms`` value exits 2
before anything runs.  The JSON report carries the rows, the
violations, and the sweep configuration, and is uploaded by the
``scaling-smoke`` CI job as ``BENCH_scaling.json``.  The CLI is
:data:`STUDY` (:func:`repro.harness.jobs.study_main`), its table
:data:`SCALING_TABLE`.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..mpi.engine import resolve_backend
from ..mpi.timemodel import MACHINES
from .jobs import Study, Table, open_store, render_text, study_main
from .parallel import Cell, run_cells
from .runner import measure_c3, measure_original

__all__ = [
    "SCALING_APPS", "SCALING_PLATFORMS", "SCALING_RANKS", "SCALING_TABLE",
    "STUDY", "check_flatness", "main", "measure_scaling_point",
    "render_scaling", "scaling_cell", "scaling_rows",
]

#: the sweep's process counts: 16 (the old simulator ceiling) up to 256
#: (the top of the paper's Velocity 2 runs, mid-range on Lemieux)
SCALING_RANKS: Tuple[int, ...] = (16, 32, 64, 128, 256)

#: weak-scaling kernels: per-rank parameters held constant across rank
#: counts, so the per-rank compute/communication mix matches at every
#: point and any overhead growth is attributable to the protocol.
#: ``ring`` stresses collectives + neighbor exchange; ``heat`` is the
#: canonical halo pattern; ``CG`` adds an allgather whose volume grows
#: with the rank count (the hardest case for flatness).
SCALING_APPS: Dict[str, dict] = {
    "ring": dict(payload=16, niter=6, work=0.1),
    "heat": dict(local_n=32, niter=8, work_scale=2.5e6),
    "CG": dict(local_n=8, nnz_per_row=4, niter=3, work_scale=4e6),
}

#: the three evaluation clusters of Tables 2-7
SCALING_PLATFORMS: Tuple[str, ...] = ("lemieux", "velocity2", "cmi")

#: default flatness tolerance: |overhead(max ranks) - small-rank trend|
#: in percentage points (the paper's series move a few points at most)
DEFAULT_TOLERANCE_PCT = 5.0


def measure_scaling_point(app_name: str, nprocs: int, platform: str,
                          params: dict, engine: Optional[str] = None,
                          wall_timeout: float = 240.0,
                          storage: Optional[str] = None) -> Dict:
    """One sweep cell: original vs. C3-without-checkpoints at one scale.

    ``storage`` names a stable-storage flavor from the shared CLI seam
    (:data:`repro.harness.jobs.STORAGE_CHOICES`); ``None`` keeps the
    production default (WAL over in-memory storage).
    """
    machine = MACHINES[platform]
    t0 = time.time()
    with open_store(storage, prefix="repro-scaling-") as factory:
        orig = measure_original(app_name, nprocs, machine, params,
                                wall_timeout=wall_timeout, engine=engine)
        c3 = measure_c3(app_name, nprocs, machine, params, checkpoints=0,
                        wall_timeout=wall_timeout, engine=engine,
                        storage=factory() if factory is not None else None)
    overhead = ((c3.virtual_seconds - orig.virtual_seconds)
                / orig.virtual_seconds * 100.0)
    row = {
        "app": app_name,
        "platform": platform,
        "nprocs": nprocs,
        # the engine as the caller spelled it: the perf benchmark's
        # shard-256 rows are pinned with "sharded:4", a spelling of
        # "processes:4"
        "engine": resolve_backend(None) if engine is None else engine,
        "original_seconds": orig.virtual_seconds,
        "c3_seconds": c3.virtual_seconds,
        "overhead_pct": overhead,
        "app_sends": c3.app_sends,
        "wall_seconds": time.time() - t0,
    }
    if storage is not None:
        row["storage"] = storage
    return row


def scaling_cell(app_name: str, nprocs: int, platform: str, params: dict,
                 **kw) -> Cell:
    """A :func:`measure_scaling_point` run as a farmable cell."""
    return Cell(measure_scaling_point,
                dict(app_name=app_name, nprocs=nprocs, platform=platform,
                     params=params, **kw),
                label=f"scaling:{app_name}@{nprocs}:{platform}")


def scaling_rows(ranks: Sequence[int] = SCALING_RANKS,
                 apps: Optional[Dict[str, dict]] = None,
                 platforms: Sequence[str] = SCALING_PLATFORMS,
                 engine: Optional[str] = None,
                 parallel: Optional[bool] = None,
                 max_workers: Optional[int] = None,
                 storage: Optional[str] = None,
                 wall_timeout: float = 240.0) -> List[Dict]:
    """The full sweep: platforms x apps x rank counts, pool-farmed."""
    apps = apps if apps is not None else SCALING_APPS
    extra = {} if storage is None else {"storage": storage}
    cells = [scaling_cell(app, n, platform, params, engine=engine,
                          wall_timeout=wall_timeout, **extra)
             for platform in platforms
             for app, params in apps.items()
             for n in ranks]
    return list(run_cells(cells, parallel=parallel,
                          max_workers=max_workers))


def check_flatness(rows: Sequence[Dict],
                   tolerance_pct: float = DEFAULT_TOLERANCE_PCT,
                   cap_pct: float = 10.0,
                   floor_pct: float = -2.0) -> List[str]:
    """Verify the paper's flat-overhead shape; returns violations.

    Two criteria, mirroring what the Table 2/3 benches assert at
    downscaled ranks, now at paper scale:

    * **low everywhere** — every point's overhead must sit inside
      ``(floor_pct, cap_pct)`` (the paper's series stay below ~10%
      except the called-out SMG2000 anomaly, which the sweep kernels
      avoid);
    * **no runaway growth** — per (platform, app) series, the overhead
      at the largest rank count must sit within ``tolerance_pct``
      percentage points of the small-rank trend (the mean of the two
      smallest rank counts).
    """
    series: Dict[Tuple[str, str], List[Tuple[int, float]]] = {}
    violations = []
    for r in rows:
        o = r["overhead_pct"]
        if not floor_pct < o < cap_pct:
            violations.append(
                f"{r['platform']}/{r['app']}: overhead at {r['nprocs']} "
                f"ranks is {o:.2f}%, outside ({floor_pct:.1f}%, "
                f"{cap_pct:.1f}%)")
        series.setdefault((r["platform"], r["app"]), []).append(
            (r["nprocs"], o))
    for (platform, app), pts in sorted(series.items()):
        pts.sort()
        if len(pts) < 2:
            continue
        baseline = sum(o for _, o in pts[:2]) / 2.0
        top_n, top_o = pts[-1]
        if abs(top_o - baseline) > tolerance_pct:
            violations.append(
                f"{platform}/{app}: overhead at {top_n} ranks is "
                f"{top_o:.2f}% vs small-rank trend {baseline:.2f}% "
                f"(tolerance {tolerance_pct:.1f} points)")
    return violations


SCALING_TABLE = Table(
    "Scaling study: C3 overhead vs process count (weak scaling)", (
        ("Platform", "platform"),
        ("Code", "app"),
        ("Ranks", "nprocs"),
        ("Original s", lambda r: round(r["original_seconds"], 4)),
        ("C3 s", lambda r: round(r["c3_seconds"], 4)),
        ("Overhead %", lambda r: round(r["overhead_pct"], 2)),
    ))

#: kept importable under the package's lazy exports
render_scaling = partial(render_text, SCALING_TABLE)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class _RankCounts:
    """The ``--ranks`` vocabulary: any positive decimal integer."""

    def __contains__(self, value: str) -> bool:
        return value.isdigit() and int(value) > 0

    def __iter__(self):
        yield "positive integers"


def _add_args(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--ranks", default=",".join(map(str, SCALING_RANKS)),
                    help="comma-separated rank counts "
                         f"(default {','.join(map(str, SCALING_RANKS))})")
    ap.add_argument("--apps", default=",".join(SCALING_APPS),
                    help="comma-separated kernels "
                         f"(known: {', '.join(SCALING_APPS)})")
    ap.add_argument("--platforms", default=",".join(SCALING_PLATFORMS),
                    help="comma-separated machine models "
                         f"(default {','.join(SCALING_PLATFORMS)})")
    ap.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE_PCT,
                    help="flatness tolerance in percentage points "
                         f"(default {DEFAULT_TOLERANCE_PCT})")


def _run(args: argparse.Namespace, progress):
    ranks = tuple(int(r) for r in args.ranks)
    apps = {a: SCALING_APPS[a] for a in args.apps}
    rows = scaling_rows(ranks=ranks, apps=apps, platforms=args.platforms,
                        engine=args.engine, storage=args.storage,
                        parallel=False if args.inline else None,
                        max_workers=args.workers)
    violations = check_flatness(rows, tolerance_pct=args.tolerance)
    config = {
        "ranks": list(ranks), "apps": sorted(apps),
        "platforms": list(args.platforms),
        "engine": resolve_backend(args.engine),
        "tolerance_pct": args.tolerance,
    }
    if args.storage is not None:
        config["storage"] = args.storage
    return ({"config": config, "violations": violations, "rows": rows},
            [(SCALING_TABLE, rows)], violations)


STUDY = Study(
    name="scaling",
    description="Sweep 16->256 simulated ranks on the paper's cluster "
                "models and verify the flat overhead-vs-process-count "
                "claim of Tables 2-3.",
    run=_run, add_args=_add_args, shared=("storage",),
    selections=(("ranks", _RankCounts(), "rank counts"),
                ("apps", SCALING_APPS, "scaling apps"),
                ("platforms", MACHINES, "platforms")))


def main(argv: Optional[Sequence[str]] = None) -> int:
    return study_main(STUDY, argv)


if __name__ == "__main__":
    sys.exit(main())
