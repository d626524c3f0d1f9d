"""Service load generator: the ``BENCH_service.json`` gate.

Drives N concurrent tenants of mixed job submissions through a
:class:`repro.service.CampaignService` and gates what the service
layer promises:

* **zero verify failures** — every recovery job must recover and
  verify bitwise against its golden run; every overhead job must
  complete;
* **golden-run cache correctness under load** — phase 2 resubmits a
  sample of phase-1 jobs (same tenant, same spec): each must be served
  from the cache without re-execution and compare *bitwise* equal to
  the first run's canonical result bytes;
* **p99 submission-to-first-result latency** — measured from
  ``submit`` (so queue wait counts) to the first streamed cell event,
  against ``--p99-budget``.

The default shape — 120 submissions across 4 tenants through a
32-deep bounded queue — exercises backpressure: far more submissions
in flight than the queue admits.  Everything is seeded, so the bench
is reproducible run to run (latencies aside).

The CLI is :data:`STUDY` (:func:`repro.harness.jobs.study_main`); its
``run`` drives the asyncio service rather than a cell grid, and the
one-row :data:`SERVICE_TABLE` is the summary EXPERIMENTS.md records.
A failed gate is named in the failure roster.

Command line::

    python -m repro.harness.loadgen --json BENCH_service.json
    python -m repro.harness.loadgen --tenants 8 --jobs 500 --workers 8
    python -m repro.harness.loadgen --storage wal --p99-budget 10
"""

from __future__ import annotations

import argparse
import asyncio
import math
import random
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..service import CampaignService, JobSpec, canonical_result_bytes
from .jobs import Study, Table, study_main

__all__ = ["SERVICE_TABLE", "STUDY", "build_mix", "drive", "main",
           "percentile", "run_loadgen"]

#: fast kernels the mix draws from (testing-platform scale)
MIX_APPS = ("ring", "heat", "CG")

#: kill-timing classes for the recovery jobs in the mix
MIX_KILLS = {
    "early": lambda n: ({"rank": n - 1, "frac": 0.2},),
    "mid": lambda n: ({"rank": 1 % n, "frac": 0.55},),
    "late": lambda n: ({"rank": 0, "frac": 0.85},),
    "double": lambda n: ({"rank": 1 % n, "frac": 0.35},
                         {"rank": n - 1, "frac": 0.7},),
}


def build_mix(rng: random.Random, count: int,
              storage: Optional[str] = None,
              engine: Optional[str] = None,
              platform: str = "testing") -> List[JobSpec]:
    """``count`` distinct job specs: mostly recovery, some overhead.

    Each spec gets a distinct ``seed``, so every spec is a distinct
    cache key — phase-1 cache hits would silently shrink the amount of
    real execution the bench measures.
    """
    specs: List[JobSpec] = []
    for i in range(count):
        app = rng.choice(MIX_APPS)
        nprocs = rng.randint(2, 4)
        flavor = storage if storage is not None \
            else rng.choice(("memory", "wal"))
        if rng.random() < 0.2:
            specs.append(JobSpec(app=app, platform=platform,
                                 nprocs=nprocs, seed=i, engine=engine,
                                 storage=flavor, kind="overhead"))
        else:
            kills = MIX_KILLS[rng.choice(tuple(MIX_KILLS))](nprocs)
            specs.append(JobSpec(app=app, platform=platform,
                                 nprocs=nprocs, seed=i, engine=engine,
                                 storage=flavor, kills=kills))
    return specs


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in [0, 100]) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


async def _submit_and_consume(service: CampaignService, tenant: str,
                              spec: JobSpec) -> Dict[str, Any]:
    """Submit one job and stream its events to completion."""
    job = await service.submit(tenant, spec)
    cells = 0
    async for event in job.events():
        if event["type"] == "cell":
            cells += 1
    end = job.first_result_at if job.first_result_at is not None \
        else time.monotonic()
    return {
        "tenant": tenant,
        "key": spec.cache_key(),
        "cached": job.cached,
        "ok": job.ok,
        "error": job.error,
        "cells": cells,
        "latency": end - job.submitted_at,
        "bytes": (canonical_result_bytes(job.rows)
                  if job.rows is not None else None),
    }


async def drive(service: CampaignService, tenants: Sequence[str],
                specs: Sequence[JobSpec], duplicates: Sequence[int],
                ) -> Tuple[List[Dict], List[Dict]]:
    """Phase 1: every spec once (spec i on tenant i mod N), all
    concurrent.  Phase 2: the sampled duplicate indices again, same
    tenant and spec — these must be cache-served.  Returns both phases'
    per-job records."""
    assignment = [tenants[i % len(tenants)] for i in range(len(specs))]
    first = await asyncio.gather(*[
        _submit_and_consume(service, assignment[i], specs[i])
        for i in range(len(specs))])
    second = await asyncio.gather(*[
        _submit_and_consume(service, assignment[i], specs[i])
        for i in duplicates])
    for rec, i in zip(second, duplicates):
        rec["duplicate_of"] = i
        rec["bitwise_equal"] = (rec["bytes"] is not None
                                and rec["bytes"] == first[i]["bytes"])
    return list(first), list(second)


def run_loadgen(tenants: int = 4, jobs: int = 120,
                duplicate_frac: float = 0.3, queue_limit: int = 32,
                workers: Optional[int] = None, seed: int = 0,
                storage: Optional[str] = None,
                engine: Optional[str] = None,
                platform: str = "testing",
                p99_budget: float = 30.0) -> Dict[str, Any]:
    """The whole bench; returns the ``BENCH_service.json`` payload."""
    rng = random.Random(seed)
    n_dup = int(jobs * duplicate_frac)
    n_unique = max(1, jobs - n_dup)
    # The engine rides the service's default_engine (the process-backend
    # executor option), not the specs: that is the seam a deployment
    # would flip, and the cache keys must reflect the engine the service
    # actually applied.
    specs = build_mix(rng, n_unique, storage=storage, platform=platform)
    duplicates = [rng.randrange(n_unique) for _ in range(n_dup)]
    tenant_names = [f"tenant{i:02d}" for i in range(max(1, tenants))]
    workers = workers if workers is not None else 4

    async def bench() -> Tuple[List[Dict], List[Dict], Dict]:
        async with CampaignService(queue_limit=queue_limit,
                                   workers=workers,
                                   default_engine=engine) as svc:
            first, second = await drive(svc, tenant_names, specs,
                                        duplicates)
            return first, second, svc.stats()

    t0 = time.monotonic()
    first, second, stats = asyncio.run(bench())
    wall = time.monotonic() - t0

    everything = first + second
    failures = [r for r in everything if not r["ok"]]
    dup_misses = [r for r in second if not r["cached"]]
    dup_unequal = [r for r in second if not r["bitwise_equal"]]
    latencies = [r["latency"] for r in everything]
    p99 = percentile(latencies, 99.0)
    submissions = len(everything)
    gates = {
        "zero_verify_failures": not failures,
        "duplicates_cache_served": not dup_misses,
        "duplicates_bitwise_equal": not dup_unequal,
        "p99_within_budget": p99 <= p99_budget,
    }
    return {
        "config": {
            "tenants": len(tenant_names), "jobs": jobs,
            "unique_jobs": n_unique, "duplicates": len(duplicates),
            "duplicate_frac": duplicate_frac,
            "queue_limit": queue_limit, "workers": workers,
            "seed": seed, "storage": storage, "engine": engine,
            "platform": platform, "p99_budget_s": p99_budget,
        },
        "submissions": submissions,
        "wall_seconds": round(wall, 3),
        "throughput_jobs_per_s": round(submissions / wall, 2) if wall
        else None,
        "cache": {
            "hits": sum(1 for r in everything if r["cached"]),
            "hit_rate": round(
                sum(1 for r in everything if r["cached"]) / submissions,
                4),
            "duplicate_misses": len(dup_misses),
            "duplicate_mismatches": len(dup_unequal),
        },
        "latency_s": {
            "p50": round(percentile(latencies, 50.0), 4),
            "p90": round(percentile(latencies, 90.0), 4),
            "p99": round(p99, 4),
            "max": round(max(latencies), 4) if latencies else 0.0,
        },
        "verify_failures": [
            {"tenant": r["tenant"], "error": r["error"]}
            for r in failures],
        "service": stats,
        "gates": gates,
        "ok": all(gates.values()),
    }


SERVICE_TABLE = Table("Campaign service: loadgen gates", (
    ("Submissions", "submissions"),
    ("Tenants", lambda p: p["config"]["tenants"]),
    ("Unique", lambda p: p["config"]["unique_jobs"]),
    ("Queue depth", lambda p: p["config"]["queue_limit"]),
    ("Jobs/s", "throughput_jobs_per_s"),
    ("Cache hits", lambda p: p["cache"]["hits"]),
    ("Dup misses", lambda p: p["cache"]["duplicate_misses"]),
    ("Bitwise mismatches", lambda p: p["cache"]["duplicate_mismatches"]),
    ("p50 s", lambda p: p["latency_s"]["p50"]),
    ("p99 s", lambda p: p["latency_s"]["p99"]),
    ("Gates", lambda p: "PASS" if p["ok"] else "FAIL"),
))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _add_args(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--tenants", type=int, default=4,
                    help="concurrent tenants (default 4)")
    ap.add_argument("--jobs", type=int, default=120,
                    help="total submissions, duplicates included "
                         "(default 120)")
    ap.add_argument("--duplicate-frac", type=float, default=0.3,
                    help="fraction of submissions that resubmit an "
                         "earlier spec (default 0.3)")
    ap.add_argument("--queue-limit", type=int, default=32,
                    help="bounded queue depth (default 32: far fewer "
                         "slots than submissions, so backpressure is "
                         "exercised)")
    ap.add_argument("--platform", default="testing",
                    help="machine model for every job (default testing)")
    ap.add_argument("--p99-budget", type=float, default=30.0,
                    help="p99 submission-to-first-result budget in "
                         "seconds (default 30)")


def _run(args: argparse.Namespace, progress):
    report = run_loadgen(
        tenants=args.tenants, jobs=args.jobs,
        duplicate_frac=args.duplicate_frac,
        queue_limit=args.queue_limit,
        workers=1 if args.inline else args.workers, seed=args.seed,
        storage=args.storage, engine=args.engine,
        platform=args.platform, p99_budget=args.p99_budget)
    failed = [name for name, passed in report["gates"].items() if not passed]
    return (report, [(SERVICE_TABLE, [dict(report, passed=report["ok"])])],
            failed)


STUDY = Study(
    name="loadgen",
    description="Drive N concurrent tenants of mixed submissions through "
                "the campaign service; gate verify failures, cache "
                "correctness, and p99 latency.",
    run=_run, add_args=_add_args, shared=("storage", "seed", "quiet"),
    help={"storage": "force every job's stable-storage flavor (default: a "
                     "seeded memory/wal mix)",
          "seed": "mix RNG seed (default 0)"})


def main(argv: Optional[Sequence[str]] = None) -> int:
    return study_main(STUDY, argv)


if __name__ == "__main__":
    raise SystemExit(main())
