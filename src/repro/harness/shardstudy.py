"""Sharded-engine study: scale smoke + engine-differential campaign.

Two questions about :mod:`repro.mpi.sharded`, answered in one
machine-readable report (``BENCH_shard.json``):

1. **Does it scale?**  A 4096-rank scaling point (the cooperative
   engine's practical sweep tops out around 256 ranks per the
   ``scaling`` module) measured end to end on the sharded backend —
   original vs. C3 makespan, exactly like a ``scaling`` sweep cell.
2. **Is it the same simulator, only faster?**  The recovery campaign
   matrix is run twice — cooperative and ``sharded:N`` — with identical
   scenarios (:func:`repro.harness.campaign.diff_campaigns`), and the
   rows are diffed cell by cell under the engine-differential contract
   of :func:`repro.harness.campaign.diff_rows` (DESIGN.md §10.4):
   everything a scenario *verifies* matches exactly, virtual timings
   bitwise for point-to-point apps and to a relative tolerance for the
   collective-heavy ones, and whatever is coupled to *where* a commit
   or an abort was observed is compared structurally.

Both campaign passes run the cells inline (no process pool), so the
wall-clock comparison isolates the engine: the cooperative pass is one
interpreter, the sharded pass forks N node-shards per cell.  On a
multi-core runner the sharded pass must win; ``--require-speedup X``
turns that expectation into the exit status (CI gates at >= 4 shards on
>= 4 cores).  The gate is refused up front — exit 2, before any cell
runs — on fewer cores than shards (vacuous) or with ``--workers``
(pool-farmed passes no longer time the engine).

The CLI is :data:`STUDY` (:func:`repro.harness.jobs.study_main`); its
one-row :data:`SHARD_TABLE` is the summary EXPERIMENTS.md records.

Command line::

    python -m repro.harness.shardstudy --json BENCH_shard.json
    python -m repro.harness.shardstudy --matrix full --shards 4 \\
        --require-speedup 1.0
    python -m repro.harness.shardstudy --scale-ranks 4096 --matrix smoke
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import time
from typing import Optional, Sequence

from .campaign import diff_campaigns, full_matrix, smoke_matrix
from .jobs import Study, Table, study_main
from .scaling import measure_scaling_point

__all__ = ["SHARD_TABLE", "STUDY", "main"]


def _other_wall(payload) -> float:
    """The campaign wall of the engine compared against cooperative."""
    return next(v for k, v in payload["campaign_wall_seconds"].items()
                if k != "cooperative")


SHARD_TABLE = Table("Sharded engine: scaling point + differential campaign", (
    ("Ranks", lambda p: p["scaling_point"]["nprocs"]),
    ("Platform", lambda p: p["scaling_point"]["platform"]),
    ("Original s", lambda p: round(p["scaling_point"]["original_seconds"],
                                   4)),
    ("C3 s", lambda p: round(p["scaling_point"]["c3_seconds"], 4)),
    ("Overhead %", lambda p: round(p["scaling_point"]["overhead_pct"], 2)),
    ("Cells", "cells"),
    ("Coop wall s",
     lambda p: round(p["campaign_wall_seconds"]["cooperative"], 1)),
    ("Sharded wall s", lambda p: round(_other_wall(p), 1)),
    ("Cells match", lambda p: "yes" if p["cells_match"] else "NO"),
))


def _add_args(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--shards", type=int, default=4,
                    help="worker processes for the sharded passes "
                         "(default 4)")
    ap.add_argument("--matrix", choices=["smoke", "full"], default="smoke",
                    help="campaign matrix to compare (smoke: CI subset; "
                         "full: all 480 app x platform x kill cells)")
    ap.add_argument("--nprocs", type=int, default=4,
                    help="simulated ranks per campaign cell (default 4)")
    ap.add_argument("--scale-ranks", type=int, default=4096,
                    help="rank count of the sharded scaling point "
                         "(default 4096)")
    ap.add_argument("--rtol", type=float, default=2e-2,
                    help="relative tolerance for drain-position-coupled "
                         "virtual timings (default 2e-2)")
    ap.add_argument("--require-speedup", type=float, metavar="X",
                    help="exit 1 unless sharded campaign wall is at "
                         "least X times faster than cooperative; refused "
                         "when the machine has fewer cores than shards")


def _farm(args: argparse.Namespace) -> bool:
    return args.workers is not None and not args.inline


def _refuse(args: argparse.Namespace) -> Optional[str]:
    if args.require_speedup is None:
        return None
    if _farm(args):
        return ("refusing --require-speedup with --workers: pool-farmed "
                "campaign passes do not isolate the engine")
    cores = os.cpu_count() or 1
    if cores < args.shards:
        return (f"refusing --require-speedup: {cores} cores < "
                f"{args.shards} shards makes the gate vacuous")
    return None


def _run(args: argparse.Namespace, progress):
    t0 = time.time()
    engine = args.engine or f"sharded:{args.shards}"
    scenarios = (full_matrix(nprocs=args.nprocs) if args.matrix == "full"
                 else smoke_matrix(nprocs=args.nprocs))
    if args.storage is not None:
        scenarios = [dataclasses.replace(s, storage=args.storage)
                     for s in scenarios]
    point = measure_scaling_point(
        "ring", args.scale_ranks, "lemieux",
        dict(payload=16, niter=4, work=0.1), engine=engine,
        wall_timeout=600.0, storage=args.storage)
    coop, shard, mismatches = diff_campaigns(
        scenarios, engine, rtol=args.rtol, parallel=_farm(args),
        max_workers=args.workers)
    speedup = (coop.wall_seconds / shard.wall_seconds
               if shard.wall_seconds else float("inf"))
    payload = {
        "shards": args.shards,
        "matrix": args.matrix,
        "cells": len(scenarios),
        "cpu_count": os.cpu_count(),
        "scaling_point": point,
        "campaign_wall_seconds": {
            "cooperative": coop.wall_seconds,
            engine: shard.wall_seconds,
        },
        "speedup": speedup,
        "cooperative_ok": coop.ok,
        "sharded_ok": shard.ok,
        "cells_match": not mismatches,
        "mismatches": mismatches,
        "summary": {
            "cooperative": coop.summary(),
            engine: shard.summary(),
        },
    }
    if args.engine is not None:
        payload["engine"] = engine
    if args.storage is not None:
        payload["storage"] = args.storage
    payload["wall_seconds"] = time.time() - t0
    failed = ([f"cooperative:{s}" for s in coop.summary()["failed"]]
              + [f"{engine}:{s}" for s in shard.summary()["failed"]]
              + mismatches)
    if (args.require_speedup is not None
            and speedup < args.require_speedup):
        failed.append(f"speedup {speedup:.2f}x below required "
                      f"{args.require_speedup:.2f}x")
    return (payload, [(SHARD_TABLE, [dict(payload, passed=not failed)])],
            failed)


STUDY = Study(
    name="shardstudy",
    description="Scale smoke + cooperative-vs-sharded campaign comparison "
                "for the sharded virtual-time engine.",
    run=_run, add_args=_add_args, refuse=_refuse, shared=("storage",),
    help={"engine": "engine compared against cooperative: sharded[:N] "
                    "(default: sharded:<--shards>)",
          "storage": "stable-storage flavor forced on both campaign passes "
                     "and the scaling point (default: the scenarios' "
                     "native backends)"})


def main(argv: Optional[Sequence[str]] = None) -> int:
    return study_main(STUDY, argv)


if __name__ == "__main__":
    raise SystemExit(main())
