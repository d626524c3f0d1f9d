"""Process-backend differential study: real SIGKILLs vs the oracle.

``engine="processes"`` (DESIGN.md §12) is the one backend whose faults
are not simulated: each simulated node is a real forked OS process and
a due :class:`~repro.mpi.faults.FaultSpec` is delivered as an actual
``SIGKILL``, with recovery restarting from WAL stable storage on disk.
This study is its acceptance harness:

1. **Campaign slice** — the seeded campaign smoke matrix (every app
   kernel, rotated kill timings) is run twice over ``wal-disk``
   storage: once on the cooperative oracle, once on ``processes[:N]``
   (:func:`repro.harness.campaign.diff_campaigns`).
2. **Real-kill gate** — every fault-injected processes cell must
   report at least one *waitpid-confirmed* SIGKILL delivery
   (``real_kills >= 1``, counted by :func:`repro.harness.runner.
   measure_recovery` from :attr:`JobResult.real_kills
   <repro.mpi.engine.JobResult>` evidence) and at least one restart
   from the on-disk WAL — a slice whose kills didn't physically take a
   process is vacuous and fails.
3. **Cross-engine diff** — row pairs are compared under the
   real-kill engine-differential contract
   (:func:`repro.harness.campaign.diff_rows`):
   verification verdicts, restart counts, and fired-kill evidence
   exactly; everything coupled to what the crash physically left
   durable (a real kill loses the victim's staged WAL tail whole, the
   cooperative engine models a torn tail) structurally.

Usage::

    python -m repro.harness.procstudy --json BENCH_processes.json
    python -m repro.harness.procstudy --apps ring,heat,CG --procs 2

Exit status 0 iff both campaign passes verified, every processes cell
passed the real-kill gate, and every row pair matched under the
contract.  ``--json`` writes the machine-readable report the CI
``process-backend`` job uploads.  The CLI is :data:`STUDY`
(:func:`repro.harness.jobs.study_main`); its one-row
:data:`PROC_TABLE` is the summary EXPERIMENTS.md records.
"""

from __future__ import annotations

import argparse
import os
import time
from functools import partial
from typing import Dict, List, Optional, Sequence

from .campaign import APP_KERNELS, CAMPAIGN_TABLE, diff_campaigns, smoke_matrix
from .jobs import Study, Table, study_main

__all__ = ["PROC_TABLE", "STUDY", "gate_real_kills", "main"]


def gate_real_kills(rows: Sequence[Dict]) -> List[str]:
    """The real-kill gate: failures for cells whose faults never
    physically took a process.

    Every fault-injected row must carry waitpid-confirmed SIGKILL
    evidence and at least one restart from stable storage.
    """
    bad = []
    for r in rows:
        if not r.get("kills"):
            continue
        if not r.get("real_kills"):
            bad.append(f"{r['scenario']}: no waitpid-confirmed SIGKILL "
                       f"(real_kills={r.get('real_kills')!r})")
        elif not r.get("restarts"):
            bad.append(f"{r['scenario']}: killed but never restarted "
                       f"from stable storage")
    return bad


PROC_TABLE = Table("Processes backend: real SIGKILLs vs the oracle", (
    ("Cells", "cells"),
    ("Real SIGKILLs", "real_kills_total"),
    ("Restarts", "restarts_total"),
    ("Coop wall s",
     lambda p: round(p["campaign_wall_seconds"]["cooperative"], 1)),
    ("Processes wall s",
     lambda p: round(p["campaign_wall_seconds"][p["engine"]], 1)),
    ("Kill gate", lambda p: "pass" if p["kill_gate_ok"] else "FAIL"),
    ("Cells match", lambda p: "yes" if p["cells_match"] else "NO"),
))


def _add_args(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--procs", type=int,
                    help="OS processes for the real-kill pass "
                         "(default: one per simulated node)")
    ap.add_argument("--nprocs", type=int, default=4,
                    help="simulated ranks per campaign cell (default 4)")
    ap.add_argument("--apps",
                    help="comma-separated kernel subset of the smoke "
                         f"slice (default: all of {', '.join(APP_KERNELS)})")
    ap.add_argument("--rtol", type=float, default=2e-2,
                    help="relative tolerance for the numeric fields of "
                         "the row diff (default 2e-2)")


def _run(args: argparse.Namespace, progress):
    t0 = time.time()
    engine = args.engine or (
        f"processes:{args.procs}" if args.procs is not None else "processes")
    scenarios = smoke_matrix(nprocs=args.nprocs, seed=args.seed,
                             storage="wal-disk")
    if args.apps is not None:
        scenarios = [s for s in scenarios if s.app in args.apps]
    coop, proc, mismatches = diff_campaigns(
        scenarios, engine, rtol=args.rtol,
        parallel=args.workers is not None and not args.inline,
        max_workers=args.workers, progress=partial(progress, CAMPAIGN_TABLE))
    kill_gate = gate_real_kills(proc.rows)
    payload = {
        "engine": engine,
        "cells": len(scenarios),
        "cpu_count": os.cpu_count(),
        "campaign_wall_seconds": {
            "cooperative": coop.wall_seconds,
            engine: proc.wall_seconds,
        },
        "real_kills_total": sum(r.get("real_kills", 0) for r in proc.rows),
        "restarts_total": sum(r.get("restarts", 0) for r in proc.rows),
        "cooperative_ok": coop.ok,
        "processes_ok": proc.ok,
        "kill_gate_ok": not kill_gate,
        "kill_gate_failures": kill_gate,
        "cells_match": not mismatches,
        "mismatches": mismatches,
        "summary": {
            "cooperative": coop.summary(),
            engine: proc.summary(),
        },
        "rows": {
            "cooperative": coop.rows,
            engine: proc.rows,
        },
        "wall_seconds": time.time() - t0,
    }
    failed = (payload["summary"]["cooperative"]["failed"]
              + payload["summary"][engine]["failed"]
              + kill_gate + mismatches)
    return (payload, [(PROC_TABLE, [dict(payload, passed=not failed)])],
            failed)


STUDY = Study(
    name="procstudy",
    description="Real-SIGKILL differential study: the campaign smoke "
                "slice over wal-disk on cooperative vs engine=processes, "
                "with a waitpid-confirmed kill gate and the real-kill-grade "
                "row diff.",
    run=_run, add_args=_add_args, shared=("seed", "quiet"),
    selections=(("apps", APP_KERNELS, "apps"),),
    help={"engine": "real-kill engine under study (default: processes, "
                    "or processes:<--procs>)"})


def main(argv: Optional[Sequence[str]] = None) -> int:
    return study_main(STUDY, argv)


if __name__ == "__main__":
    raise SystemExit(main())
