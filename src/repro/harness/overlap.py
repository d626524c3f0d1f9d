"""Overlapped write-back study: the extended Tables 4-5 configuration.

Section 6.4 of the paper argues that checkpoint cost should be bounded
by *protocol* work, not by the disk: write locally, drain asynchronously
(the PSC daemon), and never block the application for the write.  The
Tables 4-5 configuration study separates the two costs — #1 (no
checkpoint), #2 (go through the motions, skip the write), #3 (in-line
write) — and this driver adds the **overlapped** configuration: the
production pipeline that stages the serialized sections onto the node's
virtual-time drain device (:class:`repro.storage.drain.DrainDevice`) and
writes the crash-consistent COMMIT marker only when the background drain
completes.

Two claims are gated (exit status 1 on violation):

* **Overhead** — on every (platform, kernel) cell the overlapped
  per-checkpoint overhead is *strictly below* the in-line configuration
  #3, collapsing toward configuration #2: overlap hides the disk, so
  what remains is serialization plus protocol work.
* **Crash consistency & GC** — kill-mid-drain and kill-mid-commit
  scenarios (a rank dies while line 2's staged bytes are in flight /
  the instant before its COMMIT is written) must recover **bitwise**
  from the *previous* committed line, and storage must retain at most
  2 recovery lines per rank at the end (superseded lines
  garbage-collected).

Cells are sized for steady state: the checkpoint interval is a multiple
of the platform's drain time, so commits and GC happen *during* the run
(the regime the paper's daemon argument assumes) rather than piling into
the end-of-job flush.

Both slices farm through :func:`repro.harness.jobs.run_study` and lay
out as :data:`OVERLAP_TABLE` / :data:`FAULT_TABLE`; the CLI is
:data:`STUDY` (:func:`repro.harness.jobs.study_main`).

Command line::

    python -m repro.harness.overlap                     # all 3 platforms
    python -m repro.harness.overlap --json BENCH_overlap.json
    python -m repro.harness.overlap --platforms lemieux --kernels heat
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from ..mpi.timemodel import MACHINES
from .jobs import (
    Study, Table, null_row, open_store, render_text, run_study, study_main,
    verdict,
)
from .parallel import Cell
from .runner import measure_c3, measure_recovery

__all__ = [
    "FAULT_TABLE", "OVERLAP_KERNELS", "OVERLAP_PLATFORMS", "OVERLAP_TABLE",
    "STUDY", "fault_rows", "main", "measure_fault_cell",
    "measure_overhead_cell", "overhead_rows", "render_overlap",
]

#: the three platform models of the evaluation (Tables 4-5)
OVERLAP_PLATFORMS = ("lemieux", "velocity2", "cmi")

#: study kernels with steady-state-sized parameters: golden runtimes of
#: tens of virtual milliseconds, so one checkpoint interval dwarfs the
#: platform drain time (0.2-0.3 ms) and the pipeline reaches its
#: commit-and-GC steady state inside the run
OVERLAP_KERNELS: Dict[str, dict] = {
    "heat": dict(local_n=64, niter=30, work_scale=2000.0),
    "CG": dict(local_n=2048, nnz_per_row=8, niter=10),
    "SMG2000": dict(local_n=24, levels=4, niter=6),
}

#: fault slice: kill during / at the end of line TORN_LINE's drain, so
#: TORN_LINE - 1 is the previous committed line the recovery must fall
#: back to (the gate checks this exactly)
TORN_LINE = 2
FAULT_KILLS: Dict[str, List[dict]] = {
    "mid_drain": [{"rank": 1, "in_drain": TORN_LINE}],
    "mid_commit": [{"rank": 0, "at_commit": TORN_LINE}],
}


def measure_overhead_cell(platform: str, kernel: str, nprocs: int = 4,
                          engine: Optional[str] = None,
                          storage: Optional[str] = None) -> Dict:
    """Top-level (picklable) cell body: one gate-judged overhead row."""
    machine = MACHINES[platform]
    params = OVERLAP_KERNELS[kernel]
    with open_store(storage, prefix="repro-overlap-") as factory:
        def store():
            return factory() if factory is not None else None

        cfg1 = measure_c3(kernel, nprocs, machine, params, checkpoints=0,
                          engine=engine, storage=store())
        common = dict(checkpoints=1,
                      reference_time=cfg1.virtual_seconds,
                      engine=engine)
        cfg2 = measure_c3(kernel, nprocs, machine, params,
                          save_to_disk=False, storage=store(), **common)
        cfg3 = measure_c3(kernel, nprocs, machine, params,
                          save_to_disk=True, storage=store(), **common)
        ovl = measure_c3(kernel, nprocs, machine, params,
                         save_to_disk=True, overlap=True, storage=store(),
                         **common)
    row = {
        "platform": platform,
        "kernel": kernel,
        "nprocs": nprocs,
        "cfg1_s": cfg1.virtual_seconds,
        "cfg2_s": cfg2.virtual_seconds,
        "cfg3_s": cfg3.virtual_seconds,
        "overlap_s": ovl.virtual_seconds,
        "cfg2_cost_s": cfg2.virtual_seconds - cfg1.virtual_seconds,
        "inline_cost_s": cfg3.virtual_seconds - cfg1.virtual_seconds,
        "overlap_cost_s": ovl.virtual_seconds - cfg1.virtual_seconds,
        "committed_inline": cfg3.checkpoints_committed,
        "committed_overlap": ovl.checkpoints_committed,
    }
    if storage is not None:
        row["storage"] = storage
    row["failure"] = _judge_overhead(row)
    row["passed"] = row["failure"] is None
    return row


#: metric keys nulled out in the row of a cell whose worker died
_OVERHEAD_METRICS = ("cfg1_s", "cfg2_s", "cfg3_s", "overlap_s",
                     "cfg2_cost_s", "inline_cost_s", "overlap_cost_s",
                     "committed_inline", "committed_overlap")


def overhead_rows(platforms: Sequence[str] = OVERLAP_PLATFORMS,
                  kernels: Optional[Sequence[str]] = None,
                  nprocs: int = 4,
                  engine: Optional[str] = None,
                  parallel: Optional[bool] = None,
                  max_workers: Optional[int] = None,
                  storage: Optional[str] = None,
                  on_row: Optional[Callable[[Dict], None]] = None,
                  ) -> List[Dict]:
    """One gate-judged row per (platform, kernel) cell, pool-farmed."""
    names = list(kernels) if kernels else sorted(OVERLAP_KERNELS)
    cells = [Cell(measure_overhead_cell,
                  dict(platform=platform, kernel=name, nprocs=nprocs,
                       engine=engine, storage=storage),
                  label=f"overlap:{platform}/{name}")
             for platform in platforms for name in names]

    def dead_row(cell: Cell, err) -> Dict:
        return null_row(err, _OVERHEAD_METRICS,
                        platform=cell.kwargs["platform"],
                        kernel=cell.kwargs["kernel"], nprocs=nprocs)

    return run_study(cells, dead_row, parallel=parallel,
                     max_workers=max_workers, progress=on_row).rows


def _judge_overhead(row: Dict) -> Optional[str]:
    """The overhead gate for one cell (None = pass)."""
    if row["committed_inline"] < 1 or row["committed_overlap"] < 1:
        return "no checkpoint committed (vacuous measurement)"
    if not row["overlap_cost_s"] < row["inline_cost_s"]:
        return (f"overlapped commit overhead not strictly below in-line "
                f"({row['overlap_cost_s']:.6g}s >= "
                f"{row['inline_cost_s']:.6g}s)")
    return None


def measure_fault_cell(platform: str, kill: str, nprocs: int = 4,
                       engine: Optional[str] = None,
                       storage: Optional[str] = None) -> Dict:
    """Top-level (picklable) cell body: one torn-line recovery row."""
    machine = MACHINES[platform]
    with open_store(storage, prefix="repro-overlap-") as factory:
        record = measure_recovery(
            "heat", nprocs, machine, OVERLAP_KERNELS["heat"],
            [dict(k) for k in FAULT_KILLS[kill]], interval_frac=0.18,
            engine=engine, storage_factory=factory)
    row = {
        "platform": platform,
        "kill": kill,
        **record,
    }
    if storage is not None:
        row["storage"] = storage
    row["failure"] = _judge_fault(row)
    row["passed"] = row["failure"] is None
    return row


def fault_rows(platforms: Sequence[str] = OVERLAP_PLATFORMS,
               nprocs: int = 4, engine: Optional[str] = None,
               parallel: Optional[bool] = None,
               max_workers: Optional[int] = None,
               storage: Optional[str] = None,
               on_row: Optional[Callable[[Dict], None]] = None,
               ) -> List[Dict]:
    """Kill-mid-drain / kill-mid-commit recovery cells, gate-judged."""
    cells = [Cell(measure_fault_cell,
                  dict(platform=platform, kill=kill_name, nprocs=nprocs,
                       engine=engine, storage=storage),
                  label=f"overlap-fault:{platform}/{kill_name}")
             for platform in platforms for kill_name in FAULT_KILLS]

    def dead_row(cell: Cell, err) -> Dict:
        return null_row(err, ("restarts", "restored_version",
                              "checkpoints_committed", "lines_retained"),
                        platform=cell.kwargs["platform"],
                        kill=cell.kwargs["kill"])

    return run_study(cells, dead_row, parallel=parallel,
                     max_workers=max_workers, progress=on_row).rows


def _judge_fault(row: Dict) -> Optional[str]:
    """The crash-consistency + GC gate for one fault cell (None = pass)."""
    if not row.get("fired"):
        return "kill never fired (scenario vacuous)"
    if not row["verified_recovery"]:
        return "recovered results are not bitwise-equal to golden"
    if not row["verified_clean"]:
        return "clean C3 run diverged from the golden results"
    if row.get("restored_version") != TORN_LINE - 1:
        return (f"recovery restored from v{row.get('restored_version')} "
                f"instead of falling back past the torn line {TORN_LINE} "
                f"to v{TORN_LINE - 1}")
    if row["lines_retained"] > 2:
        return (f"GC left {row['lines_retained']} recovery lines on "
                "storage (> 2 at steady state)")
    return None


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else seconds * 1e3


OVERLAP_TABLE = Table(
    "Overlapped write-back vs in-line commit (Tables 4-5 extension; "
    "virtual ms, one checkpoint)", (
        ("Platform", "platform"),
        ("Kernel", "kernel"),
        ("Gate", verdict),
        ("#1 ms", lambda r: _ms(r["cfg1_s"])),
        ("#2 ms", lambda r: _ms(r["cfg2_s"])),
        ("#3 ms", lambda r: _ms(r["cfg3_s"])),
        ("Overlap ms", lambda r: _ms(r["overlap_s"])),
        ("In-line cost ms", lambda r: _ms(r["inline_cost_s"])),
        ("Overlap cost ms", lambda r: _ms(r["overlap_cost_s"])),
    ))

FAULT_TABLE = Table("Torn-line recovery: kill mid-drain / mid-commit", (
    ("Fault cell", lambda r: f"{r['platform']}/{r['kill']}"),
    ("Gate", verdict),
    ("Restarts", "restarts"),
    ("Restored line", "restored_version"),
    ("Lines committed", "checkpoints_committed"),
    ("Lines retained", "lines_retained"),
))

#: kept importable under the package's lazy exports
render_overlap = partial(render_text, OVERLAP_TABLE)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _add_args(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--platforms",
                    help="comma-separated platform models "
                         f"(default: {', '.join(OVERLAP_PLATFORMS)})")
    ap.add_argument("--kernels",
                    help="comma-separated kernels "
                         f"(default: {', '.join(sorted(OVERLAP_KERNELS))})")
    ap.add_argument("--nprocs", type=int, default=4,
                    help="simulated ranks per run (default 4)")
    ap.add_argument("--skip-faults", action="store_true",
                    help="overhead cells only (no kill/restart slice)")


def _run(args: argparse.Namespace, progress):
    t0 = time.time()
    platforms = args.platforms or list(OVERLAP_PLATFORMS)
    parallel = False if args.inline else None
    o_rows = overhead_rows(platforms, args.kernels, nprocs=args.nprocs,
                           engine=args.engine, storage=args.storage,
                           parallel=parallel, max_workers=args.workers,
                           on_row=partial(progress, OVERLAP_TABLE))
    f_rows = [] if args.skip_faults else fault_rows(
        platforms, nprocs=args.nprocs, engine=args.engine,
        storage=args.storage, parallel=parallel, max_workers=args.workers,
        on_row=partial(progress, FAULT_TABLE))
    failures = ([f"{r['platform']}/{r['kernel']}"
                 for r in o_rows if not r["passed"]]
                + [f"{r['platform']}/{r['kill']}"
                   for r in f_rows if not r["passed"]])
    summary = {
        "overhead_cells": len(o_rows),
        "fault_cells": len(f_rows),
        "passed": len(o_rows) + len(f_rows) - len(failures),
        "failed": failures,
        "wall_seconds": time.time() - t0,
    }
    tables = [(OVERLAP_TABLE, o_rows)]
    if f_rows:
        tables.append((FAULT_TABLE, f_rows))
    return ({"summary": summary, "overhead": o_rows, "faults": f_rows},
            tables, failures)


STUDY = Study(
    name="overlap",
    description="Overlapped write-back study: per-checkpoint overhead of "
                "the production drain pipeline vs the in-line Tables 4-5 "
                "configuration #3, plus kill-mid-drain / kill-mid-commit "
                "torn-line recovery; exits non-zero if overlap is not "
                "strictly cheaper on every cell or any fault cell fails to "
                "recover bitwise with <= 2 retained lines.",
    run=_run, add_args=_add_args,
    selections=(("platforms", MACHINES, "platforms"),
                ("kernels", OVERLAP_KERNELS, "kernels")))


def main(argv: Optional[Sequence[str]] = None) -> int:
    return study_main(STUDY, argv)


if __name__ == "__main__":
    sys.exit(main())
