"""Checkpoint-size study: instrumented kernels vs the Condor baseline.

The paper's headline size claim (Table 1, echoed by the per-process
"Size/proc" column of Tables 4-5) is that application-level state saving
— source instrumented by the precompiler so each process saves only its
live data — produces checkpoints far smaller than Condor-style
system-level process images.  This driver closes that loop over the
**precompiler-instrumented** kernels (``repro.apps.instrumented``): for
each kernel it measures, per process,

* ``condor_bytes`` — the full-image accounting of
  :func:`repro.baselines.condor.measure_sizes` (static segment + the
  whole heap extent including freed allocator space + stack + the
  Condor runtime), plus the serialized payload an actual
  :class:`~repro.baselines.condor.CondorCheckpointer` snapshot writes;
* ``c3_bytes`` — live data + C3 metadata from the same accounting, plus
  the serialized ``ctx.snapshot_state()`` payload
  (:mod:`repro.statesave.serializer`);
* ``c3_committed_bytes`` — what the *protocol* actually wrote to stable
  storage for the last recovery line of a real checkpointed run
  (``statesave.Context`` → serializer → ``CheckpointWriter`` → the
  production WAL store);
* ``wal_retained_bytes`` — what that WAL engine physically holds per
  process after the run: live recovery lines plus record framing, after
  segment GC (the retention column; DESIGN.md §8);
* ``incremental_delta_bytes`` — the same run under
  ``C3Config(incremental=True)``: the dirty-page delta the
  :class:`~repro.statesave.incremental.IncrementalTracker` emits once
  the first full save exists (the Section-8 future-work row).

The CI gate reproduces the Table-1 inequality: the run **fails** (exit
status 1) if any instrumented kernel's C3 per-process checkpoint is not
strictly smaller than its Condor baseline, if a run commits no
checkpoint (a vacuous measurement), or if an incremental delta exceeds
the full save it patches.

The CLI is :data:`STUDY` (:func:`repro.harness.jobs.study_main`), its
table :data:`SIZES_TABLE`; cells farm through :func:`repro.harness.jobs.
run_study`.

Command line::

    python -m repro.harness.sizes                       # all 6 kernels
    python -m repro.harness.sizes --json BENCH_table1.json
    python -m repro.harness.sizes --kernels heat,EP --nprocs 2
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from typing import Dict, List, Optional, Sequence

from ..apps import APPS
from ..baselines.condor import CondorCheckpointer, measure_sizes
from ..core.ccc import run_c3, run_original
from ..core.protocol import C3Config
from ..mpi.timemodel import MachineModel
from ..statesave.serializer import dumps
from ..storage.stable import InMemoryStorage
from ..storage.wal import WalStore
from .jobs import (
    Study, Table, null_row, open_store, render_text, run_study, study_main,
    verdict,
)
from .parallel import Cell
from .platforms import TABLE1_PLATFORMS

__all__ = [
    "SIZES_PARAMS", "SIZES_PLATFORMS", "SIZES_TABLE", "STUDY", "main",
    "measure_kernel_sizes", "render_sizes", "table_sizes_rows",
]

#: study parameters, one per precompiler-instrumented kernel (the default
#: selection): larger working sets than the campaign's (so sizes are
#: dominated by application arrays) but still sub-second per run
SIZES_PARAMS: Dict[str, dict] = {
    "heat": dict(local_n=4096, niter=6),
    "ring": dict(payload=2048, niter=8),
    "CG": dict(local_n=1024, nnz_per_row=8, niter=6),
    "LU": dict(local_nx=48, local_ny=48, niter=5),
    "MG": dict(local_n=4096, levels=4, niter=4),
    "EP": dict(pairs_per_batch=2048, batches=6),
}

#: uniprocessor platforms of Table 1, static segments at 1/SIZE_SCALE
#: footprint like the Table-1 driver (the *reduction* stays comparable)
SIZES_PLATFORMS: Dict[str, MachineModel] = TABLE1_PLATFORMS

#: scaled byte constants, matching the Table-1 driver's conventions
_CONDOR_RUNTIME_SCALED = 35 * 1024 // 10
_C3_METADATA_SCALED = 2048


def _accounting_probe(app, params: dict, churn_blocks: int):
    """Wrap the kernel so each rank reports its own size accounting."""

    def probe(ctx):
        app(ctx, **params)
        ctx.heap.stack_bytes = 512   # scaled-footprint stack, like Table 1
        # allocator churn: freed blocks stay inside the Condor image but
        # out of C3's live set — the crux of the Table-1 gap
        for i in range(churn_blocks):
            addr, _ = ctx.heap.alloc_array(4096 // 8, label=f"churn{i}")
            ctx.heap.free(addr)
        sizes = measure_sizes(ctx,
                              condor_runtime_bytes=_CONDOR_RUNTIME_SCALED,
                              c3_metadata_bytes=_C3_METADATA_SCALED)
        condor_payload = CondorCheckpointer(InMemoryStorage()).snapshot(ctx)
        c3_payload = len(dumps(ctx.snapshot_state()))
        return {
            "condor_bytes": sizes.condor_bytes,
            "c3_bytes": sizes.c3_bytes,
            "reduction": sizes.reduction,
            "condor_payload_bytes": condor_payload,
            "c3_payload_bytes": c3_payload,
        }

    probe.__name__ = f"{getattr(app, '__name__', 'app')}_sizes_probe"
    return probe


def measure_kernel_sizes(app_name: str, nprocs: int = 4,
                         machine: Optional[MachineModel] = None,
                         params: Optional[dict] = None,
                         interval_frac: float = 0.3,
                         churn_blocks: int = 6,
                         wall_timeout: float = 120.0,
                         engine: Optional[str] = None,
                         storage: Optional[str] = None) -> Dict:
    """All four size measurements for one instrumented kernel.

    Per-process numbers are the max over ranks (the provisioning-relevant
    worst case; at these weak-scaled sizes the ranks are near-identical).
    ``storage`` (the shared CLI seam) picks the *backend* under the
    study's WAL / incremental runs: ``"disk"`` / ``"wal-disk"`` root
    them in a fresh temporary directory of real files; the default
    (``None`` / ``"memory"`` / ``"wal"``) keeps the in-memory backend.
    """
    if app_name not in APPS:
        raise ValueError(f"unknown app {app_name!r}")
    machine = machine if machine is not None else SIZES_PLATFORMS["linux"]
    params = dict(params if params is not None
                  else SIZES_PARAMS.get(app_name, {}))
    app = APPS[app_name]
    # 1. original-mode accounting run (golden time anchors the interval)
    probe = _accounting_probe(app, params, churn_blocks)
    base = run_original(probe, nprocs, machine=machine,
                        wall_timeout=wall_timeout, engine=engine)
    base.raise_errors()
    # one rank's whole accounting (the largest C3 footprint), so condor,
    # c3 and the reduction are mutually consistent — mixing per-key
    # maxima across ranks would report a row no real process produced
    acct = max(base.returns, key=lambda r: r["c3_bytes"])

    def c3_app(ctx):
        return app(ctx, **params)

    # the disk flavors root both runs' backends in one tmpdir, removed
    # however the runs end
    with open_store("disk" if storage in ("disk", "wal-disk") else None,
                    prefix="repro-sizes-") as disk:
        fresh = disk or InMemoryStorage
        # 2. real protocol run through the production WAL engine: what
        #    the last recovery line wrote per process, plus what the
        #    log-structured store physically retains after segment GC
        #    (record framing + the dead records of unretired segments)
        config = C3Config(
            checkpoint_interval=base.virtual_time * interval_frac)
        wal_store = WalStore(fresh())
        full_run, full_stats = run_c3(
            c3_app, nprocs, machine=machine, storage=wal_store,
            config=config, wall_timeout=wall_timeout, engine=engine)
        full_run.raise_errors()
        fst = [s for s in full_stats if s is not None]
        committed = min((s.checkpoints_committed for s in fst), default=0)
        # last_committed_bytes: what actually reached stable storage — a
        # line that was started but never committed must not be reported
        # (or gated)
        c3_committed = max((s.last_committed_bytes for s in fst),
                           default=0)
        wal_retained = wal_store.storage_bytes() // nprocs

        # 3. the same run with incremental checkpointing: the last save
        #    is a dirty-page delta against the previous line
        inc_config = C3Config(checkpoint_interval=base.virtual_time
                              * interval_frac,
                              incremental=True, incremental_full_interval=64)
        inc_run, inc_stats = run_c3(
            c3_app, nprocs, machine=machine, storage=fresh(),
            config=inc_config, wall_timeout=wall_timeout, engine=engine)
        inc_run.raise_errors()
    ist = [s for s in inc_stats if s is not None]
    inc_committed = min((s.checkpoints_committed for s in ist), default=0)
    inc_delta = max((s.last_committed_bytes for s in ist), default=0)

    row = {
        "kernel": app_name,
        "nprocs": nprocs,
        "platform": machine.name,
        "params": params,
        "golden_seconds": base.virtual_time,
        "checkpoints_committed": committed,
        "condor_bytes": acct["condor_bytes"],
        "c3_bytes": acct["c3_bytes"],
        "condor_payload_bytes": acct["condor_payload_bytes"],
        "c3_payload_bytes": acct["c3_payload_bytes"],
        "c3_committed_bytes": c3_committed,
        #: per-process bytes the WAL engine holds on its backend after
        #: segment GC — live lines plus framing, the retention column
        "wal_retained_bytes": wal_retained,
        "incremental_delta_bytes": (inc_delta if inc_committed >= 2
                                    else None),
        "reduction_pct": acct["reduction"] * 100.0,
    }
    if storage is not None:
        row["storage"] = storage
    row["failure"] = _judge(row)
    row["passed"] = row["failure"] is None
    return row


def _judge(row: Dict) -> Optional[str]:
    """The Table-1 gate for one kernel row (None = pass)."""
    if row["checkpoints_committed"] < 1:
        return "no checkpoint committed (vacuous measurement)"
    if row["c3_bytes"] >= row["condor_bytes"]:
        return (f"C3 checkpoint not smaller than Condor image "
                f"({row['c3_bytes']} >= {row['condor_bytes']} bytes)")
    if row["c3_payload_bytes"] >= row["condor_payload_bytes"]:
        return (f"serialized C3 payload not smaller than the Condor "
                f"image payload ({row['c3_payload_bytes']} >= "
                f"{row['condor_payload_bytes']} bytes)")
    delta = row["incremental_delta_bytes"]
    # A fully-dirty workload's delta legitimately carries per-page index
    # framing on top of the payload; anything beyond that small allowance
    # means the tracker is resending clean pages.
    if delta is not None and delta > row["c3_committed_bytes"] * 1.10:
        return (f"incremental delta exceeds the full save it patches "
                f"({delta} > 1.10 * {row['c3_committed_bytes']} bytes)")
    return None


#: metric keys nulled out in the row of a cell whose worker died
_SIZES_METRICS = ("params", "golden_seconds", "checkpoints_committed",
                  "condor_bytes", "c3_bytes", "condor_payload_bytes",
                  "c3_payload_bytes", "c3_committed_bytes",
                  "wal_retained_bytes", "incremental_delta_bytes",
                  "reduction_pct")


def sizes_cells(names: Sequence[str], nprocs: int = 4,
                platform: str = "linux", engine: Optional[str] = None,
                storage: Optional[str] = None) -> List[Cell]:
    """One farmable cell per instrumented kernel."""
    machine = SIZES_PLATFORMS[platform]
    extra = {} if storage is None else {"storage": storage}
    return [Cell(measure_kernel_sizes,
                 dict(app_name=name, nprocs=nprocs, machine=machine,
                      engine=engine, **extra),
                 label=f"sizes:{name}")
            for name in names]


def table_sizes_rows(kernels: Optional[Sequence[str]] = None,
                     nprocs: int = 4, platform: str = "linux",
                     engine: Optional[str] = None,
                     parallel: Optional[bool] = None,
                     max_workers: Optional[int] = None,
                     storage: Optional[str] = None,
                     on_row: Optional[callable] = None) -> List[Dict]:
    """One gate-judged row per instrumented kernel (EXPERIMENTS.md feed)."""
    names = list(kernels) if kernels else sorted(SIZES_PARAMS)
    cells = sizes_cells(names, nprocs=nprocs, platform=platform,
                        engine=engine, storage=storage)

    def dead_row(cell: Cell, err) -> Dict:
        return null_row(err, _SIZES_METRICS, kernel=cell.kwargs["app_name"],
                        nprocs=nprocs, platform=cell.kwargs["machine"].name)

    return run_study(cells, dead_row, parallel=parallel,
                     max_workers=max_workers, progress=on_row).rows


def _kb(value) -> Optional[float]:
    return None if value is None else value / 1e3


SIZES_TABLE = Table(
    "Checkpoint sizes per process: Condor image vs C3 (instrumented "
    "kernels, scaled footprint)", (
        ("Kernel", "kernel"),
        ("Gate", verdict),
        ("Condor KB", lambda r: _kb(r["condor_bytes"])),
        ("C3 KB", lambda r: _kb(r["c3_bytes"])),
        ("Reduction %", "reduction_pct"),
        ("Committed KB", lambda r: _kb(r["c3_committed_bytes"])),
        ("WAL retained KB", lambda r: _kb(r.get("wal_retained_bytes", 0))),
        ("Incremental delta KB",
         lambda r: _kb(r["incremental_delta_bytes"])),
        ("Lines", "checkpoints_committed"),
    ))

#: kept importable under the package's lazy exports
render_sizes = partial(render_text, SIZES_TABLE)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _add_args(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--kernels",
                    help="comma-separated instrumented kernels "
                         f"(default: {', '.join(sorted(SIZES_PARAMS))})")
    ap.add_argument("--nprocs", type=int, default=4,
                    help="simulated ranks per run (default 4)")
    ap.add_argument("--platform", choices=sorted(SIZES_PLATFORMS),
                    default="linux",
                    help="Table-1 uniprocessor model (default linux)")


def _run(args: argparse.Namespace, progress):
    t0 = time.time()
    rows = table_sizes_rows(args.kernels, nprocs=args.nprocs,
                            platform=args.platform, engine=args.engine,
                            storage=args.storage,
                            parallel=False if args.inline else None,
                            max_workers=args.workers,
                            on_row=partial(progress, SIZES_TABLE))
    failures = [r["kernel"] for r in rows if not r["passed"]]
    summary = {
        "kernels": len(rows),
        "passed": len(rows) - len(failures),
        "failed": failures,
        "platform": args.platform,
        "nprocs": args.nprocs,
        "wall_seconds": time.time() - t0,
    }
    return ({"summary": summary, "rows": rows}, [(SIZES_TABLE, rows)],
            failures)


STUDY = Study(
    name="sizes",
    description="Per-process checkpoint sizes of the precompiler-"
                "instrumented kernels vs the Condor system-level baseline "
                "and incremental deltas (Tables 1/4); exits non-zero on any "
                "size inversion.",
    run=_run, add_args=_add_args,
    selections=(("kernels", APPS, "kernels"),))


def main(argv: Optional[Sequence[str]] = None) -> int:
    return study_main(STUDY, argv)


if __name__ == "__main__":
    sys.exit(main())
