"""WAL group-commit study: fsyncs-per-line of the log-structured engine.

The scatter layout pays one durability point per storage object — every
section and every COMMIT marker of every rank is its own fsync, which is
exactly the cost model ROADMAP item 5 says the storage layer cannot
carry into campaign-as-a-service scale.  The WAL engine
(:mod:`repro.storage.wal`, DESIGN.md §8) amortizes it: co-located ranks
append into one per-node log and a line's commits ride down in a single
batched fsync per node — the *group commit*.

Two row families, both gate-judged (exit status 1 on violation):

* **Commit cells** — a real C3 job per (platform, kernel), once over the
  scatter layout and once over the WAL, both on the real-file
  :class:`~repro.storage.stable.DiskStorage` backend.  Gates: the WAL's
  fsyncs-per-committed-line must be *strictly below* the scatter
  layout's; the WAL must stay within one fsync per node per committed
  line (plus one end-of-job flush per node); and segment GC must leave
  at most 2 live recovery lines per rank.
* **Discipline cells** — a controlled write schedule (every rank commits
  ``lines`` lines, no job noise) on both backends across node shapes.
  Gate: **exactly** one fsync per node per group-committed line — the
  pinned form of the acceptance bound — and a reopened store must
  replay to the same index with bitwise-identical payloads.

Both slices farm through :func:`repro.harness.jobs.run_study` and lay
out as :data:`COMMIT_TABLE` / :data:`DISCIPLINE_TABLE`; the CLI is
:data:`STUDY` (:func:`repro.harness.jobs.study_main`).

Command line::

    python -m repro.harness.walstudy                    # all 3 platforms
    python -m repro.harness.walstudy --json BENCH_wal.json
    python -m repro.harness.walstudy --platforms lemieux --kernels heat
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
import time
from functools import partial
from typing import Dict, List, Optional, Sequence

from ..core.ccc import run_c3, run_original
from ..core.protocol import C3Config
from ..mpi.engine import is_processes
from ..mpi.timemodel import MACHINES
from ..storage.manifest import section_digest
from ..storage.stable import DiskStorage, InMemoryStorage
from ..storage.store import as_store
from ..storage.wal import WalStore
from .jobs import Study, Table, null_row, run_study, study_main, verdict
from .overlap import OVERLAP_KERNELS
from .parallel import Cell
from .runner import _with_params

__all__ = [
    "COMMIT_TABLE", "DISCIPLINE_TABLE", "STUDY", "WAL_KERNELS",
    "WAL_PLATFORMS", "commit_rows", "discipline_rows", "main",
    "measure_commit_cell", "measure_discipline_cell",
]

#: the three platform models of the evaluation; their procs_per_node
#: (4 / 2 / 2) are the group sizes the WAL coalesces commits over
WAL_PLATFORMS = ("lemieux", "velocity2", "cmi")

#: steady-state-sized kernels (shared with the overlap study): several
#: checkpoint intervals per run, commits and GC happening *during* the
#: run rather than piling into the end-of-job flush
WAL_KERNELS: Dict[str, dict] = OVERLAP_KERNELS

#: checkpoint interval as a fraction of the golden runtime (the overlap
#: study's steady-state cadence)
INTERVAL_FRAC = 0.18


def _nodes(nprocs: int, procs_per_node: int) -> int:
    return -(-nprocs // max(1, procs_per_node))


def _retained(store) -> int:
    return max((len(v) for v in store.lines_on_storage().values()),
               default=0)


def measure_commit_cell(platform: str, kernel: str, nprocs: int = 4,
                        engine: Optional[str] = None,
                        backend: str = "disk") -> Dict:
    """Top-level (picklable) cell body: one scatter-vs-WAL commit row.

    ``backend`` picks the storage backend both engines run over:
    ``"disk"`` (the study default — real files, real fsyncs via the
    counter seam) or ``"memory"`` (the same counters on the in-memory
    backend, for quick differential runs via ``--storage memory``).
    """
    machine = MACHINES[platform]
    app = _with_params(kernel, WAL_KERNELS[kernel])
    golden = run_original(app, nprocs, machine=machine, engine=engine)
    golden.raise_errors()
    config = C3Config(
        checkpoint_interval=golden.virtual_time * INTERVAL_FRAC)
    with tempfile.TemporaryDirectory(prefix="repro-wal-") as tmp:
        def make_backend(tag: str):
            if backend == "memory":
                return InMemoryStorage()
            return DiskStorage(f"{tmp}/{tag}")

        scatter_backend = make_backend("scatter")
        result, _ = run_c3(app, nprocs, machine=machine,
                           storage=scatter_backend, config=config,
                           engine=engine)
        result.raise_errors()
        scatter = as_store(scatter_backend)
        scatter_lines = scatter.last_committed_global(nprocs) or 0
        scatter_fsyncs = scatter_backend.fsync_count
        scatter_bytes = scatter_backend.total_bytes()
        scatter_retained = _retained(scatter)

        wal_backend = make_backend("wal")
        store = WalStore(wal_backend)
        result, _ = run_c3(app, nprocs, machine=machine, storage=store,
                           config=config, engine=engine)
        result.raise_errors()
        wal_lines = store.last_committed_global(nprocs) or 0
        wal_fsyncs = wal_backend.fsync_count
        wal_bytes = wal_backend.total_bytes()
        wal_retained = _retained(store)
        wal_stats = store.stats()
    nodes = _nodes(nprocs, machine.procs_per_node)
    row = {
        "platform": platform,
        "kernel": kernel,
        "nprocs": nprocs,
        "nodes": nodes,
        "procs_per_node": machine.procs_per_node,
        "scatter_lines": scatter_lines,
        "wal_lines": wal_lines,
        "scatter_fsyncs": scatter_fsyncs,
        "wal_fsyncs": wal_fsyncs,
        "scatter_fsyncs_per_line": (scatter_fsyncs / scatter_lines
                                    if scatter_lines else None),
        "wal_fsyncs_per_line": (wal_fsyncs / wal_lines
                                if wal_lines else None),
        "wal_fsyncs_per_node_per_line": (
            wal_fsyncs / (nodes * wal_lines) if wal_lines else None),
        "group_commits": wal_stats["group_commits"],
        "segments_created": wal_stats["segments_created"],
        "segments_retired": wal_stats["segments_retired"],
        "segments_compacted": wal_stats["segments_compacted"],
        "scatter_stored_bytes": scatter_bytes,
        "wal_stored_bytes": wal_bytes,
        "scatter_lines_retained": scatter_retained,
        "wal_lines_retained": wal_retained,
    }
    if backend != "disk":
        row["backend"] = backend
    row["failure"] = _judge_commit(row)
    row["passed"] = row["failure"] is None
    return row


def commit_rows(platforms: Sequence[str] = WAL_PLATFORMS,
                kernels: Optional[Sequence[str]] = None,
                nprocs: int = 4,
                engine: Optional[str] = None,
                parallel: Optional[bool] = None,
                max_workers: Optional[int] = None,
                backend: str = "disk",
                on_row=None) -> List[Dict]:
    """One gate-judged scatter-vs-WAL cell per (platform, kernel)."""
    names = list(kernels) if kernels else sorted(WAL_KERNELS)
    cells = [Cell(measure_commit_cell,
                  dict(platform=platform, kernel=name, nprocs=nprocs,
                       engine=engine, backend=backend),
                  label=f"wal:{platform}/{name}")
             for platform in platforms for name in names]

    def dead_row(cell: Cell, err) -> Dict:
        return null_row(err, _COMMIT_METRICS,
                        platform=cell.kwargs["platform"],
                        kernel=cell.kwargs["kernel"], nprocs=nprocs)

    return run_study(cells, dead_row, parallel=parallel,
                     max_workers=max_workers, progress=on_row).rows


#: metric keys nulled out in the row of a cell whose worker died
_COMMIT_METRICS = (
    "nodes", "procs_per_node", "scatter_lines", "wal_lines",
    "scatter_fsyncs", "wal_fsyncs", "scatter_fsyncs_per_line",
    "wal_fsyncs_per_line", "wal_fsyncs_per_node_per_line",
    "group_commits", "segments_created", "segments_retired",
    "segments_compacted", "scatter_stored_bytes", "wal_stored_bytes",
    "scatter_lines_retained", "wal_lines_retained",
)


def _judge_commit(row: Dict) -> Optional[str]:
    """The group-commit gates for one scatter-vs-WAL cell (None = pass)."""
    if row["scatter_lines"] < 2 or row["wal_lines"] < 2:
        return (f"too few committed lines for a steady-state measurement "
                f"(scatter {row['scatter_lines']}, wal {row['wal_lines']})")
    if not row["wal_fsyncs_per_line"] < row["scatter_fsyncs_per_line"]:
        return (f"group commit did not reduce fsyncs per line "
                f"({row['wal_fsyncs_per_line']:.2f} >= "
                f"{row['scatter_fsyncs_per_line']:.2f})")
    # <= 1 fsync per node per committed line, plus at most one
    # end-of-job flush per node (the MPI_Finalize drain of staged GC
    # tombstones).
    budget = row["nodes"] * (row["wal_lines"] + 1)
    if row["wal_fsyncs"] > budget:
        return (f"WAL exceeded one fsync per node per committed line "
                f"({row['wal_fsyncs']} > {row['nodes']} nodes x "
                f"({row['wal_lines']} lines + 1 final flush))")
    # Segment GC must retain no more lines than the scatter layout's
    # per-file deletes, and <= 2 whenever the cell reaches GC steady
    # state (kernels whose drain backlog defers every commit into the
    # end-of-job flush legitimately retain more — identically on both
    # engines, so the parity bound is the storage-engine gate).
    budget = max(2, row["scatter_lines_retained"])
    if row["wal_lines_retained"] > budget:
        return (f"segment GC left {row['wal_lines_retained']} recovery "
                f"lines per rank on storage (> {budget}: the scatter "
                "baseline's retention)")
    return None


def measure_discipline_cell(backend_name: str, ppn: int, nprocs: int = 4,
                            lines: int = 6) -> Dict:
    """Top-level (picklable) cell body: one controlled group-commit row."""
    with tempfile.TemporaryDirectory(prefix="repro-wal-") as tmp:
        if backend_name == "disk":
            backend = DiskStorage(tmp)
        else:
            backend = InMemoryStorage()
        store = WalStore(backend)
        store.configure(nprocs, procs_per_node=ppn)
        payloads = {}
        for v in range(1, lines + 1):
            for r in range(nprocs):
                payload = bytes(((v * 31 + r + i) % 256)
                                for i in range(128))
                payloads[(v, r)] = payload
                store.put_section(v, r, "state", payload)
                store.commit_line(
                    v, r, sections={
                        "state": (len(payload),
                                  section_digest(payload))})
        nodes = _nodes(nprocs, ppn)
        fsyncs = backend.fsync_count
        appends = backend.write_count
        image = hashlib.sha256()
        for path in backend.list("wal/"):
            image.update(path.encode() + b"\0" + backend.read(path))
        replay_ok = True
        if backend_name == "disk":
            reopened = WalStore(backend)
            reopened.configure(nprocs, procs_per_node=ppn)
            replay_ok = (
                reopened.last_committed_global(nprocs) == lines
                and all(reopened.read_section(v, r, "state")
                        == payloads[(v, r)]
                        for v in range(1, lines + 1)
                        for r in range(nprocs)))
    row = {
        "backend": backend_name,
        "nprocs": nprocs,
        "procs_per_node": ppn,
        "nodes": nodes,
        "lines": lines,
        "fsyncs": fsyncs,
        "fsyncs_per_node_per_line": fsyncs / (nodes * lines),
        "appends": appends,
        "image_sha256": image.hexdigest(),
        "replay_bitwise": replay_ok,
    }
    row["failure"] = _judge_discipline(row)
    row["passed"] = row["failure"] is None
    return row


def discipline_rows(nprocs: int = 4, lines: int = 6,
                    backends: Sequence[str] = ("memory", "disk"),
                    parallel: Optional[bool] = None,
                    max_workers: Optional[int] = None,
                    on_row=None) -> List[Dict]:
    """Controlled group-commit cells: exact fsync counts, replay parity.

    Every rank writes one section and commits, for ``lines`` lines, over
    every node shape — no job noise, so the fsync count is pinned
    *exactly*: one per node per group-committed line.  The disk cells
    then reopen the backend cold and require WAL replay to rebuild the
    same committed index with bitwise-identical payloads.  Each row also
    reports the backend's append count and a SHA-256 of its segment
    image, so the two media can be compared byte for byte.
    """
    cells = [Cell(measure_discipline_cell,
                  dict(backend_name=backend_name, ppn=ppn, nprocs=nprocs,
                       lines=lines),
                  label=f"wal-discipline:{backend_name}/ppn{ppn}")
             for backend_name in backends for ppn in (1, 2, nprocs)]

    def dead_row(cell: Cell, err) -> Dict:
        return null_row(err, ("nodes", "lines", "fsyncs",
                              "fsyncs_per_node_per_line", "replay_bitwise"),
                        backend=cell.kwargs["backend_name"], nprocs=nprocs,
                        procs_per_node=cell.kwargs["ppn"])

    return run_study(cells, dead_row, parallel=parallel,
                     max_workers=max_workers, progress=on_row).rows


def _judge_discipline(row: Dict) -> Optional[str]:
    expected = row["nodes"] * row["lines"]
    if row["fsyncs"] != expected:
        return (f"expected exactly one fsync per node per line "
                f"({expected}), counted {row['fsyncs']}")
    if not row["replay_bitwise"]:
        return "replayed store did not match the written lines bitwise"
    return None


COMMIT_TABLE = Table(
    "WAL group commit vs per-file scatter (DiskStorage; fsyncs per "
    "committed line)", (
        ("Platform", "platform"),
        ("Kernel", "kernel"),
        ("Gate", verdict),
        ("Lines", "wal_lines"),
        ("Scatter fsync/line", "scatter_fsyncs_per_line"),
        ("WAL fsync/line", "wal_fsyncs_per_line"),
        ("WAL fsync/node/line", "wal_fsyncs_per_node_per_line"),
        ("Group commits", "group_commits"),
        ("Segments retired", "segments_retired"),
        ("Lines retained", "wal_lines_retained"),
    ))

DISCIPLINE_TABLE = Table(
    "Group-commit discipline: exactly one fsync per node per line", (
        ("Cell", lambda r: f"{r['backend']}/ppn{r['procs_per_node']}"),
        ("Gate", verdict),
        ("Nodes", "nodes"),
        ("Lines", "lines"),
        ("Fsyncs", "fsyncs"),
        ("Fsync/node/line", "fsyncs_per_node_per_line"),
        ("Replay bitwise", lambda r: "yes" if r["replay_bitwise"] else "NO"),
    ))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _add_args(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--platforms",
                    help="comma-separated platform models "
                         f"(default: {', '.join(WAL_PLATFORMS)})")
    ap.add_argument("--kernels",
                    help="comma-separated kernels "
                         f"(default: {', '.join(sorted(WAL_KERNELS))})")
    ap.add_argument("--nprocs", type=int, default=4,
                    help="simulated ranks per run (default 4)")
    ap.add_argument("--skip-discipline", action="store_true",
                    help="commit cells only (no controlled-count slice)")


def _refuse(args: argparse.Namespace) -> Optional[str]:
    if is_processes(args.engine):
        return ("engine 'processes' counts every fsync in the forked "
                "node process that made it, and this study reads the "
                "backend's fsync_count / write_count in the parent: run "
                "it on the cooperative engine")
    return None


def _run(args: argparse.Namespace, progress):
    t0 = time.time()
    # the study inherently compares scatter vs WAL; --storage selects the
    # backend both engines run over (disk flavors = the study default)
    backend = "memory" if args.storage in ("memory", "wal") else "disk"
    parallel = False if args.inline else None
    c_rows = commit_rows(args.platforms or list(WAL_PLATFORMS), args.kernels,
                         nprocs=args.nprocs, engine=args.engine,
                         parallel=parallel, max_workers=args.workers,
                         backend=backend,
                         on_row=partial(progress, COMMIT_TABLE))
    d_rows = [] if args.skip_discipline else discipline_rows(
        nprocs=args.nprocs, parallel=parallel, max_workers=args.workers,
        on_row=partial(progress, DISCIPLINE_TABLE))
    failures = ([f"{r['platform']}/{r['kernel']}"
                 for r in c_rows if not r["passed"]]
                + [f"{r['backend']}/ppn{r['procs_per_node']}"
                   for r in d_rows if not r["passed"]])
    summary = {
        "commit_cells": len(c_rows),
        "discipline_cells": len(d_rows),
        "passed": len(c_rows) + len(d_rows) - len(failures),
        "failed": failures,
        "wall_seconds": time.time() - t0,
    }
    tables = [(COMMIT_TABLE, c_rows)]
    if d_rows:
        tables.append((DISCIPLINE_TABLE, d_rows))
    return ({"summary": summary, "commits": c_rows, "discipline": d_rows},
            tables, failures)


STUDY = Study(
    name="walstudy",
    description="WAL group-commit study: fsyncs per committed line of the "
                "log-structured engine vs the per-file scatter layout on "
                "real files, plus exact-count group-commit discipline "
                "cells; exits non-zero if group commit does not reduce "
                "fsyncs per line, exceeds one fsync per node per line, or "
                "GC retains more than 2 lines.",
    run=_run, add_args=_add_args, refuse=_refuse,
    selections=(("platforms", MACHINES, "platforms"),
                ("kernels", WAL_KERNELS, "kernels")),
    help={"storage": "storage backend under *both* engines of the commit "
                     "cells: disk (the study default: real files, real "
                     "fsyncs) or memory/wal flavors mapping to the "
                     "in-memory backend"})


def main(argv: Optional[Sequence[str]] = None) -> int:
    return study_main(STUDY, argv)


if __name__ == "__main__":
    sys.exit(main())
