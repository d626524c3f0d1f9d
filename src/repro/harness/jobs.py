"""The study skeleton: one record, one driver, one table spec.

Every study CLI in this package — the recovery campaign, the scaling
sweep, the sizes/overlap/WAL studies, the processes-engine differential,
the fault fuzzer and the service load generator — is a :class:`Study`
record: a name, a description, its own extra flags, and a ``run``
function returning ``(payload, [(Table, rows)], failure labels)``.
Everything else is :func:`study_main`'s job:

* the shared flags (``--engine`` / ``--workers`` / ``--inline`` /
  ``--json`` on every study; ``--storage`` / ``--seed`` / ``-q`` on the
  studies that take them), layered over the ``REPRO_BENCH_WORKERS`` /
  ``REPRO_ENGINE`` environment defaults;
* validation of every comma-separated selection through
  :func:`require_known` (exit status 2, before anything runs);
* per-row progress lines, the terminal tables and the summary line;
* the JSON artifact, then the failure roster and the exit status.

A grid study farms its cells through :func:`run_study`, the one farming
loop: ordered streaming, a dead worker's cell folded into a failed row
of the study's own schema, and an inline fallback (with the cause
recorded, never hidden) if the pool itself breaks.

A :class:`Table` is a title plus ``(header, getter)`` columns, rendered
by :func:`render_text` for the terminal and by :func:`render_markdown`
for EXPERIMENTS.md — one declaration next to each rows function, so the
terminal and the generated record cannot drift apart.  :data:`STUDIES`
names the study modules; they are imported by name so ``python -m
repro.harness.<study>`` never imports its own module twice.

The service layer (:mod:`repro.service`) builds on the same cells: a
submitted job is a cell enumeration too, streamed through
:func:`~repro.harness.parallel.run_cells`' ``on_result`` callback.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import traceback as _traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from .parallel import Cell, CellError, run_cells

__all__ = [
    "STORAGE_CHOICES", "STUDIES", "Study", "StudyReport", "Table",
    "null_row", "open_store", "parse_study_args", "render_markdown",
    "render_text", "require_known", "run_study", "study_main", "verdict",
    "write_artifact",
]

#: the stable-storage flavors every study CLI accepts: the per-file
#: scatter layout over in-memory or tmpdir-rooted real-file backends,
#: or the log-structured WAL engine over the same two backends
STORAGE_CHOICES = ("memory", "disk", "wal", "wal-disk")

#: every ``python -m repro.harness.<name>`` study, each module exposing
#: its record as ``STUDY`` (and ``main = study_main(STUDY, argv)``)
STUDIES = ("campaign", "scaling", "sizes", "overlap", "walstudy",
           "procstudy", "fuzz", "loadgen")


# ---------------------------------------------------------------------------
# Storage seam
# ---------------------------------------------------------------------------

@contextmanager
def open_store(storage: Optional[str],
               prefix: str = "repro-study-",
               ) -> Iterator[Optional[Callable[[], Any]]]:
    """Resolve a named storage flavor to a fresh-store factory.

    Yields ``None`` for ``None``/``"memory"`` (the study's native
    default backend) or a zero-argument factory producing a *fresh*
    store per call — measurement pipelines open one store per phase
    (golden / clean C3 / each restart), so the factory must never hand
    the same instance out twice.  Disk-rooted flavors share one
    temporary directory, removed when the context exits.
    """
    if storage in (None, "memory"):
        yield None
        return
    if storage not in STORAGE_CHOICES:
        raise ValueError(f"unknown storage backend {storage!r} "
                         f"(known: {', '.join(STORAGE_CHOICES)})")
    if storage == "wal":
        from ..storage.stable import InMemoryStorage
        from ..storage.wal import WalStore

        yield lambda: WalStore(InMemoryStorage())
        return
    import shutil

    from ..storage.stable import DiskStorage

    root = tempfile.mkdtemp(prefix=prefix)
    seq = iter(range(1 << 30))
    try:
        if storage == "disk":
            yield lambda: DiskStorage(f"{root}/store{next(seq)}")
        else:  # wal-disk
            from ..storage.wal import WalStore

            yield lambda: WalStore(DiskStorage(f"{root}/store{next(seq)}"))
    finally:
        shutil.rmtree(root, ignore_errors=True)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

#: a column value: a row key (``row.get(key)``) or a function of the row
Getter = Union[str, Callable[[Dict], Any]]


@dataclass(frozen=True)
class Table:
    """One table layout: a title and ``(header, getter)`` columns.

    The headers are the EXPERIMENTS.md headers; the terminal renders the
    same columns under the same names.
    """

    title: str
    columns: Tuple[Tuple[str, Getter], ...]

    def values(self, row: Dict) -> List[Any]:
        return [row.get(g) if isinstance(g, str) else g(row)
                for _, g in self.columns]


def verdict(row: Dict) -> str:
    """The gate column shared by every judged table."""
    if row.get("skipped"):
        return "SKIP"
    return "PASS" if row["passed"] else "FAIL"


def _cell(value: Any, missing: str) -> str:
    """One table cell: floats keep significance at ms-scale values."""
    if value is None:
        return missing
    if isinstance(value, float):
        return f"{value:.2f}" if abs(value) >= 0.1 else f"{value:.4g}"
    return str(value)


def render_text(table: Table, rows: Sequence[Dict],
                title: Optional[str] = None) -> str:
    """The terminal rendering: right-aligned columns under a title rule
    (``-*`` marks an unavailable value, as in the paper's tables)."""
    headers = [h for h, _ in table.columns]
    body = [[_cell(v, "-*") for v in table.values(r)] for r in rows]
    widths = [max([len(h)] + [len(line[i]) for line in body])
              for i, h in enumerate(headers)]
    rule = min(100, sum(widths) + 2 * len(widths))
    out = [title or table.title, "=" * rule,
           "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
           "-" * rule]
    out += ["  ".join(c.rjust(w) for c, w in zip(line, widths))
            for line in body]
    return "\n".join(out)


def render_markdown(table: Table, rows: Sequence[Dict]) -> str:
    """The EXPERIMENTS.md rendering of the same columns."""
    headers = [h for h, _ in table.columns]
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    out += ["| " + " | ".join(_cell(v, "–") for v in table.values(r))
            + " |" for r in rows]
    return "\n".join(out)


# ---------------------------------------------------------------------------
# The farming loop
# ---------------------------------------------------------------------------

@dataclass
class StudyReport:
    """All rows of one farmed grid plus the harness-level roll-up."""

    rows: List[Dict]
    wall_seconds: float = 0.0
    #: harness-level error (e.g. a pickling failure losing the whole
    #: wave) that forced the affected cells onto the inline fallback —
    #: the verdicts are still complete, but the cause must not be hidden
    harness_error: Optional[str] = None

    @property
    def failures(self) -> List[Dict]:
        return [r for r in self.rows if not r.get("passed", True)]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> Dict:
        """The campaign roll-up (rows keyed by ``scenario``)."""
        rows = self.rows
        out = {
            "scenarios": len(rows),
            "passed": sum(r["passed"] and not r.get("skipped")
                          for r in rows),
            "skipped": sum(bool(r.get("skipped")) for r in rows),
            "failed": [r["scenario"] for r in self.failures],
            "total_restarts": sum(r.get("restarts", 0) for r in rows),
            "wall_seconds": self.wall_seconds,
        }
        if self.harness_error:
            out["harness_error"] = self.harness_error
        return out


def null_row(err: CellError, metrics: Sequence[str], **identity) -> Dict:
    """The failed row of a cell whose worker died: every metric None."""
    row = dict.fromkeys(metrics)
    row.update(identity)
    row["failure"] = err.error
    row["passed"] = False
    return row


def run_study(cells: Sequence[Cell],
              dead_row: Callable[[Cell, CellError], Dict],
              parallel: Optional[bool] = None,
              max_workers: Optional[int] = None,
              progress: Optional[Callable[[Dict], None]] = None,
              ) -> StudyReport:
    """Farm cells that return rows through the pool, in input order.

    ``progress(row)`` receives each row as it completes.  A cell whose
    worker process died (twice — see :func:`~repro.harness.parallel.
    run_cells`) becomes ``dead_row(cell, err)``; a harness-level crash
    that loses the whole wave (e.g. a pickling failure) drops the
    missing cells onto an inline fallback, warns on stderr, and is
    surfaced as ``harness_error``.
    """
    cells = list(cells)
    rows: List[Optional[Dict]] = [None] * len(cells)

    def on_result(i: int, cell: Cell, result: Any) -> None:
        rows[i] = (dead_row(cell, result) if isinstance(result, CellError)
                   else result)
        if progress is not None:
            progress(rows[i])

    t0 = time.time()
    harness_error = None
    try:
        run_cells(cells, max_workers=max_workers, parallel=parallel,
                  on_result=on_result)
    except Exception as exc:  # noqa: BLE001 - recorded, not hidden
        harness_error = f"{type(exc).__name__}: {exc}"
        print(f"warning: worker pool degraded to inline execution: "
              f"{harness_error}", file=sys.stderr)
        for i, row in enumerate(rows):
            if row is not None:
                continue
            try:
                result: Any = cells[i].fn(**cells[i].kwargs)
            except Exception as cell_exc:  # noqa: BLE001 - verdict row
                result = CellError(
                    label=cells[i].label,
                    error=f"{type(cell_exc).__name__}: {cell_exc}",
                    traceback=_traceback.format_exc())
            on_result(i, cells[i], result)
    return StudyReport(rows=[r for r in rows if r is not None],
                       wall_seconds=time.time() - t0,
                       harness_error=harness_error)


# ---------------------------------------------------------------------------
# The study record and its driver
# ---------------------------------------------------------------------------

#: ``progress(table, row)``: one finished row, under its table's columns
Progress = Callable[[Table, Dict], None]
#: what a study's ``run`` returns (``None``: nothing to report, exit 0)
Outcome = Optional[Tuple[Dict, List[Tuple[Table, List[Dict]]], List[str]]]


@dataclass(frozen=True)
class Study:
    """One study CLI as data; :func:`study_main` does the rest."""

    name: str
    description: str
    #: ``run(args, progress) -> (payload, [(Table, rows)], failures)``
    run: Callable[[argparse.Namespace, Progress], Outcome]
    #: adds the study's own flags to the parser
    add_args: Callable[[argparse.ArgumentParser], None] = lambda ap: None
    #: comma-separated selections, as ``(dest, known values, what)``: the
    #: driver replaces each given one by its validated list
    selections: Tuple[Tuple[str, Any, str], ...] = ()
    #: a flag combination refused up front (message -> exit 2)
    refuse: Callable[[argparse.Namespace], Optional[str]] = lambda args: None
    #: the optional shared flags it takes ("storage", "seed", "quiet");
    #: ``--engine``, ``--workers``, ``--inline`` and ``--json`` are on all
    shared: Tuple[str, ...] = ("storage", "quiet")
    #: help text overriding a shared flag's ("engine", "storage", "seed")
    help: Dict[str, str] = field(default_factory=dict)
    #: artifact JSON options
    sort_keys: bool = False
    trailing_newline: bool = False


def _engine_spec(value: str) -> str:
    """argparse ``type=`` validator for ``--engine``.

    Validates the spelling against the backend registry at parse time
    (keeping the canonical registry error message), so every study CLI
    rejects an unknown engine the same way: usage + error on stderr,
    exit status 2.  The *original* spelling is returned — studies pass
    it through :func:`~repro.mpi.backends.resolve_backend` themselves,
    which also owns the ``REPRO_ENGINE`` fallback for the unset case.
    """
    from ..mpi.backends import resolve_backend
    try:
        resolve_backend(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def require_known(values: Sequence[str], known, what: str) -> Optional[int]:
    """The standard unknown-selection exit: returns 2 to hand back from
    ``main``, or ``None`` when every value is known."""
    unknown = [v for v in values if v not in known]
    if unknown:
        print(f"unknown {what}: {unknown}; have {sorted(known)}",
              file=sys.stderr)
        return 2
    return None


def parse_study_args(study: Study, argv: Optional[Sequence[str]] = None,
                     ) -> Optional[argparse.Namespace]:
    """Parse and validate a study's command line.

    Returns ``None`` (the message already on stderr) for an unknown
    selection or a refused flag combination; argparse itself exits 2
    on a malformed flag.
    """
    from ..mpi.backends import engine_help

    ap = argparse.ArgumentParser(prog=f"python -m repro.harness.{study.name}",
                                 description=study.description)
    study.add_args(ap)
    ap.add_argument("--engine", type=_engine_spec,
                    help=study.help.get("engine") or engine_help())
    if "storage" in study.shared:
        ap.add_argument("--storage", choices=list(STORAGE_CHOICES),
                        help=study.help.get(
                            "storage", "stable-storage engine: scatter "
                            "layout over in-memory or tmpdir-rooted real "
                            "files, or the WAL engine over the same two "
                            "backends (default: the study's native "
                            "backend)"))
    if "seed" in study.shared:
        ap.add_argument("--seed", type=int, default=0,
                        help=study.help.get("seed", "RNG seed (default 0)"))
    ap.add_argument("--workers", type=int,
                    help="process-pool size (default: REPRO_BENCH_WORKERS "
                         "or cpu_count-1)")
    ap.add_argument("--inline", action="store_true",
                    help="run cells in this process (no pool)")
    ap.add_argument("--json", metavar="PATH",
                    help="write the machine-readable report here")
    if "quiet" in study.shared:
        ap.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-row progress lines")
    ap.set_defaults(storage=None, seed=0, quiet=False)
    args = ap.parse_args(argv)
    for dest, known, what in study.selections:
        value = getattr(args, dest)
        if isinstance(value, str):
            setattr(args, dest, value.split(","))
            if require_known(getattr(args, dest), known, what):
                return None
    refusal = study.refuse(args)
    if refusal:
        print(refusal, file=sys.stderr)
        return None
    return args


def write_artifact(path: str, payload: Dict, sort_keys: bool = False,
                   trailing_newline: bool = False) -> None:
    """Write the machine-readable study report (stable JSON layout)."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=sort_keys, default=str)
        if trailing_newline:
            f.write("\n")
    print(f"wrote {path}")


def study_main(study: Study, argv: Optional[Sequence[str]] = None) -> int:
    """Run one study CLI end to end; returns its exit status.

    0: every row passed its gate; 1: failures (rostered on stderr); 2:
    an unknown selection or a refused flag combination (nothing ran).
    """
    args = parse_study_args(study, argv)
    if args is None:
        return 2
    seen = [0]

    def progress(table: Table, row: Dict) -> None:
        seen[0] += 1
        if not args.quiet:
            line = "  ".join(_cell(v, "-*") for v in table.values(row))
            failure = f"  ({row['failure']})" if row.get("failure") else ""
            print(f"[{seen[0]:3d}] {line}{failure}", flush=True)

    t0 = time.time()
    outcome = study.run(args, progress)
    if outcome is None:
        return 0
    payload, tables, failed = outcome
    for table, rows in tables:
        print()
        print(render_text(table, rows))
    rows = [r for _, table_rows in tables for r in table_rows]
    passed = sum(bool(r.get("passed", True)) for r in rows)
    print(f"\n{passed}/{len(rows)} cells passed "
          f"({time.time() - t0:.1f}s wall)")
    if args.json:
        write_artifact(args.json, payload, sort_keys=study.sort_keys,
                       trailing_newline=study.trailing_newline)
    if failed:
        print("FAILED:", ", ".join(failed), file=sys.stderr)
        return 1
    return 0
