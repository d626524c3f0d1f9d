#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from the study tables.

Every table is rendered by ``render_markdown`` from the same ``Table``
the terminal prints: the paper's Tables 1-7 from the row drivers of
``repro.harness.experiments``, and every study named in
``repro.harness.jobs.STUDIES`` from its record's ``run`` at the command
line listed in ``STUDY_ARGV`` below.  This file holds only the prose
around them.  Takes a minute or two.

Usage: python tools/generate_experiments_md.py
"""

import importlib
import time

from repro.harness import experiments as ex
from repro.harness.fuzz import seed_schedules
from repro.harness.jobs import STUDIES, parse_study_args, render_markdown
from repro.harness.platforms import SIZE_SCALE

#: the command line each study section records
STUDY_ARGV = {
    "campaign": [],
    "scaling": [],
    "sizes": [],
    "overlap": [],
    "walstudy": [],
    "procstudy": [],
    "fuzz": ["--schedules", str(len(seed_schedules()))],
    "loadgen": ["--tenants", "4", "--jobs", "24", "--duplicate-frac", "0.25",
                "--queue-limit", "8", "--workers", "4"],
}

HEADER = (
    "# EXPERIMENTS — paper vs. reproduction, every table and figure\n\n"
    "Generated by `tools/generate_experiments_md.py`.  All 'measured' "
    "values come from the same drivers the benchmark suite runs "
    "(`pytest benchmarks/ --benchmark-only -s`).\n\n"
    "**Scale mapping.** The paper ran on real clusters at 32–1024 MPI "
    "processes for hours; the reproduction runs the identical protocol "
    "code paths on a simulator with calibrated virtual-time machine "
    "models at 4/8/16 ranks (Tables 2–5) and 1 rank "
    "(Tables 1, 6, 7), with application working sets scaled down "
    f"(Table 1 sizes at 1/{SIZE_SCALE} of the paper's footprint, reported "
    "re-scaled).  Comparable columns are the *relative* ones — overhead "
    "percentages, reductions, cost ratios — and the orderings/anomalies "
    "the paper calls out.  Absolute seconds are not comparable by "
    "design.  The cooperative rank scheduler additionally runs jobs at "
    "the paper's *true* process counts: the scaling study below sweeps "
    "16–256 simulated ranks, and every Tables 2–5 cell is runnable at "
    "its original count via `ScalePoint.procs(\"paper\")`.\n\n")


def _scaling_check(payload) -> str:
    if payload["violations"]:
        return "**VIOLATED**: " + "; ".join(payload["violations"]) + "."
    return ("no violations; the paper's scalability claim reproduces at "
            "its original process counts.")


def _proc_check(payload) -> str:
    if payload["kill_gate_ok"] and payload["cells_match"]:
        return ("the recovery protocol survives real crashes, not just "
                "simulated unwinds.")
    return ("**FAILED**: " + "; ".join((payload["kill_gate_failures"]
                                       + payload["mismatches"])[:5]) + ".")


#: EXPERIMENTS.md in order, one entry per section: (a study name or a
#: function returning paper-table ``[(Table, rows)]``, heading, intro,
#: prose before each further table, shape check as text or as a
#: function of the study's payload)
SECTIONS = (
    (lambda: [(ex.CONDOR_TABLE, ex.table1_rows())],
     "Table 1 — Condor vs C3 checkpoint sizes (uniprocessor)", "", (),
     "**Shape check:** C3 ≤ Condor everywhere; EP's reduction is an "
     "order of magnitude above every other code on both platforms "
     "(the static segment dominates its image), and the Solaris "
     "reductions exceed the Linux ones because its static segment is "
     "larger — all as in the paper."),
    ("sizes",
     "Checkpoint sizes — the precompiler path "
     "(Table 1 / Tables 4-5 \"Size/proc\")",
     "The rows above scale each code to its paper footprint; this study "
     "(`python -m repro.harness.sizes`, CI job `table1-sizes`) repeats "
     "the size claim over the six **precompiler-instrumented** kernels "
     "(`repro.apps.instrumented`, `# ccc:` directives only): per process "
     "it compares the Condor full-image accounting against C3's live "
     "data, the serialized state payload, what the protocol actually "
     "committed for the last recovery line, and the incremental "
     "dirty-page delta.  Sizes are at the scaled footprint (KB):",
     (),
     "**Shape check:** every instrumented kernel's C3 checkpoint is "
     "strictly below its Condor image (the CI gate), EP's reduction "
     "dominates (its state is ten counters and two sums), and heat's "
     "incremental delta collapses to the few pages its rod array "
     "dirties per step.  The WAL column is what the production "
     "log-structured store physically retains per process after segment "
     "GC — bounded by two committed lines plus record framing."),
    (lambda: [(ex.OVERHEAD_TABLE, ex.table2_rows()),
              (ex.OVERHEAD_TABLE, ex.table3_rows())],
     "Table 2 — runtime overhead without checkpoints, Lemieux", "",
     ("## Table 3 — runtime overhead without checkpoints, Velocity 2 "
      "(HPL on CMI)",),
     "**Shape check:** on Lemieux every code stays below 10% at every "
     "scale with no growth trend strong enough to threaten scalability "
     "(the paper's claim); on Velocity 2, SMG2000 blows up to ~40–50% "
     "while everything else stays under ~12% and HPL is below 1% — the "
     "paper's anomaly, modelled as the platform's per-message piggyback "
     "penalty hitting SMG2000's many small messages."),
    ("scaling",
     "Scaling study — overhead vs process count at paper scale",
     "Tables 2–3's headline claim is that overhead stays small and "
     "roughly flat \"up to hundreds of processes\".  The table rows above "
     "reproduce individual cells at downscaled ranks; this sweep "
     "(`python -m repro.harness.scaling`, `bench_scaling.py`) reproduces "
     "the claim itself at the paper's true scales: 16 → 256 simulated "
     "ranks on the cooperative scheduler, weak scaling (constant "
     "per-rank working set), original vs C3-without-checkpoints:",
     (),
     lambda p: "**Shape check:** every (platform, code) series stays low "
               "at every rank count and the 256-rank overhead sits within "
               "the flatness tolerance of the small-rank trend — "
               + _scaling_check(p)),
    ("procstudy",
     "Processes backend — faults as real SIGKILLs, recovery from "
     "WAL-on-disk",
     "The cooperative engine *simulates* fail-stop as a Python unwind.  "
     "`engine=\"processes\"` (DESIGN.md §12) makes the paper's fault "
     "model literal: each simulated node is a real forked OS process "
     "and a due fault SIGKILLs it — whatever it had staged but not "
     "committed is genuinely lost — then recovery restarts from WAL "
     "stable storage on real disk.  `python -m repro.harness.procstudy` "
     "(CI job `process-backend`, artifact `BENCH_processes.json`) runs "
     "the campaign smoke slice over `wal-disk` on both engines, "
     "requires every fault-injected cell to deliver at least one "
     "waitpid-confirmed SIGKILL and restart, and diffs row pairs under "
     "the real-kill-grade contract (§12.3):",
     (),
     lambda p: "**Shape check:** every fault-injected cell's kill "
               "physically took an OS process (confirmed by `waitpid` "
               "status) and every cell recovered to bitwise-identical "
               "results — " + _proc_check(p)),
    (lambda: [(ex.CHECKPOINT_TABLE, ex.table4_rows()),
              (ex.CHECKPOINT_TABLE, ex.table5_rows())],
     "Table 4 — overhead with one checkpoint, Lemieux", "",
     ("## Table 5 — overhead with one checkpoint, Velocity 2 "
      "(HPL on CMI)",),
     "**Shape check:** the cost of one checkpoint is a few percent of a "
     "run at most (the paper scales this to <4%/hour); CG has the "
     "largest state per process and HPL by far the smallest "
     "(recomputation instead of state saving keeps it constant across "
     "scales, like the paper's 0.02–0.43 MB rows).  Configuration #2 "
     "(no disk write) sits between #1 and #3, and the overlapped "
     "write-back column sits next to #2 — the disk write disappears "
     "from the rank's critical path."),
    ("overlap",
     "Overlapped write-back — the Section 6.4 pipeline as the "
     "production commit path",
     "Section 6.4 argues checkpoints should be written locally and "
     "drained off the rank's critical path.  This study "
     "(`python -m repro.harness.overlap`, CI job `overlap-overhead`) "
     "runs steady-state-sized kernels — checkpoint interval ≫ drain "
     "time — and compares per-checkpoint cost of the in-line write "
     "(configuration #3) against the overlapped pipeline (stage to the "
     "per-node virtual-time drain device, COMMIT on drain completion), "
     "then tears the pipeline mid-drain and mid-commit and verifies "
     "recovery falls back to the previous committed line with "
     "superseded lines garbage-collected:",
     ("",),
     "**Shape check:** overlapped commit overhead collapses toward "
     "configuration #2 on every platform (the disk write is fully "
     "hidden), every torn-line kill recovers bitwise from the previous "
     "committed line, and storage ends holding at most two recovery "
     "lines per rank — the last globally committed line plus at most "
     "one a rank's final floor read had not yet collected."),
    ("walstudy",
     "WAL storage engine — group commit's fsync economy",
     "The production checkpoint store is log-structured "
     "(`repro.storage.wal`, DESIGN.md §8): co-located ranks append "
     "CRC-guarded records into one per-node segment stream and a "
     "line's COMMIT markers ride down in a single batched fsync per "
     "node — the group commit.  This study "
     "(`python -m repro.harness.walstudy`, CI job `wal-storage`) runs "
     "each steady-state kernel twice on the real-file disk backend — "
     "per-file scatter layout vs WAL — and counts fsyncs per committed "
     "recovery line:",
     ("The discipline slice pins the bound exactly: a controlled "
      "schedule (every rank commits 6 lines, no job noise) across node "
      "shapes on both backends, with the disk cells reopened cold and "
      "replayed from the log:",),
     "**Shape check:** group commit collapses scatter's one fsync "
     "per section per rank to ~one per node per line — an order of "
     "magnitude on every cell — the discipline slice counts *exactly* "
     "one fsync per node per group-committed line with bitwise replay "
     "after a cold reopen, and segment GC holds retained lines to the "
     "scatter baseline's bound.  The recovery campaign covers the "
     "failure half: `--storage wal` adds torn-record and "
     "mid-group-commit kill windows, each truncating the damaged tail "
     "at replay and falling back to the previous committed line."),
    (lambda: [(ex.RESTART_TABLE, ex.table6_rows()),
              (ex.RESTART_TABLE, ex.table7_rows())],
     "Table 6 — restart cost (uniprocessor), Lemieux", "",
     ("## Table 7 — restart cost (uniprocessor), CMI",),
     "**Shape check:** restart costs are negligible — at or below ~1–2% "
     "of the run on every code (the paper: all below 2% with one ~5% "
     "exception; its negative entries are measurement noise the "
     "deterministic simulator does not have)."),
    ("campaign",
     "Recovery campaign — kill/restart/verify beyond Tables 6-7",
     "The paper measures restart on two uniprocessor codes; the campaign "
     "(`python -m repro.harness.campaign`) extends the claim to every "
     "app kernel under injected fail-stop faults — mid-run kills, "
     "multi-fault schedules, a rank killed inside a collective, at the "
     "epoch boundary, mid-drain, or at the commit instant — each "
     "scenario verifying bitwise-identical results after restart.  The "
     "smoke subset (recorded here; `--full` covers "
     "kernels × {lemieux, velocity2, cmi} × 11 timings, "
     "`--storage disk` reruns any slice against tmpdir-rooted real "
     "files, and `--storage wal` / `wal-disk` run the log-structured "
     "engine with its extra torn-record and mid-group-commit kill "
     "windows):",
     (),
     "**Shape check:** every scenario verifies (recovery is exact "
     "under every kill timing), and restart costs stay within a small "
     "multiple of one checkpoint interval — negative entries are real "
     "here: re-execution replays logged messages instead of paying "
     "communication latency, the paper's own argument for cheap "
     "restarts."),
    ("fuzz",
     "Fault fuzzer — coverage-guided multi-fault + storage-fault sweeps",
     "The campaign above sweeps *named* kill timings; the fuzzer "
     "(`python -m repro.harness.fuzz`, DESIGN.md §9, CI job "
     "`fault-fuzz-smoke`) draws arbitrary multi-fault schedules from "
     "the full trigger vocabulary and composes them with injected "
     "storage faults (torn writes, short appends, bit rot, ENOSPC, "
     "stalled fsyncs), steered by a runtime coverage map; failures are "
     "delta-minimized and pinned under `tests/fuzz/corpus/`.  The "
     "deterministic seed set (one schedule per fault window and per "
     "storage-fault kind) recorded here reaches 100% required "
     "coverage on its own:",
     (),
     "**Shape check:** every seed schedule verifies bitwise after "
     "restart — including recoveries that must reject a torn or "
     "bit-rotted line and agree on an older one — and the three "
     "storage-layer bugs the fuzzer has found (torn COMMIT marker "
     "crash, ENOSPC group-commit crash, unvalidated restore-agreement "
     "vote) stay fixed via their minimized corpus repros."),
    ("loadgen",
     "Campaign service — queued, cached, tenant-namespaced submissions",
     "Every study above is one grid per invocation; the service layer "
     "(`repro.service`, DESIGN.md §11) runs the same job core as "
     "a long-lived campaign service: a bounded submission queue, "
     "per-tenant storage namespaces on one shared backend, and a "
     "golden-run cache keyed on `(kernel, platform, nprocs, seed, "
     "engine, storage, config-digest)` that serves repeat submissions "
     "bitwise-identical without re-execution.  The load generator "
     "(`python -m repro.harness.loadgen`, CI job `campaign-service`, "
     "artifact `BENCH_service.json`) drives concurrent tenants of "
     "mixed recovery/overhead submissions through it; the smoke shape "
     "recorded here:",
     (),
     "**Shape check:** every recovery job verifies bitwise under "
     "concurrent execution, every duplicate submission is served from "
     "the tenant's cache and compares bitwise-equal to its first run "
     "(the measurement records carry only virtual-time fields, so "
     "caching is sound), and p99 submission-to-first-result latency "
     "stays within budget while the bounded queue applies "
     "backpressure."),
)

FIGURES = """## Figures

Figures 1–7 of the paper are architecture/protocol schematics, not data \
plots.  Each is reproduced as executable behaviour:

| Figure | Content | Reproduced by |
|---|---|---|
| 1 | system architecture (precompile → coordination layer) | \
`repro.precompiler` + `examples/precompiled_app.py` |
| 2 | epochs and late/intra/early classification | \
`tests/core/test_message_classification.py` |
| 3 | mode state machine | `tests/core/test_modes.py` |
| 4 | send/receive wrapper pseudocode | \
`tests/core/test_protocol_wrappers.py` |
| 5 | start/commit/restore actions | \
`tests/core/test_checkpoint_actions.py` |
| 6 | non-blocking protocol mapping | \
`tests/core/test_nonblocking_protocol.py` |
| 7 | per-stream collective protocol (MPI_Gather) | \
`tests/core/test_collective_protocol.py` |

"""


def study_tables(name: str):
    """One study's ``(payload, [(Table, rows)])`` at its recorded command
    line, through its record's ``run`` (no terminal output)."""
    study = importlib.import_module(f"repro.harness.{name}").STUDY
    args = parse_study_args(study, STUDY_ARGV[name])
    payload, tables, _failed = study.run(args, lambda table, row: None)
    return payload, tables


def section(source, heading, intro, between, check) -> str:
    print(f"{heading.split(' — ')[0]} ...", flush=True)
    if isinstance(source, str):
        payload, tables = study_tables(source)
    else:
        payload, tables = None, source()
    out = [f"## {heading}\n\n"] + ([f"{intro}\n\n"] if intro else [])
    for i, (table, rows) in enumerate(tables):
        if i and between[i - 1]:
            out.append(f"{between[i - 1]}\n\n")
        out.append(f"{render_markdown(table, rows)}\n\n")
    return "".join(out) + (check(payload) if callable(check) else check) \
        + "\n\n"


def ablations() -> str:
    print("ablations ...", flush=True)
    ini = ex.ablation_initiation()
    logp = ex.ablation_logging_phases()
    pig = ex.ablation_piggyback()
    blk = ex.ablation_blocking_vs_nonblocking()
    return (
        "## Ablations (Section 4.5 design choices)\n\n"
        "**Any-process vs distinguished initiator** — both commit; "
        f"any-process: {ini['any_process']['control_msgs']} control msgs, "
        f"{ini['any_process']['virtual_seconds']:.6f}s; distinguished: "
        f"{ini['distinguished']['control_msgs']} control msgs, "
        f"{ini['distinguished']['virtual_seconds']:.6f}s.\n\n"
        "**Stream reductions vs result-logging** — stream-based: "
        f"{logp['stream_reductions']['log_bytes']} log bytes / "
        f"{logp['stream_reductions']['events_logged']} events; "
        "result-logging: "
        f"{logp['result_logging']['log_bytes']} log bytes / "
        f"{logp['result_logging']['events_logged']} events.\n\n"
        "**3-bit vs full-epoch piggyback** — full/3bit runtime ratio "
        f"{pig['overhead_ratio']:.4f} on SMG2000 (the 3-bit economy of "
        "Section 3.2).\n\n"
        "**Non-blocking vs blocking coordination** — LU 10 iters, 2 "
        f"checkpoints: original {blk['original_s']:.6f}s, C3 "
        f"{blk['c3_s']:.6f}s, blocking {blk['blocking_s']:.6f}s "
        f"(barrier stall {blk['blocking_stall_s']:.6f}s).  Blocking also "
        "*requires* pragma-aligned global synchronization, which HPL and "
        "most NPB codes do not have — the paper's Section 1 motivation.\n\n")


def main() -> None:
    studied = [s[0] for s in SECTIONS if isinstance(s[0], str)]
    assert sorted(studied) == sorted(STUDIES), "a study has no section"
    t0 = time.time()
    text = (HEADER + "".join(section(*s) for s in SECTIONS) + FIGURES
            + ablations() + f"_Generated in {time.time() - t0:.0f}s._\n")
    with open("EXPERIMENTS.md", "w") as f:
        f.write(text)
    print("wrote EXPERIMENTS.md")


if __name__ == "__main__":
    main()
