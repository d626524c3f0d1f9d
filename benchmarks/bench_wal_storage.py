"""WAL storage engine — group commit's fsync economy as a gate.

The log-structured store (DESIGN.md §8) exists to replace one fsync per
section per rank with one batched fsync per *node* per recovery line.
This bench runs the scatter-vs-WAL commit cells and the exact-count
group-commit discipline cells of :mod:`repro.harness.walstudy` and fails
if group commit does not reduce fsyncs-per-line on the real-file disk
backend, if the WAL exceeds one fsync per node per committed line, or if
segment GC retains more lines than the scatter baseline's per-file
deletes.  It also fails if the disk backend's append count on the
controlled schedule moves from its pinned value, if a controlled cell
writes a byte its log does not keep (a compacted or rewritten record),
or if the disk and in-memory segment images differ by a byte.

Emits ``BENCH_wal.json`` (the same machine-readable report the
``python -m repro.harness.walstudy`` CLI writes).
"""

import json

from conftest import run_once

from repro.harness.jobs import render_text
from repro.harness.walstudy import (
    COMMIT_TABLE, DISCIPLINE_TABLE, commit_rows, discipline_rows,
)

#: procs per node -> the disk backend's ``write_count`` on the controlled
#: schedule of 4 ranks x 6 lines: one append per group commit
DISK_APPENDS = {1: 24, 2: 12, 4: 6}


def test_wal_group_commit_study(benchmark):
    def study():
        return commit_rows(), discipline_rows()

    c_rows, d_rows = run_once(benchmark, study)
    with open("BENCH_wal.json", "w") as f:
        json.dump({"commits": c_rows, "discipline": d_rows}, f, indent=2,
                  default=str)
    print()
    print(render_text(COMMIT_TABLE, c_rows))
    print()
    print(render_text(DISCIPLINE_TABLE, d_rows))
    bad = ([f"{r['platform']}/{r['kernel']}: {r['failure']}"
            for r in c_rows if not r["passed"]]
           + [f"{r['backend']}/ppn{r['procs_per_node']}: {r['failure']}"
              for r in d_rows if not r["passed"]])
    assert not bad, f"WAL gate violations: {bad}"
    for r in c_rows:
        # The CI claim: group commit reduces fsyncs per committed line
        # versus the per-file scatter path on the disk backend — by an
        # order of magnitude, not marginally (scatter pays one fsync per
        # section per rank, the WAL one per node group).
        assert r["wal_fsyncs_per_line"] < 0.2 * r["scatter_fsyncs_per_line"]
    for r in d_rows:
        # The pinned acceptance bound: exactly one fsync per node per
        # group-committed line under a controlled commit schedule.
        assert r["fsyncs"] == r["nodes"] * r["lines"]
        assert r["replay_bitwise"]
        # each record is written once: no segment is compacted, and the
        # medium was handed no byte the log does not hold
        assert r["segments_compacted"] == 0
        assert r["written_bytes"] <= 1.05 * r["stored_bytes"]
    images = {}
    for r in d_rows:
        ppn = r["procs_per_node"]
        if r["backend"] == "disk":
            assert r["appends"] == DISK_APPENDS[ppn], r
        images.setdefault(ppn, set()).add(r["image_sha256"])
    # the disk and in-memory backends hold the same log, byte for byte
    assert all(len(digests) == 1 for digests in images.values()), images
