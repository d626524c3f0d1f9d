"""Overlapped write-back pipeline — the Section 6.4 claim as a gate.

Checkpoint cost should be bounded by protocol work, not by the disk:
staging the serialized sections onto the node's background drain device
and committing when the drain completes must be strictly cheaper per
checkpoint than the in-line write of the Tables 4-5 configuration #3,
on every platform model — and a rank killed mid-drain or mid-commit must
recover bitwise from the previous committed line, with superseded lines
garbage-collected.

Emits ``BENCH_overlap.json`` (the same machine-readable report the
``python -m repro.harness.overlap`` CLI writes).
"""

import json

from conftest import run_once

from repro.harness.jobs import render_text
from repro.harness.overlap import (
    FAULT_TABLE, fault_rows, overhead_rows, render_overlap,
)


def test_overlap_writeback_study(benchmark):
    def study():
        return overhead_rows(), fault_rows()

    o_rows, f_rows = run_once(benchmark, study)
    with open("BENCH_overlap.json", "w") as f:
        json.dump({"overhead": o_rows, "faults": f_rows}, f, indent=2,
                  default=str)
    print()
    print(render_overlap(o_rows))
    print()
    print(render_text(FAULT_TABLE, f_rows))
    # Every overhead cell: overlapped commit strictly cheaper than the
    # in-line write; every fault cell: bitwise recovery from the prior
    # line with <= 2 recovery lines left on storage.
    bad = ([f"{r['platform']}/{r['kernel']}: {r['failure']}"
            for r in o_rows if not r["passed"]]
           + [f"{r['platform']}/{r['kill']}: {r['failure']}"
              for r in f_rows if not r["passed"]])
    assert not bad, f"overlap gate violations: {bad}"
    # The headline shape: overlap collapses toward configuration #2
    # (serialization + protocol), far below the in-line write.
    for r in o_rows:
        assert r["overlap_cost_s"] < 0.5 * r["inline_cost_s"]
