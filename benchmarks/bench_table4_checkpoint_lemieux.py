"""Table 4 — overhead of taking one checkpoint on the Lemieux model.

Configurations: #1 no checkpoint, #2 checkpoint without the disk write,
#3 checkpoint written to node-local disk; plus size/proc and the
checkpoint cost (#3 - #1).
"""

from conftest import run_once

from repro.harness import CHECKPOINT_TABLE, render_text, table4_rows


def test_table4_checkpoint_overhead(benchmark):
    rows = run_once(benchmark, table4_rows)
    print()
    print(render_text(
        CHECKPOINT_TABLE, rows,
        title="Table 4: Runtimes (s) on Lemieux with one checkpoint"))
    for r in rows:
        assert r["committed"] >= 1, f"no checkpoint committed: {r}"
        # The paper's headline: the cost of one checkpoint is small —
        # a few percent of the run at most.
        assert r["cost_s"] <= 0.1 * r["cfg1_s"] + 0.05, r
        # #2 (no disk write) is never costlier than #3 in a deterministic
        # simulation.
        assert r["cfg2_s"] <= r["cfg3_s"] + 1e-9, r
    # HPL's checkpoint is tiny (recomputation instead of state saving);
    # CG's is the largest — Table 4's size column ordering.
    sizes = {r["code"]: r["size_per_proc_mb"] for r in rows
             if r["paper_procs"] == 64}
    assert sizes["HPL"] < 0.05 * sizes["CG (D)"]
    assert sizes["CG (D)"] >= max(sizes.values()) * 0.99
