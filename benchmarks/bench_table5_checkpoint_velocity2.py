"""Table 5 — overhead of taking one checkpoint, Velocity 2 / CMI models."""

from conftest import run_once

from repro.harness import CHECKPOINT_TABLE, render_text, table5_rows


def test_table5_checkpoint_overhead(benchmark):
    rows = run_once(benchmark, table5_rows)
    print()
    print(render_text(
        CHECKPOINT_TABLE, rows,
        title="Table 5: Runtimes (s) on Velocity 2 with one checkpoint "
              "(HPL on CMI)"))
    for r in rows:
        assert r["committed"] >= 1, f"no checkpoint committed: {r}"
        assert r["cost_s"] <= 0.1 * r["cfg1_s"] + 0.05, r
    # HPL checkpoints stay constant-size across scales (0.34 MB in the
    # paper at every proc count) — recomputation keeps the state tiny.
    hpl = [r["size_per_proc_mb"] for r in rows if r["code"] == "HPL"]
    assert max(hpl) - min(hpl) < 0.2 * max(hpl) + 1e-6
