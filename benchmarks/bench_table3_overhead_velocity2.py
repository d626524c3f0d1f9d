"""Table 3 — C3 runtime overhead without checkpoints, Velocity 2 / CMI."""

from conftest import run_once

from repro.harness import OVERHEAD_TABLE, render_text, table3_rows


def test_table3_overhead_without_checkpoints(benchmark):
    rows = run_once(benchmark, table3_rows)
    print()
    print(render_text(
        OVERHEAD_TABLE, rows,
        title="Table 3: Runtimes (s) on Velocity 2 without checkpoints "
              "(HPL on CMI)"))
    smg = [r for r in rows if r["code"] == "SMG2000"]
    others = [r for r in rows if r["code"] != "SMG2000"]
    # The paper's stand-out result: SMG2000's overhead on Velocity 2 is
    # anomalously large (~50%), far beyond every other code (<10%).
    for r in smg:
        assert r["overhead_pct"] > 30.0, r
    for r in others:
        assert r["overhead_pct"] < 13.0, r
    # HPL on CMI is nearly free (sub-1%), the paper's cheapest rows.
    hpl = [r for r in rows if r["code"] == "HPL"]
    for r in hpl:
        assert r["overhead_pct"] < 1.0, r
