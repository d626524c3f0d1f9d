"""Table 2 — C3 runtime overhead without checkpoints on the Lemieux model."""

from conftest import run_once

from repro.harness import OVERHEAD_TABLE, render_text, table2_rows


def test_table2_overhead_without_checkpoints(benchmark):
    rows = run_once(benchmark, table2_rows)
    print()
    print(render_text(
        OVERHEAD_TABLE, rows,
        title="Table 2: Runtimes (s) on Lemieux without checkpoints"))
    # Paper's conclusions: overhead < 10% on all codes at every scale, and
    # no runaway growth with the process count (scalability claim).
    for r in rows:
        assert r["overhead_pct"] < 10.0, r
        assert r["overhead_pct"] > -2.0, r
    # Within each code the overhead stays within a few points across scales.
    by_code = {}
    for r in rows:
        by_code.setdefault(r["code"], []).append(r["overhead_pct"])
    for code, series in by_code.items():
        assert max(series) - min(series) < 9.0, (code, series)
