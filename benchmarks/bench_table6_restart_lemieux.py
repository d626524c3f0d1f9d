"""Table 6 — restart cost on the Lemieux model (uniprocessor runs)."""

from conftest import run_once

from repro.harness import RESTART_TABLE, render_text, table6_rows


def test_table6_restart_cost(benchmark):
    rows = run_once(benchmark, table6_rows)
    print()
    print(render_text(
        RESTART_TABLE, rows,
        title="Table 6: Restart costs (s) on Lemieux (uniprocessor)"))
    # The paper's conclusion: restart costs are negligible — with one
    # exception below ~5%, most under 2%.
    for r in rows:
        assert abs(r["restart_cost_pct"]) < 5.5, r
    assert sum(abs(r["restart_cost_pct"]) < 2.0 for r in rows) >= 4
