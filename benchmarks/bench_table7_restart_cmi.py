"""Table 7 — restart cost on the CMI model (uniprocessor runs)."""

from conftest import run_once

from repro.harness import RESTART_TABLE, render_text, table7_rows


def test_table7_restart_cost(benchmark):
    rows = run_once(benchmark, table7_rows)
    print()
    print(render_text(
        RESTART_TABLE, rows,
        title="Table 7: Restart costs (s) on CMI (uniprocessor)"))
    for r in rows:
        assert abs(r["restart_cost_pct"]) < 5.5, r
    assert sum(abs(r["restart_cost_pct"]) < 2.0 for r in rows) >= 4
