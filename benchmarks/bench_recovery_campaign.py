"""Recovery campaign — the Tables 6/7 claim across the whole scenario
space: every app kernel killed and restarted, results verified bitwise.

Emits ``CAMPAIGN_smoke.json`` (the same machine-readable report the
``python -m repro.harness.campaign`` CLI writes) so CI can archive the
per-scenario verdicts next to the timing artifact.
"""

from conftest import run_once

from repro.harness import (
    RESTART_TABLE, campaign_restart_rows, render_campaign, render_text,
    run_campaign, smoke_matrix, write_artifact,
)


def test_recovery_campaign_smoke(benchmark):
    report = run_once(benchmark, lambda: run_campaign(smoke_matrix()))
    write_artifact("CAMPAIGN_smoke.json",
                   {"summary": report.summary(), "rows": report.rows})
    print()
    print(render_campaign(report.rows))
    print()
    print(render_text(
        RESTART_TABLE, campaign_restart_rows(report.rows),
        title="Campaign restart costs (virtual s, multi-process scenarios)"))
    # Every kernel must kill, restart, and verify bitwise-identical
    # results — the paper's recovery-correctness claim.
    assert report.ok, f"failed scenarios: {report.summary()['failed']}"
    assert {r["app"] for r in report.rows} >= {
        "CG", "LU", "SP", "BT", "MG", "EP", "FT", "IS", "SMG2000", "HPL"}
    # Restart stays cheap relative to the run — the Tables 6/7 shape —
    # in aggregate across the matrix (single scenarios can even be
    # negative: log replay is cheaper than re-communication).
    costs = [r["restart_cost_seconds"] / r["golden_seconds"]
             for r in report.rows if r["restarts"]]
    assert sum(costs) / len(costs) < 2.0
