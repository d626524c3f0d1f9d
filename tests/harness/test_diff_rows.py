"""The engine-differential contract of ``diff_rows``, rule by rule.

Hand-built cooperative/other row pairs, one rule per case: which fields
a differing pair may differ in (and how far) before the cell counts as
diverged: the contract the processes engine is graded by against the
cooperative oracle.
"""

from __future__ import annotations

import pytest

from repro.harness.campaign import diff_rows

#: a fully self-consistent campaign row (one restore-from-line restart)
BASE = {
    "scenario": "ring/testing/mid_run", "kill_timing": "mid_run",
    "passed": True, "failure": None, "engine": "cooperative",
    "verified": True, "verified_clean": True, "verified_recovery": True,
    "restarts": 1, "fired": ["rank 1: at t=0.0005s"],
    "golden_seconds": 1.0e-3, "clean_c3_seconds": 1.1e-3,
    "c3_overhead_pct": 10.0,
    "line_durable_at": 5e-4, "drain_sync_penalty": 0.0,
    "lines_retained": 2, "checkpoints_committed": 3,
    "restored_version": 1, "restore_seconds": 1e-5,
    "run_seconds": [5e-4, 1.2e-3],
    "total_faulty_seconds": 1.7e-3, "restart_cost_seconds": 2e-4,
    "replayed_from_log": 0, "suppressed_sends": 0, "real_kills": 0,
}

STORM = {"kill_timing": "storm"}

#: (case id, cooperative overrides, other overrides, diff_rows kwargs,
#:  fields expected to mismatch)
CASES = [
    ("identical", {}, {}, {}, []),
    # -- exact fields ------------------------------------------------------
    ("engine-skipped", {}, {"engine": "processes:2"}, {}, []),
    ("verified-exact", {}, {"verified": False}, {}, ["verified"]),
    ("verified-recovery-exact", {}, {"verified_recovery": False}, {},
     ["verified_recovery"]),
    ("passed-exact", {}, {"passed": False}, {}, ["passed"]),
    # -- rtol fields and c3_overhead_pct's atol ----------------------------
    ("golden-within-rtol", {}, {"golden_seconds": 1.015e-3}, {}, []),
    ("golden-beyond-rtol", {}, {"golden_seconds": 1.03e-3}, {},
     ["golden_seconds"]),
    ("clean-within-rtol", {}, {"clean_c3_seconds": 1.12e-3}, {}, []),
    ("clean-missing", {}, {"clean_c3_seconds": None}, {},
     ["clean_c3_seconds"]),
    ("rtol-widened", {}, {"golden_seconds": 1.03e-3}, {"rtol": 5e-2}, []),
    ("overhead-within-atol", {}, {"c3_overhead_pct": 12.4}, {}, []),
    ("overhead-beyond-atol", {}, {"c3_overhead_pct": 12.6}, {},
     ["c3_overhead_pct"]),
    # -- presence-only drain fields ----------------------------------------
    ("durable-at-moves", {}, {"line_durable_at": 9e-4}, {}, []),
    ("durable-at-missing", {}, {"line_durable_at": None}, {},
     ["line_durable_at"]),
    ("penalty-appears", {"drain_sync_penalty": None},
     {"drain_sync_penalty": 0.0}, {},
     ["drain_sync_penalty"]),
    # -- consistency rules -------------------------------------------------
    ("retained-both-held", {}, {"lines_retained": 3}, {}, []),
    ("retained-none-held", {}, {"lines_retained": 0}, {},
     ["lines_retained"]),
    ("retained-missing", {}, {"lines_retained": None}, {},
     ["lines_retained"]),
    ("committed-off-by-one", {}, {"checkpoints_committed": 4}, {}, []),
    ("restore-path-flip", {},
     {"restored_version": None, "restore_seconds": None}, {}, []),
    ("restore-inconsistent", {}, {"restored_version": None}, {},
     ["restored_version"]),
    ("restore-seconds-alone", {}, {"restore_seconds": 9e-5}, {}, []),
    ("run-seconds-within-rtol", {}, {"run_seconds": [6e-4, 1.21e-3]}, {},
     []),
    ("run-seconds-other-path", {},
     {"run_seconds": [5e-4, 1.5e-3], "restored_version": None,
      "restore_seconds": None}, {}, []),
    ("run-seconds-length", {}, {"run_seconds": [1.2e-3]}, {},
     ["run_seconds"]),
    ("abort-field-moves", {}, {"total_faulty_seconds": 9e-3}, {}, []),
    ("abort-field-missing", {}, {"restart_cost_seconds": None}, {},
     ["restart_cost_seconds"]),
    ("abort-field-sign", {}, {"restart_cost_seconds": -1e-4}, {},
     ["restart_cost_seconds"]),
    ("fired-text-moves", {}, {"fired": ["rank 1: at t=0.0006s"]}, {}, []),
    ("fired-count", {}, {"fired": ["a", "b"]}, {}, ["fired"]),
    ("restarts-exact", {}, {"restarts": 2}, {}, ["restarts"]),
    # -- storm relaxations -------------------------------------------------
    ("storm-restarts", STORM, {"restarts": 3}, {}, []),
    ("storm-no-restart", STORM, {"restarts": 0}, {}, ["restarts"]),
    ("storm-fired-count", STORM, {"fired": ["a", "b", "c"]}, {}, []),
    ("storm-fired-empty", STORM, {"fired": []}, {}, ["fired"]),
    ("storm-committed", STORM, {"checkpoints_committed": 9}, {}, []),
    ("storm-run-seconds", STORM, {"run_seconds": [1e-4, 2e-4, 9e-3]}, {},
     []),
    # -- what a real kill leaves durable -----------------------------------
    ("real-kill-skips-real-kills", {}, {"real_kills": 2},
     {}, []),
    ("real-kill-replay-counts", {},
     {"replayed_from_log": 4, "suppressed_sends": 2},
     {}, []),
    ("real-kill-negative-count", {}, {"replayed_from_log": -1},
     {}, ["replayed_from_log"]),
    ("real-kill-committed", {}, {"checkpoints_committed": 9},
     {}, []),
    ("real-kill-run-seconds", {}, {"run_seconds": [5e-4, 1.5e-3]},
     {}, []),
    ("real-kill-verified-exact", {}, {"verified_clean": False},
     {}, ["verified_clean"]),
    ("real-kill-restarts-exact", {}, {"restarts": 2},
     {}, ["restarts"]),
    ("real-kill-fired-exact", {}, {"fired": ["a", "b"]},
     {}, ["fired"]),
]


@pytest.mark.parametrize("coop,other,kwargs,bad",
                         [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_diff_rows_rule(coop, other, kwargs, bad):
    rc = dict(BASE, **coop)
    rs = dict(BASE, **dict(coop, **other))
    found = diff_rows("cell", rc, rs, **kwargs)
    assert [m.split(": ")[1] for m in found] == bad, found
    assert all(m.startswith("cell: ") for m in found)
