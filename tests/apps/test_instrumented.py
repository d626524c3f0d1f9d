"""Precompiler-instrumented kernels: equivalence, metadata, recovery.

The ``*+ccc`` kernels are the *pre*-precompiler sources of six app
kernels, run through ``repro.precompiler.instrument`` at import.  They
must (a) compute bit-for-bit what the handwritten Context-API versions
compute, (b) expose their saved-variable sets, and (c) survive the
recovery campaign's kill/restart/verify pipeline at **every** kill
timing — including kills that land mid-way through MG's nested
resumable loops, where the restart resumes a two-deep loop-position
stack.
"""

import pytest

from repro.apps import APPS, HANDWRITTEN_COUNTERPART, INSTRUMENTED_APPS
from repro.core import run_original
from repro.harness.campaign import (
    CAMPAIGN_PARAMS, COLLECTIVE_APPS, INSTRUMENTED_KERNELS, KILL_TIMINGS,
    build_matrix, run_campaign,
)
from repro.harness.runner import resolve_kills


def _with_params(app, params):
    return lambda ctx: app(ctx, **params)


class TestEquivalence:
    @pytest.mark.parametrize("name", sorted(INSTRUMENTED_APPS))
    def test_bitwise_equal_to_handwritten(self, name):
        """The instrumented kernel is the same computation, bit for bit."""
        params = CAMPAIGN_PARAMS[HANDWRITTEN_COUNTERPART[name]]
        inst = run_original(_with_params(APPS[name], params), 4)
        inst.raise_errors()
        hand = run_original(
            _with_params(APPS[HANDWRITTEN_COUNTERPART[name]], params), 4)
        hand.raise_errors()
        assert inst.returns == hand.returns

    def test_registry_exposes_instrumented_kernels(self):
        for name in INSTRUMENTED_KERNELS:
            assert name in APPS
            assert APPS[name].__ccc_saved__  # precompiler metadata present


class TestMetadata:
    def test_saved_sets(self):
        assert APPS["heat+ccc"].__ccc_saved__ == ["dmax", "u"]
        assert APPS["EP+ccc"].__ccc_saved__ == ["counts", "sx", "sy"]
        # ring's payload array is saved through the ccc: call guard
        assert "x" in APPS["ring+ccc"].__ccc_saved__
        # CG's while-loop cursor is saved state
        assert "it" in APPS["CG+ccc"].__ccc_saved__

    def test_campaign_params_cover_instrumented_kernels(self):
        for name in INSTRUMENTED_KERNELS:
            assert CAMPAIGN_PARAMS[name] == \
                CAMPAIGN_PARAMS[HANDWRITTEN_COUNTERPART[name]]


class TestCampaignRecovery:
    """Kill/restart/verify for the instrumented kernels through the same
    scenario pipeline the CLI and CI run."""

    @pytest.mark.parametrize("kill", sorted(KILL_TIMINGS))
    def test_nested_loop_kernel_survives_every_kill_timing(self, kill):
        """MG+ccc at every campaign kill timing: the restart must resume
        the (cycle, lv_down) position stack and verify bitwise.  The
        group-commit tear windows only exist on the WAL engine, so those
        cells run there."""
        kills = resolve_kills(KILL_TIMINGS[kill][0](4), 4)
        storage = "wal" if kills.needs_wal else "memory"
        (scenario,) = build_matrix(["MG+ccc"], ["testing"], [kill],
                                   storage=storage)
        report = run_campaign([scenario], parallel=False)
        row = report.rows[0]
        assert row["passed"], row["failure"]
        if kills.deterministic:
            assert row["restarts"] >= 1
            assert row["verified_recovery"] and row["verified_clean"]

    @pytest.mark.parametrize("app", [k for k in INSTRUMENTED_KERNELS
                                     if k != "MG+ccc"])
    def test_every_instrumented_kernel_recovers(self, app):
        kill = "mid_collective" if app in COLLECTIVE_APPS else "mid_run"
        (scenario,) = build_matrix([app], ["testing"], [kill])
        report = run_campaign([scenario], parallel=False)
        row = report.rows[0]
        assert row["passed"], row["failure"]
        assert row["restarts"] >= 1
        assert row["verified_recovery"] and row["verified_clean"]

    def test_while_loop_kernel_recovers_from_epoch_boundary(self):
        """CG+ccc's main loop is an instrumented *while*; an epoch-boundary
        kill must restart into the while with the saved cursor."""
        (scenario,) = build_matrix(["CG+ccc"], ["testing"],
                                   ["epoch_boundary"])
        report = run_campaign([scenario], parallel=False)
        row = report.rows[0]
        assert row["passed"], row["failure"]
        assert row["restarts"] >= 1
