"""Recovery-campaign integration: structural kills ride the campaign API.

The satellite coverage the recovery matrix lacks: a rank killed *inside*
a collective (peers stuck mid-exchange) and a rank killed *between*
epochs (``chkpt_StartCheckpoint`` advanced the epoch, nothing of the new
line committed) must both restart to the exact failure-free answer —
driven through the same :mod:`repro.harness.campaign` scenario pipeline
the CLI and CI run.
"""

import pytest

from repro.apps import APPS
from repro.core import (
    C3Config, ProtocolError, resume_from_manifest, run_c3, run_original,
)
from repro.harness.campaign import (
    APP_KERNELS, CAMPAIGN_PARAMS, KILL_TIMINGS, Scenario, build_matrix,
    render_campaign, run_campaign, smoke_matrix,
)
from repro.harness.runner import resolve_kills
from repro.mpi import FaultPlan, FaultSpec
from repro.storage import InMemoryStorage


def _run_one(scenario: Scenario):
    report = run_campaign([scenario], parallel=False)
    assert len(report.rows) == 1
    return report.rows[0]


@pytest.mark.parametrize("app,kill", [
    ("CG", "mid_collective"),   # kill inside a collective exchange
    ("SMG2000", "mid_collective"),
    ("CG", "epoch_boundary"),   # kill between epochs
    ("LU", "epoch_boundary"),
])
def test_structural_kills_recover_exactly(app, kill):
    (scenario,) = build_matrix([app], ["testing"], [kill])
    row = _run_one(scenario)
    assert row["passed"], row["failure"]
    assert row["fired"], "the scheduled kill must actually fire"
    assert row["restarts"] >= 1
    assert row["verified_recovery"] and row["verified_clean"]


def test_kill_at_deeper_epoch_boundary():
    """Epoch 2's boundary (a committed line exists, peers have announced)
    — the campaign-wide timing uses epoch 1, this pins the deeper case."""
    row = _run_one(Scenario(
        app="CG", platform="testing", kill="epoch_boundary",
        params=CAMPAIGN_PARAMS["CG"], kills=({"rank": 1, "at_epoch": 2},),
        interval_frac=0.15))
    assert row["passed"], row["failure"]
    assert row["restarts"] >= 1
    # epoch 2 was reached, so at least line 1 had committed before the
    # kill and the restart restored it rather than starting over
    assert row["restore_seconds"] > 0.0


def test_mid_collective_kill_leaves_peers_blocked_then_recovers():
    """The surviving ranks are inside the same collective when the victim
    dies; they must unwind via abort and the restart must verify."""
    (scenario,) = build_matrix(["MG"], ["testing"], ["mid_collective"])
    row = _run_one(scenario)
    assert row["passed"], row["failure"]
    assert any("collective" in f for f in row["fired"])


def test_smoke_matrix_covers_every_kernel():
    apps = {s.app for s in smoke_matrix()}
    assert apps == set(APP_KERNELS)
    # and at least the three core timing families appear
    kills = {s.kill for s in smoke_matrix()}
    assert {"mid_run", "epoch_boundary", "mid_collective"} <= kills


def test_vacuous_deterministic_kill_fails_the_scenario():
    """A deterministic kill that never fires must fail its scenario —
    a matrix whose kills silently miss is not a recovery test."""
    row = _run_one(Scenario(
        app="ring", platform="testing", kill="epoch_boundary",
        params=CAMPAIGN_PARAMS["ring"],
        kills=({"rank": 1, "at_epoch": 99},)))
    assert not row["passed"]
    assert "never fired" in row["failure"]
    assert row["verified_recovery"]  # the run itself completed fine


def test_kill_timing_needs_derive_from_their_kills():
    """What a timing needs is read off its kills, not kept by hand: only
    the storm is probabilistic, only mid_collective needs collectives,
    and only the group-commit tears need WAL storage."""
    kills = {name: resolve_kills(builder(4), 4)
             for name, (builder, _frac) in KILL_TIMINGS.items()}
    assert {n for n, k in kills.items() if not k.deterministic} == {"storm"}
    assert {n for n, k in kills.items() if k.needs_collectives} == \
        {"mid_collective"}
    assert {n for n, k in kills.items() if k.needs_wal} == \
        {"mid_group_commit", "torn_record"}
    assert build_matrix(["LU"], ["testing"], ["mid_collective"]) == []
    assert build_matrix(["ring"], ["testing"], ["torn_record"]) == []
    assert len(build_matrix(["ring"], ["testing"], ["torn_record"],
                            storage="wal")) == 1


def test_render_campaign_mentions_verdicts():
    (scenario,) = build_matrix(["heat"], ["testing"], ["mid_run"])
    text = render_campaign([_run_one(scenario)])
    assert "heat/testing/mid_run" in text
    assert "PASS" in text


def test_resume_from_manifest_requires_a_line():
    app = APPS["ring"]
    with pytest.raises(ProtocolError, match="no recovery line"):
        resume_from_manifest(app, 3, InMemoryStorage())


def test_resume_from_manifest_restarts_a_failed_job():
    """The out-of-loop operator entry point: run until a kill, then hand
    only the storage backend to resume_from_manifest."""
    app = APPS["ring"]
    golden = run_original(app, 3)
    golden.raise_errors()
    T = golden.virtual_time

    storage = InMemoryStorage()
    config = C3Config(checkpoint_interval=T * 0.2)
    failed, _ = run_c3(app, 3, storage=storage, config=config,
                       fault_plan=FaultPlan([FaultSpec(rank=1,
                                                       at_time=T * 0.6)]))
    assert failed.failure is not None

    resumed, stats = resume_from_manifest(app, 3, storage, config=config)
    resumed.raise_errors()
    assert resumed.failure is None
    assert resumed.returns == golden.returns
    assert max(s.restore_seconds for s in stats if s) > 0.0
