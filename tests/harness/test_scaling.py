"""Scaling study driver: sweep cells, flatness checking, paper-scale
platform points, and campaign scenarios pinned to an engine backend."""

import numpy as np
import pytest

from repro.harness.campaign import Scenario, build_matrix, run_campaign
from repro.harness.platforms import (
    LEMIEUX_CODES, PLATFORMS, PlatformConfig, ScalePoint,
)
from repro.harness.scaling import (
    SCALING_APPS, check_flatness, measure_scaling_point, render_scaling,
    scaling_rows,
)


class TestScalePoints:
    def test_sim_and_paper_fidelities(self):
        pt = LEMIEUX_CODES[0].points[0]
        assert pt.procs("sim") == pt.sim_procs
        assert pt.procs("paper") == pt.paper_procs
        assert pt.paper_procs > pt.sim_procs
        # weak scaling: per-rank parameters carry over unchanged
        assert pt.params_for("paper") == pt.params_for("sim")
        # fresh dicts, not aliases into the frozen config
        assert pt.params_for("sim") is not pt.params

    def test_explicit_paper_params_win(self):
        pt = ScalePoint(64, 16, 4, dict(n=8), paper_params=dict(n=2))
        assert pt.params_for("sim") == dict(n=8)
        assert pt.params_for("paper") == dict(n=2)

    def test_unknown_scale_rejected(self):
        pt = LEMIEUX_CODES[0].points[0]
        with pytest.raises(ValueError, match="unknown scale"):
            pt.procs("mega")

    def test_platform_registry_scale_points(self):
        lem = PLATFORMS["lemieux"]
        assert isinstance(lem, PlatformConfig)
        rows = list(lem.scale_points("paper"))
        assert rows
        # Tables 2/4 top out at the paper's 1024-process Lemieux runs
        assert max(nprocs for _c, _p, nprocs, _params, _m in rows) == 1024
        for _cfg, pt, nprocs, params, machine in rows:
            assert nprocs == pt.paper_procs
            assert machine.name == "lemieux"

    def test_velocity2_hpl_runs_on_cmi(self):
        v2 = PLATFORMS["velocity2"]
        machines = {cfg.app_name: m.name
                    for cfg, _p, _n, _par, m in v2.scale_points()}
        assert machines["HPL"] == "cmi"
        assert machines["CG"] == "velocity2"


class TestScalingSweep:
    def test_measure_scaling_point_record(self):
        row = measure_scaling_point("ring", 8, "testing",
                                    dict(payload=8, niter=3, work=1e-3))
        assert row["nprocs"] == 8
        assert row["engine"] == "cooperative"
        assert row["c3_seconds"] > row["original_seconds"] > 0
        assert isinstance(row["overhead_pct"], float)

    def test_small_sweep_rows_and_render(self):
        rows = scaling_rows(ranks=(4, 8), apps={"ring": SCALING_APPS["ring"]},
                            platforms=("testing",), parallel=False)
        assert len(rows) == 2
        assert sorted(r["nprocs"] for r in rows) == [4, 8]
        text = render_scaling(rows)
        assert "Overhead %" in text and "testing" in text

    def test_sweep_respects_engine_choice(self):
        rows = scaling_rows(ranks=(4,), apps={"ring": SCALING_APPS["ring"]},
                            platforms=("testing",), engine="sharded:2",
                            parallel=False)
        assert rows[0]["engine"] == "sharded:2"


class TestFlatnessCheck:
    @staticmethod
    def _rows(series):
        return [{"platform": "p", "app": "a", "nprocs": n,
                 "overhead_pct": o} for n, o in series]

    def test_flat_series_passes(self):
        rows = self._rows([(16, 2.0), (32, 2.1), (64, 2.3), (256, 3.0)])
        assert check_flatness(rows, tolerance_pct=4.0) == []

    def test_runaway_series_fails(self):
        rows = self._rows([(16, 2.0), (32, 2.5), (256, 8.0)])
        violations = check_flatness(rows, tolerance_pct=4.0)
        assert len(violations) == 1
        assert "256 ranks" in violations[0]

    def test_high_overhead_fails_at_any_point(self):
        # flat but high: every point must stay under the cap
        rows = self._rows([(16, 2.0), (32, 12.0), (256, 6.0)])
        violations = check_flatness(rows, tolerance_pct=4.0)
        assert len(violations) == 1
        assert "outside" in violations[0]

    def test_single_point_series_skips_trend_but_keeps_cap(self):
        assert check_flatness(self._rows([(16, 5.0)])) == []
        assert len(check_flatness(self._rows([(16, 50.0)]))) == 1


class TestCampaignOnEngine:
    """A campaign smoke cell runs on the cooperative engine and on a
    forked-shard one."""

    @pytest.mark.parametrize("engine", ["cooperative", "sharded:2"])
    def test_ring_recovery_scenario(self, engine):
        scenarios = build_matrix(["ring"], ["testing"], ["mid_run"],
                                 nprocs=4, engine=engine)
        assert scenarios == [scenarios[0]]
        assert scenarios[0].engine == engine
        report = run_campaign(scenarios, parallel=False)
        assert report.ok, report.rows
        row = report.rows[0]
        assert row["engine"] == engine
        assert row["restarts"] >= 1
        assert row["verified_recovery"]
