"""Harness plumbing: table rendering, runners, paper-data integrity."""

import pytest

import os

from repro.harness import paperdata
from repro.harness.jobs import Table, render_markdown, render_text
from repro.harness.parallel import Cell, CellError, default_workers, run_cells
from repro.harness.platforms import (
    LEMIEUX_CODES, RESTART_CODES, TABLE1_CODES, VELOCITY2_CODES,
)
from repro.harness.runner import (
    c3_cell, measure_c3, measure_original, measure_restart, original_cell,
)
from repro.mpi.timemodel import TESTING


class TestReport:
    TABLE = Table("Title", (("A", "a"), ("B", lambda r: r["b"])))

    def test_fmt_none_is_unavailable_marker(self):
        row = {"a": None, "b": 1}
        assert render_text(self.TABLE, [row]).split()[-2] == "-*"
        assert render_markdown(self.TABLE, [row]).endswith("| – | 1 |")

    def test_fmt_float(self):
        # two decimals at >= 0.1, four significant digits below it
        md = render_markdown(self.TABLE, [{"a": 3.14159, "b": 0.00123456}])
        assert md.splitlines()[-1] == "| 3.14 | 0.001235 |"

    def test_render_table_shape(self):
        out = render_text(self.TABLE, [{"a": 1, "b": 2.5},
                                       {"a": None, "b": "x"}])
        lines = out.splitlines()
        assert lines[0] == "Title"
        assert "A" in lines[2] and "B" in lines[2]
        assert "-*" in out
        assert "2.50" in out


class TestPaperData:
    def test_table1_has_both_platforms(self):
        assert set(paperdata.TABLE1) == {"solaris", "linux"}
        assert len(paperdata.TABLE1["solaris"]) == 8

    def test_table2_overheads_under_ten_percent(self):
        for code, rows in paperdata.TABLE2.items():
            for row in rows:
                if row[4] is not None:
                    assert row[4] < 10.0

    def test_table3_smg_anomaly_recorded(self):
        smg = [r[4] for r in paperdata.TABLE3["SMG2000"]]
        assert min(smg) > 40.0

    def test_tables_cover_same_codes(self):
        assert set(paperdata.TABLE2) == set(paperdata.TABLE4)
        assert set(paperdata.TABLE3) == set(paperdata.TABLE5)
        assert set(paperdata.TABLE6) == set(paperdata.TABLE7)


class TestScaleConfigs:
    def test_every_code_has_three_points(self):
        for cfg in LEMIEUX_CODES + VELOCITY2_CODES:
            assert len(cfg.points) == 3
            procs = [p.sim_procs for p in cfg.points]
            assert procs == sorted(procs)

    def test_scale_points_match_paper_rows(self):
        for cfg in LEMIEUX_CODES:
            paper_rows = paperdata.TABLE2[cfg.label]
            assert [p.paper_procs for p in cfg.points] == \
                [r[0] for r in paper_rows]

    def test_table1_codes_cover_table1(self):
        labels = {label for _, label, _, _, _ in TABLE1_CODES}
        assert labels == set(paperdata.TABLE1["solaris"])


class TestRunners:
    def test_measure_original_and_c3(self):
        params = dict(payload=8, niter=6, work=1e-5)
        orig = measure_original("ring", 2, TESTING, params)
        assert orig.virtual_seconds > 0
        c3 = measure_c3("ring", 2, TESTING, params, checkpoints=0)
        assert c3.virtual_seconds >= orig.virtual_seconds

    def test_measure_c3_with_checkpoint(self):
        params = dict(payload=8, niter=10, work=1e-4)
        base = measure_original("ring", 2, TESTING, params)
        res = measure_c3("ring", 2, TESTING, params, checkpoints=1,
                         reference_time=base.virtual_seconds)
        assert res.checkpoints_committed >= 1
        assert res.checkpoint_bytes > 0
        assert res.last_commit_time > 0

    def test_measure_restart(self):
        out = measure_restart("ring", TESTING,
                              dict(payload=8, niter=12, work=2e-4))
        assert out["original_seconds"] > 0
        assert out["restart_run_seconds"] > 0
        assert out["restore_seconds"] > 0


class TestParallelHarness:
    PARAMS = dict(payload=8, niter=4, work=1e-5)

    def _cells(self):
        return [original_cell("ring", 2, TESTING, self.PARAMS),
                c3_cell("ring", 2, TESTING, self.PARAMS, checkpoints=0)]

    def test_inline_matches_direct_measurement(self):
        inline = run_cells(self._cells(), parallel=False)
        direct = measure_original("ring", 2, TESTING, self.PARAMS)
        assert inline[0].virtual_seconds == direct.virtual_seconds
        assert inline[1].virtual_seconds >= inline[0].virtual_seconds

    def test_pool_results_match_inline_in_order(self):
        cells = self._cells() + self._cells()
        inline = run_cells(cells, parallel=False)
        pooled = run_cells(cells, parallel=True, max_workers=2)
        assert [r.virtual_seconds for r in pooled] == \
            [r.virtual_seconds for r in inline]

    def test_cell_failure_is_attributed(self):
        bad = Cell(measure_original,
                   dict(app_name="no-such-app", nprocs=1, machine=TESTING,
                        params={}), label="bad-cell")
        with pytest.raises(RuntimeError, match="bad-cell"):
            run_cells([bad], parallel=False)

    def test_worker_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "3")
        assert default_workers() == 3


def _kill_worker() -> None:
    """Simulate a hard worker crash (no exception, no cleanup)."""
    os._exit(13)


def _well_behaved(value: int) -> int:
    return value * 2


class TestWorkerDeath:
    """A crashed pool worker must surface as a failed cell, not take
    down the study (ISSUE 9 satellite: kill-the-worker regression)."""

    def test_killer_cell_reports_cell_error(self):
        cells = [Cell(_well_behaved, dict(value=1), label="ok-0"),
                 Cell(_kill_worker, {}, label="killer"),
                 Cell(_well_behaved, dict(value=3), label="ok-1")]
        results = run_cells(cells, parallel=True, max_workers=2)
        assert results[0] == 2
        assert results[2] == 6
        err = results[1]
        assert isinstance(err, CellError)
        assert err.label == "killer"
        assert "died" in err.error and "killer" in err.error
        assert "BrokenProcessPool" in err.traceback

    def test_on_result_streams_past_the_crash(self):
        cells = [Cell(_kill_worker, {}, label="killer")] + \
            [Cell(_well_behaved, dict(value=i), label=f"ok-{i}")
             for i in range(3)]
        seen = []
        results = run_cells(cells, parallel=True, max_workers=2,
                            on_result=lambda i, c, r: seen.append((i, c.label)))
        assert seen == [(0, "killer"), (1, "ok-0"), (2, "ok-1"), (3, "ok-2")]
        assert isinstance(results[0], CellError)
        assert results[1:] == [0, 2, 4]

    def test_pool_recovers_for_next_wave(self):
        run_cells([Cell(_kill_worker, {}, label="killer"),
                   Cell(_well_behaved, dict(value=1), label="ok")],
                  parallel=True, max_workers=2)
        clean = run_cells([Cell(_well_behaved, dict(value=v)) for v in (1, 2)],
                          parallel=True, max_workers=2)
        assert clean == [2, 4]
