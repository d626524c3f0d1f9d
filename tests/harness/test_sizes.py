"""Checkpoint-size study (Tables 1/4 over the instrumented kernels)."""

import json

import pytest

from repro.harness.sizes import (
    SIZES_PARAMS, SIZES_PLATFORMS, main, measure_kernel_sizes, render_sizes,
    table_sizes_rows,
)
from repro.harness.sizes import _judge


@pytest.fixture(scope="module")
def heat_row():
    return measure_kernel_sizes("heat", nprocs=2,
                                params=dict(local_n=2048, niter=6))


class TestMeasurement:
    def test_c3_strictly_below_condor(self, heat_row):
        """The Table-1 inequality, on both the accounting and the actual
        serialized payloads."""
        assert heat_row["passed"], heat_row["failure"]
        assert heat_row["c3_bytes"] < heat_row["condor_bytes"]
        assert (heat_row["c3_payload_bytes"]
                < heat_row["condor_payload_bytes"])
        assert 0.0 < heat_row["reduction_pct"] < 100.0

    def test_committed_bytes_come_from_the_protocol_path(self, heat_row):
        """The committed number is what the CheckpointWriter actually
        wrote for a recovery line — non-zero and of the same order as the
        serialized state payload."""
        assert heat_row["checkpoints_committed"] >= 1
        assert heat_row["c3_committed_bytes"] > 0
        assert (heat_row["c3_committed_bytes"]
                < heat_row["condor_payload_bytes"])

    def test_incremental_delta_smaller_than_full_for_heat(self, heat_row):
        """heat rewrites only its rod array; the dirty-page delta must be
        far below the full save (the Section-8 claim)."""
        delta = heat_row["incremental_delta_bytes"]
        assert delta is not None
        assert delta < heat_row["c3_committed_bytes"] * 0.5

    def test_ep_is_the_tiny_state_extreme(self):
        row = measure_kernel_sizes("EP", nprocs=2,
                                   params=dict(pairs_per_batch=512,
                                               batches=6))
        assert row["passed"], row["failure"]
        # EP's saved state is ten counters and two sums: the reduction is
        # by far the largest of the set (Table 1's EP row)
        assert row["reduction_pct"] > 60.0

    @pytest.mark.parametrize("storage", ["disk", "wal-disk"])
    def test_failed_run_leaves_no_tmpdir(self, storage, monkeypatch,
                                         tmp_path):
        import tempfile

        from repro.harness import sizes

        def broken(*_a, **_kw):
            raise RuntimeError("run failed")

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(sizes, "run_c3", broken)
        with pytest.raises(RuntimeError, match="run failed"):
            measure_kernel_sizes("EP", nprocs=2, storage=storage)
        assert list(tmp_path.iterdir()) == []

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown app"):
            measure_kernel_sizes("nope")


class TestGate:
    def test_judge_passes_a_good_row(self, heat_row):
        assert _judge(heat_row) is None

    def test_judge_fails_inverted_sizes(self, heat_row):
        bad = dict(heat_row)
        bad["c3_bytes"] = bad["condor_bytes"]
        assert "not smaller" in _judge(bad)

    def test_judge_fails_vacuous_run(self, heat_row):
        bad = dict(heat_row)
        bad["checkpoints_committed"] = 0
        assert "vacuous" in _judge(bad)

    def test_judge_fails_oversized_delta(self, heat_row):
        bad = dict(heat_row)
        bad["incremental_delta_bytes"] = bad["c3_committed_bytes"] * 2
        assert "delta" in _judge(bad)


class TestDriver:
    def test_rows_cover_requested_kernels(self):
        rows = table_sizes_rows(kernels=["EP"], nprocs=2)
        assert [r["kernel"] for r in rows] == ["EP"]

    def test_sizes_params_cover_all_instrumented_kernels(self):
        from repro.apps import APPS
        assert set(SIZES_PARAMS) == {
            name for name, app in APPS.items()
            if hasattr(app, "__ccc_saved__")}

    def test_render_mentions_gate_verdicts(self, heat_row):
        text = render_sizes([heat_row])
        assert "heat" in text and "PASS" in text

    def test_platforms_are_scaled_uniprocessors(self):
        assert set(SIZES_PLATFORMS) == {"solaris", "linux"}
        for machine in SIZES_PLATFORMS.values():
            assert machine.static_segment_bytes > 0


class TestCLI:
    def test_smoke_run_writes_json_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "BENCH_table1.json"
        rc = main(["--kernels", "EP,heat", "--nprocs", "2",
                   "--json", str(out), "-q"])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["summary"]["passed"] == 2
        assert {r["kernel"] for r in report["rows"]} == \
            {"EP", "heat"}
        assert "2/2 cells passed" in capsys.readouterr().out

    def test_unknown_kernel_exits_two(self, capsys):
        assert main(["--kernels", "bogus"]) == 2
        capsys.readouterr()
