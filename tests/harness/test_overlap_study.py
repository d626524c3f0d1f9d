"""Overlapped write-back study driver and its CI gates."""

import pytest

from repro.harness.jobs import render_text
from repro.harness.overlap import (
    FAULT_TABLE, OVERLAP_KERNELS, _judge_fault, _judge_overhead, fault_rows,
    overhead_rows, render_overlap,
)


def test_overhead_gate_passes_on_one_cell():
    rows = overhead_rows(platforms=["lemieux"], kernels=["heat"])
    assert len(rows) == 1
    r = rows[0]
    assert r["passed"], r["failure"]
    # the headline: overlap collapses toward configuration #2
    assert r["overlap_cost_s"] < r["inline_cost_s"]
    assert r["committed_overlap"] >= 1
    out = render_overlap(rows)
    assert "lemieux" in out and "PASS" in out


def test_fault_gate_passes_on_one_platform():
    rows = fault_rows(platforms=["cmi"])
    assert {r["kill"] for r in rows} == {"mid_drain", "mid_commit"}
    for r in rows:
        assert r["passed"], r["failure"]
        assert r["restored_version"] == 1      # fell back past the torn line
        assert r["lines_retained"] <= 2
    out = render_text(FAULT_TABLE, rows)
    assert "cmi/mid_drain" in out


def test_fault_cells_run_on_the_chosen_storage(monkeypatch):
    from repro.harness import overlap
    from repro.storage.stable import DiskStorage
    from repro.storage.wal import WalStore

    stores = []
    real = overlap.measure_recovery

    def spy(*args, storage_factory=None, **kwargs):
        def factory():
            stores.append(storage_factory())
            return stores[-1]
        return real(*args, storage_factory=factory, **kwargs)

    monkeypatch.setattr(overlap, "measure_recovery", spy)
    rows = fault_rows(platforms=["cmi"], storage="wal-disk", parallel=False)
    assert [r["storage"] for r in rows] == ["wal-disk", "wal-disk"]
    for r in rows:
        assert r["passed"], r["failure"]
        assert r["restored_version"] == 1
    assert stores and all(isinstance(s, WalStore)
                          and isinstance(s.backend, DiskStorage)
                          for s in stores)


def test_overhead_judge_rejects_inversion():
    row = dict(committed_inline=1, committed_overlap=1,
               overlap_cost_s=2.0, inline_cost_s=1.0)
    assert "not strictly below" in _judge_overhead(row)
    row.update(overlap_cost_s=0.5)
    assert _judge_overhead(row) is None
    row.update(committed_overlap=0)
    assert "vacuous" in _judge_overhead(row)


def test_fault_judge_rejects_gc_leak():
    row = dict(fired=["rank 1: in drain of line 2"], verified_recovery=True,
               verified_clean=True, restored_version=1, lines_retained=3)
    assert "GC left" in _judge_fault(row)
    row.update(lines_retained=2)
    assert _judge_fault(row) is None
    # a recovery that did not fall back to the line before the torn one
    # is a gate failure even when results match bitwise
    row.update(restored_version=2)
    assert "falling back" in _judge_fault(row)
    row.update(restored_version=None)
    assert "falling back" in _judge_fault(row)
    row.update(restored_version=1, fired=[])
    assert "vacuous" in _judge_fault(row)


def test_kernel_params_are_steady_state_sized():
    # interval_frac * golden must dwarf the platform drain latency; pin
    # the study kernels to stay in that regime (goldens of >= 10s of ms)
    assert set(OVERLAP_KERNELS) == {"heat", "CG", "SMG2000"}
