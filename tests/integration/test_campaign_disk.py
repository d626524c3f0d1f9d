"""Campaign smoke slice against a tmpdir DiskStorage.

The campaign matrix normally exercises only InMemoryStorage; these
scenarios run the same golden/clean/kill/restart/verify pipeline against
real files — real atomic renames on the hot path, the torn-line
rejection path, and GC deletions — covering the storage stack the
examples and operators actually use.
"""

import pytest

from repro.harness.campaign import (
    Scenario, _measure_scenario, build_matrix, run_campaign,
)
from repro.storage import DiskStorage, as_store
from repro.harness.runner import measure_recovery
from repro.mpi.timemodel import MACHINES


@pytest.mark.parametrize("kill", ["mid_run", "mid_drain", "mid_commit"])
def test_disk_campaign_scenario_verifies(kill, tmp_path, monkeypatch):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    [scenario] = build_matrix(["heat"], ["testing"], [kill],
                              storage="disk")
    assert scenario.label.endswith("@disk")
    row = _measure_scenario(scenario)
    assert row.get("error") is None
    assert row["verified_clean"] and row["verified_recovery"]
    assert row["fired"]
    assert row["restarts"] >= 1


def test_disk_campaign_slice_through_harness(tmp_path, monkeypatch):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    scenarios = build_matrix(["CG", "ring"], ["testing"],
                             ["mid_drain", "early"], storage="disk")
    report = run_campaign(scenarios, parallel=False)
    assert report.ok, report.summary()["failed"]
    assert len(report.rows) == 4


def test_disk_recovery_gc_leaves_only_live_lines(tmp_path):
    """After a kill/restart sequence on real files, storage holds exactly
    the live lines (<= 2 per rank), every one fully committed — GC
    removed the superseded files from disk."""
    roots = iter(range(1000))
    factory = lambda: DiskStorage(  # noqa: E731
        str(tmp_path / f"store{next(roots)}"))
    record = measure_recovery(
        "heat", 4, MACHINES["testing"],
        dict(local_n=16, niter=10), [{"rank": 1, "frac": 0.55}],
        storage_factory=factory)
    assert record["verified"]
    assert record["checkpoints_committed"] >= 2
    assert record["lines_retained"] <= 2
    # the faulty-run store is the second one the factory produced
    store = DiskStorage(str(tmp_path / "store1"))
    ckpt = as_store(store)
    cmap = ckpt.committed_map()
    last = ckpt.last_committed_global(4, validate=True)
    assert last == record["checkpoints_committed"]
    for rank in range(4):
        assert len(cmap[rank]) <= 2
        assert cmap[rank][-1] == last
    # nothing on disk but the retained lines' files (no temp debris)
    assert not [p for p in store.list() if p.endswith(".tmp")]


def test_unknown_storage_kind_becomes_error_record():
    row = _measure_scenario(Scenario(app="heat", platform="testing",
                                     kill="mid_run", storage="floppy"))
    assert "unknown storage backend" in row["error"]
