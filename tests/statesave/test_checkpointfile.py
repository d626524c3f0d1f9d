"""Checkpoint writer/reader: sections, commit, dry-run."""

import numpy as np
import pytest

from repro.statesave.checkpointfile import (
    CheckpointError, CheckpointReader, CheckpointWriter,
)
from repro.storage import InMemoryStorage, as_store


@pytest.fixture
def store():
    return InMemoryStorage()


def test_save_load_roundtrip(store):
    w = CheckpointWriter(store, version=1, rank=0)
    w.save("app", {"x": np.arange(4.0), "n": 7})
    w.commit()
    r = CheckpointReader(store, version=1, rank=0)
    got = r.load("app")
    assert got["n"] == 7
    assert np.array_equal(got["x"], np.arange(4.0))


def test_commit_marker(store):
    w = CheckpointWriter(store, version=2, rank=1)
    w.save("app", 1)
    assert as_store(store).last_committed_local(1) is None
    w.commit()
    assert as_store(store).last_committed_local(1) == 2


def test_duplicate_section_rejected(store):
    w = CheckpointWriter(store, 1, 0)
    w.save("app", 1)
    with pytest.raises(CheckpointError):
        w.save("app", 2)


def test_save_after_commit_rejected(store):
    w = CheckpointWriter(store, 1, 0)
    w.commit()
    with pytest.raises(CheckpointError):
        w.save("late", 1)
    with pytest.raises(CheckpointError):
        w.commit()


def test_dry_run_counts_but_does_not_store(store):
    w = CheckpointWriter(store, 1, 0, dry_run=True)
    n = w.save("app", np.zeros(1000))
    assert n > 8000
    assert w.bytes_written == n
    w.commit()
    assert store.list() == []
    assert as_store(store).last_committed_local(0) is None


def test_missing_section(store):
    w = CheckpointWriter(store, 1, 0)
    w.save("app", 1)
    w.commit()
    with pytest.raises(CheckpointError):
        CheckpointReader(store, 1, 0).load("nope")
    assert "app" in as_store(store).read_line(1, 0)


def test_total_bytes_excludes_marker(store):
    w = CheckpointWriter(store, 1, 0)
    w.save("a", b"123")
    w.save("b", b"45")
    w.commit()
    r = CheckpointReader(store, 1, 0)
    assert r.total_bytes() == w.bytes_written


def test_big_endian_section_keeps_its_dtype(store):
    w = CheckpointWriter(store, 1, 0)
    a = np.arange(3, dtype=">i4")
    w.save("app", a)
    w.commit()
    got = CheckpointReader(store, 1, 0).load("app")
    assert got.dtype == a.dtype and got.tobytes() == a.tobytes()
