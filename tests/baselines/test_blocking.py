"""Blocking coordinated checkpointing baseline."""

import numpy as np
import pytest

from repro.apps import ring
from repro.baselines.blocking import run_blocking
from repro.core import run_original
from repro.storage import InMemoryStorage, as_store


def test_blocking_run_matches_original():
    ref = run_original(ring, 4)
    ref.raise_errors()
    result, stats = run_blocking(ring, 4, storage=InMemoryStorage(),
                                 interval_pragmas=4)
    result.raise_errors()
    assert result.returns == ref.returns


def test_blocking_commits_checkpoints():
    storage = InMemoryStorage()
    result, stats = run_blocking(ring, 4, storage=storage,
                                 interval_pragmas=5)
    result.raise_errors()
    n = stats[0].checkpoints
    assert n >= 1
    assert as_store(storage).last_committed_global(4) == n


def test_blocking_costs_barrier_stall():
    result, stats = run_blocking(ring, 4, storage=InMemoryStorage(),
                                 interval_pragmas=3)
    result.raise_errors()
    assert all(s.barrier_stall > 0 for s in stats if s)
    assert stats[0].checkpoint_bytes > 0


def test_no_interval_means_no_checkpoints():
    storage = InMemoryStorage()
    result, stats = run_blocking(ring, 3, storage=storage)
    result.raise_errors()
    assert stats[0].checkpoints == 0
    assert storage.list() == []
