"""Service jobs take kills by the campaign's and the fuzzer's rules.

A recovery job's kill dicts go through the one kill helper
(:func:`repro.harness.runner.resolve_kills`) when its :class:`JobSpec`
is built, and a job whose deterministic kill never fires fails, by the
campaign's vacuous-kill verdict.
"""

from __future__ import annotations

import re

import pytest

from repro.harness.fuzz import FuzzSchedule
from repro.service import JobSpec, execute_job
from repro.storage import InMemoryStorage
from repro.storage.wal import WalStore


@pytest.mark.parametrize("kill", [
    {"rank": 9, "frac": 0.5},
    {"rank": -1, "at_epoch": 1},
    {"rank": 1, "bogus": 3},
    {"rank": 1, "frac": 1.5},
])
def test_bad_kill_rejected_with_the_fuzzers_message(kill):
    with pytest.raises(ValueError) as fuzz_error:
        FuzzSchedule("bad", "ring", 4, kills=[kill])
    with pytest.raises(ValueError, match=re.escape(str(fuzz_error.value))):
        JobSpec(app="ring", kind="recovery", nprocs=4, kills=(kill,))


@pytest.mark.parametrize("app, storage, kill", [
    ("LU", "memory", {"rank": 1, "in_collective": 2}),
    ("ring", "memory", {"rank": 1, "at_group_commit": 1}),
    ("ring", "disk", {"rank": 1, "at_group_commit": 1}),
])
def test_window_that_cannot_fire_rejected(app, storage, kill):
    with pytest.raises(ValueError, match=next(iter(set(kill) - {"rank"}))):
        JobSpec(app=app, storage=storage, kills=(kill,))


def test_windows_accepted_where_they_fire():
    JobSpec(app="CG", kills=({"rank": 1, "in_collective": 2},))
    for storage in ("wal", "wal-disk"):
        JobSpec(app="ring", storage=storage,
                kills=({"rank": 1, "at_group_commit": 1},))


def _row(spec: JobSpec) -> dict:
    wal = spec.storage in ("wal", "wal-disk")
    (row,) = execute_job(spec, lambda: (WalStore(InMemoryStorage()) if wal
                                        else InMemoryStorage()))
    return row


@pytest.mark.parametrize("app, storage, kill", [
    ("ring", "memory", {"rank": 1, "at_epoch": 99}),
    ("heat", "memory", {"rank": 1, "in_collective": 500}),
])
def test_deterministic_kill_that_never_fires_fails(app, storage, kill):
    row = _row(JobSpec(app=app, storage=storage, kills=(kill,)))
    assert row["verified"] and row["fired"] == []
    assert row["passed"] is False


def test_probabilistic_kill_may_miss():
    row = _row(JobSpec(app="ring", kills=({"rank": 1,
                                           "probability": 1e-12},)))
    assert row["fired"] == [] and row["passed"] is True
