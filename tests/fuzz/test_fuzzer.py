"""Unit tests for the coverage-guided fault fuzzer itself."""

from __future__ import annotations

import json
import random

import pytest

from repro.harness.fuzz import (REQUIRED_COVERAGE, REQUIRED_STORAGE,
                                REQUIRED_WINDOWS, FuzzSchedule, fuzz,
                                load_schedule, minimize, mutate,
                                random_schedule, run_schedule,
                                seed_schedules, write_corpus_entry)
from repro.storage.faulty import OP_CLASS

_CACHE: dict = {}


# ---------------------------------------------------------------------------
# Schedule model + codec
# ---------------------------------------------------------------------------

def test_schedule_roundtrips_through_json():
    sched = FuzzSchedule("x", "ring", 4, storage="wal", interval_frac=0.1,
                         seed=9, kills=[{"rank": 1, "at_epoch": 2}],
                         storage_faults=[{"kind": "enospc", "after_ops": 3}])
    wire = json.loads(json.dumps(sched.to_dict()))
    back = FuzzSchedule.from_dict(wire)
    assert back == sched
    assert back.digest() == sched.digest()


@pytest.mark.parametrize("bad", (
    dict(label="x", app="nosuch", nprocs=2),
    dict(label="x", app="ring", nprocs=2, platform="cray"),
    dict(label="x", app="ring", nprocs=2, storage="tape"),
    dict(label="x", app="ring", nprocs=0),
    dict(label="x", app="ring", nprocs=2, interval_frac=0.0),
    dict(label="x", app="ring", nprocs=2, kills=[{"rank": 5, "frac": 0.5}]),
    dict(label="x", app="ring", nprocs=2, kills=[{"rank": 0, "frac": 1.5}]),
    dict(label="x", app="ring", nprocs=2,
         kills=[{"rank": 0, "at_typo": 1}]),
    dict(label="x", app="ring", nprocs=2,
         storage_faults=[{"kind": "melt"}]),
))
def test_invalid_schedules_are_rejected(bad):
    with pytest.raises(ValueError):
        FuzzSchedule(**bad)


def test_unknown_schedule_field_is_rejected():
    with pytest.raises(ValueError, match="unknown FuzzSchedule fields"):
        FuzzSchedule.from_dict({"label": "x", "app": "ring", "nprocs": 2,
                                "engine": "threads"})


def test_future_format_is_rejected():
    with pytest.raises(ValueError, match="unsupported schedule format"):
        FuzzSchedule.from_dict({"format": 99, "label": "x", "app": "ring",
                                "nprocs": 2})


def test_corpus_writer_roundtrips(tmp_path):
    sched = FuzzSchedule("pinned", "ring", 2,
                         kills=[{"rank": 0, "frac": 0.5}])
    record = {"verdict": "pass", "failure_class": None, "failure": None}
    path = write_corpus_entry(str(tmp_path), sched, record, note="why")
    assert load_schedule(path) == sched
    with open(path) as f:
        entry = json.load(f)
    assert entry["expect"] == "pass"
    assert entry["note"] == "why"


# ---------------------------------------------------------------------------
# Seeds, generator, mutator
# ---------------------------------------------------------------------------

def test_seed_schedules_cover_required_windows_statically():
    seeds = seed_schedules()
    assert len({s.label for s in seeds}) == len(seeds)
    windows = set()
    for sched in seeds:
        for kill in sched.kills:
            probe = dict(kill)
            if "frac" in probe:
                windows.add("window:at_time")
                continue
            for key in probe:
                if key not in ("rank", "reason"):
                    windows.add(f"window:{key}")
    storage_kinds = {f"storage:{sf['kind']}"
                     for sched in seeds for sf in sched.storage_faults}
    assert REQUIRED_WINDOWS <= windows
    assert REQUIRED_STORAGE <= storage_kinds
    for sched in seeds:
        assert not (sched.needs_wal() and sched.storage != "wal")


def test_generator_and_mutator_yield_valid_schedules():
    rng = random.Random(7)
    for i in range(50):
        sched = random_schedule(rng, i)
        assert sched.fault_count() >= 1
        assert not (sched.needs_wal() and sched.storage != "wal")
        child = mutate(rng, sched, i)
        assert child.fault_count() >= 1
        assert not (child.needs_wal() and child.storage != "wal")
        # both survive the codec
        assert FuzzSchedule.from_dict(sched.to_dict()) == sched
        assert FuzzSchedule.from_dict(child.to_dict()) == child


def test_every_drawn_storage_fault_can_fire():
    """The scatter layout only ``write``s, under ``ckpt/``; the WAL only
    ``append``s and ``sync``s, under ``wal/``.  A fault aimed at an
    operation or a path its schedule's engine never issues cannot fire."""
    surface = {False: ({"write"}, "ckpt/"),
               True: ({"append", "sync"}, "wal/")}
    rng = random.Random(5)
    drawn = 0
    for i in range(1200):
        sched = random_schedule(rng, i)
        for sched in (sched, mutate(rng, sched, i)):
            ops, prefix = surface[sched.storage == "wal"]
            for sf in sched.storage_faults:
                assert ops & set(OP_CLASS[sf["kind"]]), (sched.storage, sf)
                assert sf.get("path_prefix", prefix) == prefix, \
                    (sched.storage, sf)
                drawn += 1
    assert drawn > 1000


def test_generator_is_deterministic_per_seed():
    a = [random_schedule(random.Random(3), i).to_dict() for i in range(10)]
    b = [random_schedule(random.Random(3), i).to_dict() for i in range(10)]
    assert a == b


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def test_run_schedule_reports_window_and_path_coverage():
    sched = FuzzSchedule("probe", "ring", 3,
                         kills=[{"rank": 0, "frac": 0.6}])
    record = run_schedule(sched, _CACHE)
    assert record["verdict"] == "pass"
    assert record["verified"] is True
    assert record["restarts"] == 1
    assert "window:at_time" in record["coverage"]
    assert "path:commit" in record["coverage"]
    assert record["schedule"] == sched.to_dict()


def test_run_schedule_replays_bit_identically():
    sched = FuzzSchedule("replay", "heat", 3, interval_frac=0.1,
                         kills=[{"rank": 1, "at_epoch": 2}],
                         storage_faults=[{"kind": "bit_rot", "after_ops": 4,
                                          "path_prefix": "ckpt/"}])
    first = run_schedule(sched, _CACHE)
    second = run_schedule(sched, _CACHE)
    assert first == second


def test_probabilistic_livelock_is_inconclusive_not_failing():
    # a storm with more near-certain kills than the restart budget can
    # never finish; that is an inconclusive schedule, not a protocol bug
    # (each spec fires at most once, and at most one spec per rank fires
    # per execution, so 6 specs need >= 3 executions)
    sched = FuzzSchedule("storm-hard", "ring", 2,
                         kills=[{"rank": r % 2, "probability": 0.95}
                                for r in range(6)])
    record = run_schedule(sched, _CACHE, max_restarts=2)
    assert record["verdict"] == "inconclusive"
    assert record["failure_class"] == "inconclusive"


@pytest.mark.parametrize("sched", [
    FuzzSchedule("v-kill", "ring", 4, kills=[{"rank": 0, "at_epoch": 99}]),
    FuzzSchedule("v-storage", "ring", 4,
                 storage_faults=[{"kind": "enospc", "after_ops": 100000}]),
], ids=["kill-never-fires", "storage-fault-never-injects"])
def test_schedule_where_no_fault_takes_effect_is_not_a_pass(sched):
    # a corpus entry whose fault window drifted away must not keep
    # passing; it is inconclusive (so the random phase never minimizes it)
    record = run_schedule(sched, _CACHE)
    assert record["verified"] is True
    assert not record["fired"] and not record["injected"]
    assert record["verdict"] == "inconclusive"
    assert record["failure_class"] == "vacuous"


@pytest.mark.parametrize("engine", ["processes:2"])
def test_disk_schedule_recovers_under_forking_engines(engine):
    # Regression: a fault-injecting backend over real disk reported
    # shared_across_fork=False, so processes refused the job as
    # in-memory.
    sched = FuzzSchedule("fork-disk", "ring", 4, storage="wal-disk",
                         kills=[{"rank": 1, "frac": 0.5}])
    record = run_schedule(sched, engine=engine)
    assert record["failure"] is None
    assert record["verdict"] == "pass"
    assert record["restarts"] == 1


# ---------------------------------------------------------------------------
# Minimizer
# ---------------------------------------------------------------------------

def test_minimizer_drops_irrelevant_faults():
    # stub runner: "fails" iff the schedule still has an at_epoch kill;
    # the minimizer must strip everything else and stay failing
    sched = FuzzSchedule(
        "fat", "ring", 4,
        kills=[{"rank": 0, "frac": 0.3}, {"rank": 1, "at_epoch": 2},
               {"rank": 2, "frac": 0.7}],
        storage_faults=[{"kind": "enospc", "after_ops": 9, "count": 3},
                        {"kind": "bit_rot", "after_ops": 2}])

    def stub(cand):
        failing = any("at_epoch" in k for k in cand.kills)
        return {"failure_class": "mismatch" if failing else None,
                "verdict": "fail" if failing else "pass"}

    mini, runs = minimize(sched, stub, "mismatch")
    assert mini.kills == [{"rank": 1, "at_epoch": 2}]
    assert mini.storage_faults == []
    assert mini.fault_count() == 1
    assert runs <= 32


def test_minimizer_shrinks_stretch_counts():
    sched = FuzzSchedule(
        "stretch", "ring", 2,
        storage_faults=[{"kind": "enospc", "after_ops": 1, "count": 4}])

    def stub(cand):
        failing = any(sf["kind"] == "enospc" for sf in cand.storage_faults)
        return {"failure_class": "livelock" if failing else None,
                "verdict": "fail" if failing else "pass"}

    mini, _ = minimize(sched, stub, "livelock")
    assert mini.storage_faults == [{"kind": "enospc", "after_ops": 1}]


# ---------------------------------------------------------------------------
# The guided loop (seeds only: the smoke floor)
# ---------------------------------------------------------------------------

def test_fuzz_smoke_floor_reaches_full_required_coverage():
    report = fuzz(max_schedules=len(seed_schedules()), smoke=True)
    assert report["missing_required"] == []
    assert report["window_coverage_pct"] == 100.0
    assert report["failures"] == []
    assert report["smoke_ok"] is True
    assert set(report["required"]) == REQUIRED_COVERAGE
