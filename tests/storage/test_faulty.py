"""Storage-fault injection in isolation.

Each fault class of :class:`FaultyStorage` must be observable through
the PR 6 backend accounting counters (``write_count``, ``written_bytes``,
``fsync_count``, ``read_count``) and the wrapper's own ``injected`` map;
a zero-fault wrapper must be bitwise-transparent.  The WAL-facing tests
at the bottom pin crash sequencing at the store/backend seam (the
medium's loss before the WAL's replay) and the
ENOSPC-during-group-commit-flush bug the fuzzer found.
"""

from __future__ import annotations

import pytest

from repro import coverage
from repro.storage.faulty import (STORAGE_FAULT_KINDS, FaultyStorage,
                                  StorageFault)
from repro.storage.manifest import section_digest
from repro.storage.namespace import PrefixBackend
from repro.storage.stable import DiskStorage, InMemoryStorage, StorageError
from repro.storage.wal import WalStore


def _faulty(*faults):
    return FaultyStorage(InMemoryStorage(), [StorageFault(**f)
                                             for f in faults])


# ---------------------------------------------------------------------------
# Transparency
# ---------------------------------------------------------------------------

def test_zero_fault_wrapper_is_bitwise_transparent():
    bare = InMemoryStorage()
    wrapped = FaultyStorage(InMemoryStorage())

    def script(s):
        s.write("a/x", b"hello")
        s.write("a/y", b"world" * 10)
        s.append("log", b"rec1")
        s.append("log", b"rec2")
        s.sync("log")
        s.delete("a/y")
        return (s.read("a/x"), s.read_range("log", 4, 4), s.list("a/"),
                s.size("log"), s.exists("a/y"))

    assert script(bare) == script(wrapped)
    inner = wrapped.inner
    for counter in ("write_count", "written_bytes", "fsync_count",
                    "read_count"):
        assert getattr(inner, counter) == getattr(bare, counter)
    # counter reads forward through the wrapper too
    assert wrapped.write_count == bare.write_count
    assert wrapped.injected == {k: 0 for k in STORAGE_FAULT_KINDS}


# ---------------------------------------------------------------------------
# One observable test per fault class
# ---------------------------------------------------------------------------

def test_torn_write_persists_a_strict_prefix():
    s = _faulty(dict(kind="torn_write", after_ops=2, keep_fraction=0.5))
    s.write("a", b"A" * 100)
    s.write("b", b"B" * 100)          # torn: only 50 bytes land
    s.write("c", b"C" * 100)
    assert s.read("a") == b"A" * 100
    assert s.read("b") == b"B" * 50
    assert s.read("c") == b"C" * 100
    assert s.injected["torn_write"] == 1
    # the backend counters saw the torn size, not the intended one
    assert s.inner.written_bytes == 250
    assert s.inner.write_count == 3


def test_short_append_leaves_log_offsets_ahead_of_disk():
    s = _faulty(dict(kind="short_append", after_ops=2, keep_fraction=0.25))
    assert s.append("log", b"x" * 40) == 0
    assert s.append("log", b"y" * 40) == 40   # injected: only 10 land
    assert s.size("log") == 50                # disk is 30 bytes short
    assert s.injected["short_append"] == 1
    assert s.inner.written_bytes == 50


def test_bit_rot_flips_exactly_one_bit():
    s = _faulty(dict(kind="bit_rot", after_ops=1, bit=13))
    payload = bytes(range(32))
    s.write("obj", payload)
    rotted = s.read("obj")
    assert len(rotted) == len(payload)
    diff = [(a ^ b) for a, b in zip(payload, rotted)]
    assert sum(bin(d).count("1") for d in diff) == 1
    assert diff[13 // 8] == 1 << (13 % 8)
    assert s.injected["bit_rot"] == 1
    # the rot is a second physical write of the object
    assert s.inner.write_count == 2


def test_enospc_raises_for_a_stretch_then_recovers():
    s = _faulty(dict(kind="enospc", after_ops=2, count=2))
    s.write("a", b"1")
    with pytest.raises(StorageError, match="no space left"):
        s.write("b", b"2")
    with pytest.raises(StorageError, match="no space left"):
        s.append("log", b"3")
    s.write("c", b"4")                 # stretch over: disk has space again
    assert s.injected["enospc"] == 2
    assert not s.exists("b")
    assert s.inner.write_count == 2    # failed ops never reached the disk
    assert s.inner.fsync_count == 2


def test_stalled_sync_loses_the_tail_only_on_crash():
    s = _faulty(dict(kind="stall_sync", after_ops=2))
    s.append("log", b"AAAA")
    s.sync("log")                      # honest: 4 bytes durable
    s.append("log", b"BBBB")
    s.sync("log")                      # swallowed
    assert s.injected["stall_sync"] == 1
    assert s.inner.fsync_count == 1    # the lie never reached the disk
    assert s.read("log") == b"AAAABBBB"
    s.on_job_end(crashed=True)
    assert s.read("log") == b"AAAA"    # the unsynced tail is gone


def test_stalled_sync_is_harmless_on_clean_shutdown():
    s = _faulty(dict(kind="stall_sync", after_ops=1))
    s.append("log", b"AAAA")
    s.sync("log")                      # swallowed
    s.on_job_end(crashed=False)        # clean job end: the cache drains
    s.on_job_end(crashed=True)
    assert s.read("log") == b"AAAA"


def test_stalled_sync_with_no_durable_point_deletes_the_object():
    s = _faulty(dict(kind="stall_sync", after_ops=1))
    s.append("log", b"AAAA")
    s.sync("log")                      # swallowed; nothing ever durable
    s.on_job_end(crashed=True)
    assert not s.exists("log")


# ---------------------------------------------------------------------------
# Scheduling discipline
# ---------------------------------------------------------------------------

def test_path_prefix_filters_eligible_operations():
    s = _faulty(dict(kind="torn_write", after_ops=1, path_prefix="ckpt/"))
    s.write("wal/seg", b"W" * 10)      # not eligible
    s.write("ckpt/a", b"C" * 10)       # first eligible: torn
    assert s.read("wal/seg") == b"W" * 10
    assert s.read("ckpt/a") == b"C" * 5


def test_after_ops_is_one_based_and_per_fault():
    s = _faulty(dict(kind="torn_write", after_ops=1),
                dict(kind="bit_rot", after_ops=3, bit=0))
    s.write("a", b"\xff" * 8)          # torn (fault 1, op 1)
    s.write("b", b"\xff" * 8)
    s.write("c", b"\xff" * 8)          # rotted (fault 2, op 3)
    assert s.read("a") == b"\xff" * 4
    assert s.read("b") == b"\xff" * 8
    assert s.read("c") != b"\xff" * 8
    assert s.injected == {"torn_write": 1, "bit_rot": 1, "short_append": 0,
                          "enospc": 0, "stall_sync": 0}


def test_injections_report_to_the_coverage_map():
    cmap = coverage.CoverageMap()
    previous = coverage.install(cmap)
    try:
        s = _faulty(dict(kind="enospc", after_ops=1))
        with pytest.raises(StorageError):
            s.write("a", b"x")
    finally:
        coverage.install(previous)
    assert "storage:enospc" in cmap.points()


# ---------------------------------------------------------------------------
# Proxy rule: a fault injector answers for its medium
# ---------------------------------------------------------------------------

def test_shared_across_fork_answers_for_the_medium(tmp_path):
    disk = DiskStorage(str(tmp_path / "medium"))
    assert FaultyStorage(disk).shared_across_fork
    assert PrefixBackend(FaultyStorage(disk), "t").shared_across_fork
    assert not FaultyStorage(InMemoryStorage()).shared_across_fork


# ---------------------------------------------------------------------------
# Crash sequencing at the store/backend seam + the ENOSPC group-commit
# regression
# ---------------------------------------------------------------------------

def test_store_applies_storage_loss_before_wal_replay():
    backend = FaultyStorage(InMemoryStorage(),
                            [StorageFault(kind="stall_sync", after_ops=2,
                                          count=9)])
    store = WalStore(backend)
    store.configure(nprocs=1, procs_per_node=1)
    store.put_section(1, 0, "app", b"v1" * 8)
    store.commit_line(1, 0, sections={"app": (16, "x" * 32)})
    store.put_section(2, 0, "app", b"v2" * 8)
    store.commit_line(2, 0, sections={"app": (16, "y" * 32)})  # sync stalls
    # crash: the stalled tail is lost first, then the WAL replays what is
    # physically left — line 2 must vanish, line 1 must survive
    store.on_job_end(failed_rank=0)
    assert store.committed_map().get(0) == [1]
    assert store.read_section(1, 0, "app") == b"v1" * 8
    with pytest.raises(StorageError):
        store.read_section(2, 0, "app")


def test_clean_end_settles_stalled_syncs():
    backend = FaultyStorage(InMemoryStorage(),
                            [StorageFault(kind="stall_sync", after_ops=1)])
    store = WalStore(backend)
    store.put_section(1, 0, "app", b"v1")
    store.commit_line(1, 0, sections={"app": (2, "x" * 32)})  # sync stalls
    store.on_job_end()                 # clean end: nothing is lost
    backend.on_job_end(crashed=True)   # a later crash has nothing to lose
    assert WalStore(backend.inner).committed_map() == {0: [1]}


def test_wal_group_commit_flush_survives_enospc():
    # Regression (found by the fault fuzzer): an injected ENOSPC during
    # the WAL's group-commit flush escaped as a raw StorageError from
    # deep inside commit_line/flush and crashed the job.  The store must
    # instead abandon the staged batch, stay consistent, and keep
    # accepting writes once the disk has space again.
    backend = FaultyStorage(InMemoryStorage(),
                            [StorageFault(kind="enospc", after_ops=2,
                                          path_prefix="wal/")])
    store = WalStore(backend)
    store.configure(nprocs=1, procs_per_node=1)
    store.put_section(1, 0, "app", b"v1" * 8)
    store.commit_line(1, 0, sections={"app": (16, "d" * 32)})  # flush 1: ok
    store.put_section(2, 0, "app", b"v2" * 8)
    with pytest.raises(StorageError, match="no space left"):
        store.commit_line(2, 0, sections={"app": (16, "e" * 32)})
    # the staged batch is abandoned, not half-indexed
    assert store.stats()["flush_failures"] == 1
    assert store.committed_map().get(0) == [1]
    assert not store.validate_line(2, 0)
    assert store.validate_line(1, 0)
    # disk has space again: the store keeps working
    store.put_section(3, 0, "app", b"v3" * 8)
    store.commit_line(3, 0, sections={"app": (16, "f" * 32)})
    assert store.committed_map().get(0) == [1, 3]
    # a crash + replay agrees with the in-memory view
    store.on_job_end(failed_rank=0)
    assert store.committed_map().get(0) == [1, 3]


def test_tombstones_of_an_abandoned_batch_leave_later_lines_alone():
    # Regression: tombstones dropped with a failed flush kept their
    # bytes counted live, so spending them once their lines' segments
    # retired subtracted those bytes a second time — from the segment
    # the next batch lands in.  Twelve of them drove that segment's live
    # count to zero and unlinked it, committed line 15 and all.
    medium = InMemoryStorage()
    backend = FaultyStorage(medium, [StorageFault(kind="enospc",
                                                  after_ops=14,
                                                  path_prefix="wal/")])
    store = WalStore(backend, segment_target_bytes=1)  # a segment a line
    store.configure(nprocs=1, procs_per_node=1)

    def line(v):
        data = bytes([v]) * 16
        store.put_section(v, 0, "app", data)
        store.commit_line(v, 0, sections={"app": (16, section_digest(data))})

    for v in range(1, 14):
        line(v)
    for v in range(1, 13):
        store.delete_line(v, 0)
    with pytest.raises(StorageError, match="no space left"):
        line(14)  # the tombstones go down with this batch
    line(15)
    assert store.validate_line(15, 0, deep=True)
    assert WalStore(medium).committed_map() == {0: [13, 15]}
