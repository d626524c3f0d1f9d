"""Each checkpoint byte is copied once on the way to the medium.

``CheckpointWriter.save`` of a 2 MiB array and the group flush that
commits it may hold, at their peak, the section payload and whatever
copy of it the medium keeps: nothing more on disk (the WAL stages the
payload by reference and the file is written from it), one more copy
in memory (the in-memory medium's object).  A stray ``tobytes``,
``bytes(...)``, staging buffer or concatenation adds a whole payload
and fails the budget.

The crash path has a budget too: replaying a segment with a torn tail
reads the segment once and cuts the tail in place, so it holds one
segment at its peak, not the segment and a copy of its valid prefix.
"""

import gc
import tracemalloc

import numpy as np

from repro.statesave.checkpointfile import CheckpointWriter
from repro.storage.stable import DiskStorage, InMemoryStorage
from repro.storage.manifest import section_digest
from repro.storage.wal import SECTION, WalStore, encode_record, segment_path

SLACK = 64 << 10


def peak_of_save_and_flush(backend):
    state = np.arange(1 << 18, dtype=np.float64)  # 2 MiB
    store = WalStore(backend)
    store.configure(1, 1)  # a one-rank node: the commit flushes the group
    writer = CheckpointWriter(store, 1, 0)
    gc.collect()
    tracemalloc.start()
    try:
        nbytes = writer.save("state", state)
        writer.commit()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert store.committed_map() == {0: [1]}
    assert store.group_commits == 1
    return nbytes, peak


def test_disk_save_and_group_flush_hold_at_most_two_copies(tmp_path):
    """At most two, and in fact one: the payload itself."""
    nbytes, peak = peak_of_save_and_flush(DiskStorage(str(tmp_path)))
    assert nbytes > 2 << 20
    assert peak <= nbytes + SLACK, peak / nbytes


def test_memory_save_and_group_flush_hold_at_most_two_copies():
    """The in-memory medium's copy is the second one, joined once from
    the staged records."""
    nbytes, peak = peak_of_save_and_flush(InMemoryStorage())
    assert peak <= 2 * nbytes + SLACK, peak / nbytes


def test_disk_replay_of_a_torn_tail_holds_one_segment(tmp_path):
    backend = DiskStorage(str(tmp_path))
    store = WalStore(backend, segment_target_bytes=16 << 20)
    store.configure(1, 1)
    for version in (1, 2):
        data = bytes(1 << 20)
        store.put_section(version, 0, "state", data)
        store.commit_line(version, 0,
                          {"state": (len(data), section_digest(data))})
    seg = segment_path(0, 0)
    record = encode_record(SECTION, 3, 0, "state", bytes(1 << 20))
    backend.append(seg, record[:len(record) // 2])  # a torn 1 MiB record
    seg_bytes = backend.size(seg)
    del record
    gc.collect()
    tracemalloc.start()
    try:
        reopened = WalStore(backend)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reopened.committed_map() == {0: [1, 2]}
    assert reopened.replay_truncated_bytes > 0
    assert peak < 1.25 * seg_bytes, peak / seg_bytes
