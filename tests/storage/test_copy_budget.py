"""Each checkpoint byte is copied once on the way to the medium.

``CheckpointWriter.save`` of a 2 MiB array and the group flush that
commits it may hold, at their peak, the section payload plus one more
copy of it (the WAL's staging buffer, or the in-memory medium's own
copy).  A stray ``tobytes``, ``bytes(...)`` or concatenation adds a
whole payload and fails the budget.
"""

import gc
import tracemalloc

import numpy as np

from repro.statesave.checkpointfile import CheckpointWriter
from repro.storage.stable import DiskStorage, InMemoryStorage
from repro.storage.wal import WalStore

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
    nbytes, peak = peak_of_save_and_flush(DiskStorage(str(tmp_path)))
    assert nbytes > 2 << 20
    assert peak <= 2 * nbytes + SLACK, peak / nbytes


def test_memory_save_and_group_flush_hold_at_most_two_copies():
    """The in-memory medium's copy is the second one; the staging buffer
    it is copied from carries ``bytearray``'s 1/8 over-allocation, taken
    when the COMMIT record followed the section into it."""
    nbytes, peak = peak_of_save_and_flush(InMemoryStorage())
    assert peak <= (2 + 1 / 8) * nbytes + SLACK, peak / nbytes
