"""The WAL's log image, pinned byte for byte.

One fixed scenario — two nodes of two ranks, several group commits,
two ``DELETE`` tombstones that kill a sealed segment whole, its
retirement, and a crash that tears the victim node's staged tail — runs
over the disk medium, the in-memory medium and a ``short_append``
fault.  Every segment's SHA-256 and the media's traffic counters are
pinned, so a change to how bytes travel (staging, batching) may never
change which bytes land.
"""

import hashlib

import pytest

from repro.storage.faulty import FaultyStorage, StorageFault
from repro.storage.manifest import section_digest
from repro.storage.stable import DiskStorage, InMemoryStorage
from repro.storage.wal import WalStore

#: segment path -> SHA-256 of its bytes after the crash's replay
IMAGE = {
    "wal/node0000/seg00000001":
        "b2352ce63e1a1edbb9348973c5a57e499b208e477f946f84f8733f86466b556f",
    "wal/node0000/seg00000002":
        "748dc8349ba7b4cb7a752d0de7a38b5853d9f374f0d694a9758c8ef0ff83f22b",
    "wal/node0001/seg00000000":
        "3999bf1a25177ba4756563f9f3f8831e00378c797e705f7d4b2b8f7db99d15ea",
    "wal/node0001/seg00000001":
        "220e9b7a08c84a6a3b2c0ec372e1a38b51f44138ae365997776a6f35f76f5d6b",
    "wal/node0001/seg00000002":
        "5a3cca68b7ef04678d036083be1efcac1191bb7d94477fad1e5062c847f27c77",
}
#: the ``short_append`` run's image: its cut batch tears the log early
SHORT_IMAGE = dict(IMAGE, **{
    "wal/node0000/seg00000001":
        "d68d4152a2d3094cb8756a78b4f7247ace796d6cfc1caaa3386eec37f3373d92",
})
#: write_count, written_bytes, fsync_count, segments_retired,
#: replay_truncated_bytes (replay's truncate counts one write and one
#: fsync of no bytes: the prefix it keeps is never rewritten)
COUNTS = (11, 5956, 10, 1, 53)
SHORT_COUNTS = (12, 5677, 11, 1, 668)


def payload(version, rank, name, size):
    return bytes((version * 37 + rank * 11 + len(name) + i) % 251
                 for i in range(size))


def commit(store, version, rank, sections):
    for name, data in sections.items():
        store.put_section(version, rank, name, data)
    store.commit_line(version, rank, {
        name: (len(data), section_digest(data))
        for name, data in sections.items()})


def run_scenario(backend):
    """Four ranks on two nodes commit four lines; node 0's first lines
    are deleted, so its first segment dies whole and is retired; then
    rank 2 dies with a line staged on its node."""
    store = WalStore(backend, segment_target_bytes=1024)
    store.configure(4, 2)
    for version in range(1, 5):
        for rank in range(4):
            big = 900 if (version, rank) == (1, 0) else 60 + 20 * rank
            commit(store, version, rank, {
                "app": payload(version, rank, "app", big),
                "reg": payload(version, rank, "reg", 8 + rank)})
        if version == 2:
            store.delete_line(1, 0)
            store.delete_line(1, 1)
    store.put_section(5, 0, "app", payload(5, 0, "app", 70))
    store.put_section(5, 2, "app", payload(5, 2, "app", 90))
    store.commit_line(5, 2, {"app": (90, section_digest(
        payload(5, 2, "app", 90)))})
    store.on_job_end(failed_rank=2)
    return store


def image(backend):
    return {path: hashlib.sha256(backend.read(path)).hexdigest()
            for path in backend.list("wal/")}


def counts(backend, store):
    return (backend.write_count, backend.written_bytes, backend.fsync_count,
            store.segments_retired, store.replay_truncated_bytes)


@pytest.mark.parametrize("medium", ["memory", "disk"])
def test_the_log_image_is_pinned(medium, tmp_path):
    backend = (InMemoryStorage() if medium == "memory"
               else DiskStorage(str(tmp_path / "store")))
    store = run_scenario(backend)
    assert image(backend) == IMAGE
    assert counts(backend, store) == COUNTS
    assert store.committed_map() == {0: [2, 3, 4], 1: [2, 3, 4],
                                     2: [1, 2, 3, 4], 3: [1, 2, 3, 4]}


def test_a_short_append_lands_the_pinned_torn_image():
    medium = InMemoryStorage()
    backend = FaultyStorage(medium, [StorageFault("short_append",
                                                  after_ops=3)])
    store = run_scenario(backend)
    assert backend.injected["short_append"] == 1
    assert image(medium) == SHORT_IMAGE
    assert counts(medium, store) == SHORT_COUNTS
    assert store.committed_map() == {0: [2, 4], 1: [4],
                                     2: [1, 2, 3, 4], 3: [1, 2, 3, 4]}


@pytest.mark.parametrize("kind", [bytearray, memoryview])
def test_a_payload_mutated_after_put_section_leaves_the_log(kind):
    want = InMemoryStorage()
    store = WalStore(want)
    store.configure(1, 1)
    commit(store, 1, 0, {"app": b"checkpoint"})

    got = InMemoryStorage()
    store = WalStore(got)
    store.configure(1, 1)
    buf = bytearray(b"checkpoint")
    store.put_section(1, 0, "app", kind(buf))
    buf[:] = b"CLOBBERED!"
    assert store.read_section(1, 0, "app") == b"checkpoint"
    store.commit_line(1, 0, {"app": (10, section_digest(b"checkpoint"))})
    assert image(got) == image(want)
    assert WalStore(got).read_line(1, 0) == {"app": b"checkpoint"}
