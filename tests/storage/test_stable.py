"""Storage backends."""

import random
import threading

import pytest

from repro.storage.stable import DiskStorage, InMemoryStorage, StorageError


@pytest.fixture(params=["memory", "disk"])
def backend(request, tmp_path):
    if request.param == "memory":
        return InMemoryStorage()
    return DiskStorage(str(tmp_path / "store"))


class TestBackends:
    def test_write_read(self, backend):
        backend.write("a/b/c", b"payload")
        assert backend.read("a/b/c") == b"payload"

    def test_overwrite(self, backend):
        backend.write("k", b"v1")
        backend.write("k", b"v2")
        assert backend.read("k") == b"v2"

    def test_missing_read(self, backend):
        with pytest.raises(StorageError):
            backend.read("nope")

    def test_exists(self, backend):
        assert not backend.exists("x")
        backend.write("x", b"")
        assert backend.exists("x")

    def test_delete(self, backend):
        backend.write("x", b"1")
        backend.delete("x")
        assert not backend.exists("x")
        with pytest.raises(StorageError):
            backend.delete("x")

    def test_list_prefix(self, backend):
        backend.write("ckpt/v1/rank0/app", b"1")
        backend.write("ckpt/v1/rank1/app", b"2")
        backend.write("other/file", b"3")
        assert backend.list("ckpt/v1/") == [
            "ckpt/v1/rank0/app", "ckpt/v1/rank1/app"]
        assert len(backend.list()) == 3

    def test_total_bytes(self, backend):
        backend.write("a", b"123")
        backend.write("b", b"4567")
        assert backend.total_bytes() == 7

    def test_size_without_read(self, backend):
        backend.write("a", b"12345")
        assert backend.size("a") == 5
        backend.write("a", b"")
        assert backend.size("a") == 0
        with pytest.raises(StorageError):
            backend.size("missing")


def test_memory_stats():
    s = InMemoryStorage()
    s.write("a", b"12")
    s.write("b", b"345")
    assert s.write_count == 2
    assert s.written_bytes == 5


def test_memory_list_matches_a_scan_of_every_key():
    """The sorted key index answers every prefix as the scan it
    replaced did, through random writes, appends and deletes."""
    rng = random.Random(7)
    names = [f"wal/node{n}/seg-{i:04d}" for n in range(3) for i in range(12)]
    names += ["wal/node1", "wal/node10/seg-0000", "ckpt/v1/rank0/app",
              "ckpt/v10/rank0/app", "a", "a\U0010ffff", "a\U0010ffffb", "b"]
    prefixes = ["", "wal/", "wal/node1", "wal/node1/", "wal/node0/seg-00",
                "ckpt/v1", "ckpt/v1/", "a", "a\U0010ffff", "\U0010ffff",
                "zzz", "wal/node2/seg-0011", "wal/node2/seg-00119"]
    store = InMemoryStorage()
    model = {}
    for _ in range(600):
        name = rng.choice(names)
        op = rng.random()
        if op < 0.4:
            store.write(name, b"w")
            model[name] = True
        elif op < 0.7:
            store.append(name, [b"a", b"b"])
            model[name] = True
        elif name in model:
            store.delete(name)
            del model[name]
        for prefix in prefixes:
            scan = sorted(p for p in model if p.startswith(prefix))
            assert store.list(prefix) == scan, prefix


def test_disk_path_escape_rejected(tmp_path):
    s = DiskStorage(str(tmp_path / "root"))
    with pytest.raises(StorageError):
        s.write("../evil", b"x")
    with pytest.raises(StorageError):
        s.write("/abs", b"x")


def test_disk_storage_survives_reopen(tmp_path):
    root = str(tmp_path / "store")
    DiskStorage(root).write("k", b"persisted")
    assert DiskStorage(root).read("k") == b"persisted"


def test_disk_concurrent_writers_are_atomic(tmp_path):
    """Regression: ``write`` used to hold a backend-global mutex across
    ``fsync``, serializing every concurrent rank's commit — and a shared
    fixed ``.tmp`` name would have let parallel writers corrupt each
    other.  With unique temp names + atomic ``os.replace``, N threads
    hammering overlapping keys must leave every key holding exactly one
    complete payload, with no temp debris."""
    store = DiskStorage(str(tmp_path / "store"))
    nthreads, nwrites, nkeys = 8, 40, 5
    errors = []

    def writer(tid):
        try:
            for i in range(nwrites):
                key = f"ckpt/k{i % nkeys}"
                store.write(key, f"payload-{tid}-{i}".encode() * 50)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(t,))
               for t in range(nthreads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for i in range(nkeys):
        data = store.read(f"ckpt/k{i}")
        # one complete write won, never an interleaving or a torn file:
        # each write is one unit repeated 50x
        assert len(data) % 50 == 0
        unit = data[:len(data) // 50]
        assert unit.startswith(b"payload-")
        assert data == unit * 50
    # no leftover temp files on disk, and list() never reports them
    assert not [p for p in store.list() if p.endswith(".tmp")]
    import os
    leftovers = [f for _, _, files in os.walk(store.root)
                 for f in files if f.endswith(".tmp")]
    assert leftovers == []


def test_disk_reader_sees_old_or_new_payload(tmp_path):
    """Readers racing a writer observe a complete payload (atomic
    replace), never a partial one."""
    store = DiskStorage(str(tmp_path / "store"))
    a, b = b"A" * 4096, b"B" * 4096
    store.write("k", a)
    stop = threading.Event()
    bad = []

    def reader():
        while not stop.is_set():
            data = store.read("k")
            if data != a and data != b:
                bad.append(len(data))

    t = threading.Thread(target=reader)
    t.start()
    for _ in range(200):
        store.write("k", b)
        store.write("k", a)
    stop.set()
    t.join()
    assert bad == []
