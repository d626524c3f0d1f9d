"""Path-prefix namespace wrapper: isolation, escapes, delegation."""

from __future__ import annotations

import pytest

from repro.storage import (
    InMemoryStorage, StorageError, WalStore, section_digest,
)
from repro.storage.namespace import PrefixBackend, tenant_backend


class TestPrefixMapping:
    def test_writes_land_under_the_prefix(self, storage):
        ns = PrefixBackend(storage, "tenants/alice")
        ns.write("ckpt/a", b"payload")
        assert storage.read("tenants/alice/ckpt/a") == b"payload"
        assert ns.read("ckpt/a") == b"payload"

    def test_list_strips_the_prefix(self, storage):
        ns = PrefixBackend(storage, "tenants/alice")
        ns.write("ckpt/a", b"1")
        ns.write("ckpt/b", b"2")
        storage.write("tenants/bob/ckpt/a", b"3")
        assert ns.list("ckpt/") == ["ckpt/a", "ckpt/b"]
        # partial-name prefixes keep their startswith semantics
        assert ns.list("ckpt/a") == ["ckpt/a"]

    def test_size_exists_delete(self, storage):
        ns = PrefixBackend(storage, "ns")
        ns.write("x", b"12345")
        assert ns.exists("x") and ns.size("x") == 5
        ns.delete("x")
        assert not ns.exists("x")
        assert not storage.exists("ns/x")

    def test_append_stream_api_delegates(self, storage):
        ns = PrefixBackend(storage, "ns")
        assert ns.append("log", b"aaaa") == 0
        assert ns.append("log", b"bb") == 4
        ns.sync("log")
        assert ns.read_range("log", 2, 3) == b"aab"
        assert storage.read("ns/log") == b"aaaabb"

    def test_total_bytes_confined_to_namespace(self, storage):
        ns = PrefixBackend(storage, "ns")
        ns.write("a", b"123")
        storage.write("elsewhere", b"xxxxxxxx")
        assert ns.total_bytes() == 3


class TestIsolation:
    def test_tenants_cannot_see_each_other(self, storage):
        alice = tenant_backend(storage, "alice")
        bob = tenant_backend(storage, "bob")
        alice.write("secret", b"a-bytes")
        assert not bob.exists("secret")
        with pytest.raises(StorageError):
            bob.read("secret")
        assert bob.list() == []

    def test_dotdot_cannot_escape_the_namespace(self, storage):
        storage.write("other/victim", b"v")
        ns = PrefixBackend(storage, "ns")
        with pytest.raises(StorageError):
            ns.read("../other/victim")
        with pytest.raises(StorageError):
            ns.write("../../other/victim", b"clobbered")
        assert storage.read("other/victim") == b"v"

    def test_interior_dotdot_stays_inside(self, storage):
        ns = PrefixBackend(storage, "ns")
        ns.write("a/../b", b"1")   # normalizes to ns/b
        assert storage.read("ns/b") == b"1"

    def test_tenant_name_validation(self, storage):
        for bad in ("", ".", "..", "a/b", "../a"):
            with pytest.raises(ValueError):
                tenant_backend(storage, bad)


class TestAccountingAndLayering:
    def test_wrapper_keeps_its_own_counters(self, storage):
        ns = PrefixBackend(storage, "ns")
        storage.write("outside", b"123456")
        ns.write("a", b"1234")
        ns.append("log", b"xy")
        ns.sync("log")
        ns.read("a")
        assert ns.write_count == 2
        assert ns.written_bytes == 6
        assert ns.fsync_count == 2      # one atomic write + one sync
        assert ns.read_count == 1
        # the inner backend still counts the aggregate
        assert storage.write_count == 3

    def test_shared_across_fork_delegates(self, storage, tmp_path):
        from repro.storage import DiskStorage
        assert PrefixBackend(storage, "ns").shared_across_fork is False
        disk = DiskStorage(str(tmp_path / "root"))
        assert PrefixBackend(disk, "ns").shared_across_fork is True

    def test_wal_store_over_a_namespace(self, storage):
        """The WAL engine runs unmodified over a namespaced backend."""
        ns = PrefixBackend(storage, "tenants/alice")
        wal = WalStore(ns)
        wal.configure(nprocs=1)
        wal.put_section(1, 0, "state", b"state-bytes")
        wal.commit_line(1, 0, sections={
            "state": (11, section_digest(b"state-bytes"))})
        wal.flush()
        assert wal.last_committed_global(1) == 1
        # every byte the WAL wrote is confined to the namespace
        assert storage.list("tenants/alice/")
        assert all(p.startswith("tenants/alice/")
                   for p in storage.list(""))
