"""The checkpoint-store contract: the commit-record codec, the verified
line read, line validation and the global last-committed queries.

The line read, validation and the line queries are written once, in
:class:`~repro.storage.store.CheckpointStore`; every contract test runs
over both engines (the scatter layout and the WAL).  Torn lines are
modelled engine-neutrally: a commit whose manifest claims other
sections, sizes or digests than the store holds.
"""

import pytest

from repro.storage import (
    InMemoryStorage, ScatterStore, StorageError, WalStore, section_digest,
)
from repro.storage.manifest import decode_commit, encode_commit
from repro.storage.wal import COMMIT, encode_record, segment_path


@pytest.fixture
def backend():
    return InMemoryStorage()


@pytest.fixture(params=["scatter", "wal"])
def store(request, backend):
    return ScatterStore(backend) if request.param == "scatter" \
        else WalStore(backend)


@pytest.fixture
def scatter(backend):
    return ScatterStore(backend)


def manifest_of(sections):
    return {name: (len(p), section_digest(p)) for name, p in sections.items()}


def write_line(store, version, rank, sections, claimed=None):
    """A committed line whose manifest describes ``claimed`` (default:
    exactly the stored ``sections`` — an intact line)."""
    for name, payload in sections.items():
        store.put_section(version, rank, name, payload)
    store.commit_line(version, rank,
                      sections=manifest_of(claimed or sections))


def commit(store, version, rank):
    """An intact one-section line."""
    write_line(store, version, rank, {"app": b"v%d" % version})


def test_paths(scatter, backend):
    write_line(scatter, 3, 1, {"app": b"abc"})
    assert backend.list() == ["ckpt/v3/rank1/COMMIT", "ckpt/v3/rank1/app"]
    _, record = encode_commit(3, 1, manifest_of({"app": b"abc"}))
    assert backend.read("ckpt/v3/rank1/COMMIT") == record


def test_commit_and_query(store):
    commit(store, 1, 0)
    commit(store, 2, 0)
    assert store.committed_versions(0) == [1, 2]
    assert store.last_committed_local(0) == 2
    assert store.last_committed_local(1) is None


def test_global_requires_all_ranks(store):
    commit(store, 1, 0)
    assert store.last_committed_global(2) is None
    commit(store, 1, 1)
    assert store.last_committed_global(2) == 1


def test_global_is_min_of_maxima(store):
    for v in (1, 2, 3):
        commit(store, v, 0)
    for v in (1, 2):
        commit(store, v, 1)
    assert store.last_committed_global(2) == 2


def test_global_with_gap_at_min(store):
    # rank 0 committed only v2 (v1 lost), rank 1 only v1: no common version
    commit(store, 2, 0)
    commit(store, 1, 1)
    assert store.last_committed_global(2) is None


def test_checkpoint_bytes_excludes_marker(store):
    write_line(store, 1, 0, {"app": b"12345", "late_registry": b"678"})
    assert store.checkpoint_bytes(1, 0) == 8


def test_checkpoint_bytes_prefers_manifest(store):
    write_line(store, 1, 0, {"app": b"12345", "late_registry": b"678"})
    # a stale section from a pre-crash attempt must not be counted
    store.put_section(1, 0, "stale_leftover", b"x" * 100)
    assert store.checkpoint_bytes(1, 0) == 8


def test_commit_codec_roundtrip():
    manifest, payload = encode_commit(3, 1, manifest_of({"app": b"abc"}))
    assert decode_commit(payload) == manifest
    assert manifest["sections"]["app"] == [3, section_digest(b"abc")]


# ---------------------------------------------------------------------------
# Crash-consistent manifests, the verified read and torn-line validation
# ---------------------------------------------------------------------------

class TestManifestValidation:
    def test_manifest_roundtrip(self, store):
        write_line(store, 3, 1, {"app": b"abc", "counters": b"defg"})
        record = store.line_manifest(3, 1)
        assert record["version"] == 3 and record["rank"] == 1
        assert set(record["sections"]) == {"app", "counters"}
        assert record["sections"]["app"][0] == 3

    def test_bare_ok_marker_is_not_a_commit(self, store, backend):
        # Commits before manifests were a bare b"ok" token.  Nothing
        # outside tests ever wrote one, so no reader is kept: the token
        # is a corrupt record and its line is invalid.
        with pytest.raises(StorageError, match="corrupt COMMIT"):
            decode_commit(b"ok")
        store.put_section(1, 0, "app", b"abc")
        if isinstance(store, WalStore):
            store.flush()
            backend.append(segment_path(0, 0),
                           encode_record(COMMIT, 1, 0, "", b"ok"))
            store = WalStore(backend)
        else:
            backend.write("ckpt/v1/rank0/COMMIT", b"ok")
        assert store.line_manifest(1, 0) is None
        assert not store.validate_line(1, 0)
        with pytest.raises(StorageError):
            store.read_line(1, 0)
        assert store.last_committed_global(1, validate=True) is None

    def test_valid_line_passes_deep_validation(self, store):
        sections = {"app": b"abc", "counters": b"defg"}
        write_line(store, 1, 0, sections)
        assert store.validate_line(1, 0)
        assert store.validate_line(1, 0, deep=True)
        assert store.read_line(1, 0) == sections

    def test_missing_section_is_torn(self, store):
        write_line(store, 1, 0, {"app": b"abc"},
                   claimed={"app": b"abc", "counters": b"defg"})
        assert not store.validate_line(1, 0)

    def test_truncated_section_is_torn(self, store):
        write_line(store, 1, 0, {"app": b"abc"}, claimed={"app": b"abcdef"})
        assert not store.validate_line(1, 0)

    def test_size_preserving_corruption_needs_deep(self, store):
        write_line(store, 1, 0, {"app": b"abcdeX"},
                   claimed={"app": b"abcdef"})
        assert store.validate_line(1, 0)            # shallow: size ok
        assert not store.validate_line(1, 0, deep=True)
        with pytest.raises(StorageError, match="digest"):
            store.read_line(1, 0)

    def test_missing_marker_is_not_committed(self, store):
        store.put_section(1, 0, "app", b"abc")
        assert not store.validate_line(1, 0)
        assert store.committed_map() == {}
        assert store.lines_on_storage() == {0: [1]}

    def test_absent_line_is_not_committed(self, store):
        write_line(store, 1, 0, {"app": b"abc"})
        assert not store.validate_line(2, 0)
        assert not store.validate_line(1, 1, deep=True)
        assert store.line_manifest(2, 0) is None
        assert store.checkpoint_bytes(2, 0) == 0

    def test_validated_local_falls_back_past_torn_line(self, store):
        write_line(store, 1, 0, {"app": b"v1"})
        write_line(store, 2, 0, {}, claimed={"app": b"v2"})  # torn newest
        assert store.last_committed_local(0) == 2   # raw scan still sees it
        with pytest.raises(StorageError):
            store.read_line(2, 0)
        assert store.read_line(1, 0) == {"app": b"v1"}

    def test_validated_global_skips_torn_lines(self, store):
        for rank in (0, 1):
            write_line(store, 1, rank, {"app": b"v1"})
        write_line(store, 2, 0, {"app": b"v2"})
        write_line(store, 2, 1, {"app": b"v"}, claimed={"app": b"v2"})
        assert store.last_committed_global(2) == 2
        assert store.last_committed_global(2, validate=True) == 1

    def test_torn_commit_marker_is_a_storage_error(self):
        # Regression (found by the fault fuzzer): a COMMIT marker torn
        # mid-write is not a parsable manifest; the deserializer's
        # IndexError used to escape raw and crash every recovery query
        # that touched the line.
        _, whole = encode_commit(1, 0, manifest_of({"app": b"abcdef"}))
        for cut in (1, len(whole) // 2, len(whole) - 1):
            with pytest.raises(StorageError, match="corrupt COMMIT"):
                decode_commit(whole[:cut])

    def test_torn_commit_marker_fails_validation_not_the_program(
            self, scatter, backend):
        write_line(scatter, 1, 0, {"app": b"v1"})
        write_line(scatter, 2, 0, {"app": b"v2"})
        marker = "ckpt/v2/rank0/COMMIT"
        backend.write(marker, backend.read(marker)[:5])
        assert not scatter.validate_line(2, 0)
        assert scatter.line_manifest(2, 0) is None
        # recovery queries fall back past the torn line instead of dying
        with pytest.raises(StorageError, match="corrupt COMMIT"):
            scatter.read_line(2, 0)
        assert scatter.read_line(1, 0) == {"app": b"v1"}
        assert scatter.last_committed_global(1, validate=True) == 1


def test_delete_line_removes_sections_and_marker(store):
    write_line(store, 1, 0, {"app": b"abc", "counters": b"d"})
    write_line(store, 2, 0, {"app": b"abc2"})
    store.delete_line(1, 0)
    assert store.lines_on_storage() == {0: [2]}
    assert store.committed_versions(0) == [2]
    store.delete_line(1, 0)  # idempotent


# ---------------------------------------------------------------------------
# Single-pass global queries (the O(nprocs x objects) restore fix)
# ---------------------------------------------------------------------------

class CountingStorage(InMemoryStorage):
    """Counts listing passes to pin the single-pass property."""

    def __init__(self):
        super().__init__()
        self.list_calls = 0

    def list(self, prefix=""):
        self.list_calls += 1
        return super().list(prefix)


def test_committed_map_single_listing_pass():
    backend = CountingStorage()
    store = ScatterStore(backend)
    for rank in range(4):
        for v in (1, 2, 3):
            commit(store, v, rank)
    backend.list_calls = 0
    cmap = store.committed_map()
    assert backend.list_calls == 1
    assert cmap == {r: [1, 2, 3] for r in range(4)}


def test_last_committed_global_256_ranks_one_pass():
    """Restore-scale micro-benchmark: the global query over a 256-rank
    store (3 lines, ~2k objects) must make exactly one listing pass —
    the old implementation re-listed and regex-scanned the whole
    namespace once per rank (512+ passes here)."""
    nprocs = 256
    backend = CountingStorage()
    store = ScatterStore(backend)
    for rank in range(nprocs):
        for v in (1, 2, 3):
            write_line(store, v, rank, {"app": b"x" * 8})
    backend.list_calls = 0
    assert store.last_committed_global(nprocs) == 3
    assert backend.list_calls == 1
    # the validated flavour adds per-line stat checks, not extra listings
    backend.list_calls = 0
    assert store.last_committed_global(nprocs, validate=True) == 3
    assert backend.list_calls == 1
