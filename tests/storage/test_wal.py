"""The log-structured checkpoint store (DESIGN.md §8).

Record codec, group-commit durability and fsync discipline, segment
retirement, crash semantics (torn tails), replay recovery —
including randomized torn / short / bit-flipped segment tails, which
must truncate cleanly at replay and fall back to the prior committed
line bitwise — and parity with the scatter layout as the differential
oracle.
"""

import random
import zlib

import pytest

from repro.storage.manifest import section_digest
from repro.storage.stable import (
    DiskStorage, InMemoryStorage, StorageError,
)
from repro.storage.store import ScatterStore, as_store
from repro.storage.wal import (
    COMMIT, DELETE, HEADER_LEN, SECTION, WalStore, decode_record,
    encode_record, segment_path,
)


@pytest.fixture(params=["memory", "disk"])
def backend(request, tmp_path):
    if request.param == "memory":
        return InMemoryStorage()
    return DiskStorage(str(tmp_path / "wal-store"))


def manifest_for(payloads):
    return {name: (len(p), section_digest(p)) for name, p in payloads.items()}


def write_line(store, version, rank, payloads):
    for name, payload in payloads.items():
        store.put_section(version, rank, name, payload)
    store.commit_line(version, rank, sections=manifest_for(payloads))


def payload_of(version, rank, n=96):
    return bytes(((version * 37 + rank * 11 + i) % 256) for i in range(n))


def record_starts(data, off):
    """Offsets of the intact records from ``off`` to the end of ``data``."""
    starts = set()
    while off < len(data):
        starts.add(off)
        off += decode_record(data, off)[5]
    return starts


# ---------------------------------------------------------------------------
# Record codec
# ---------------------------------------------------------------------------

class TestRecordCodec:
    def test_roundtrip(self):
        rec = encode_record(SECTION, 7, 3, "state", b"payload-bytes")
        decoded = decode_record(rec, 0)
        assert decoded == (SECTION, 7, 3, "state", b"payload-bytes",
                           len(rec))

    def test_roundtrip_at_offset(self):
        a = encode_record(COMMIT, 1, 0, "", b"m1")
        b = encode_record(DELETE, 2, 1, "", b"")
        buf = a + b
        assert decode_record(buf, len(a))[:5] == (DELETE, 2, 1, "", b"")

    def test_empty_name_and_payload(self):
        rec = encode_record(DELETE, 1, 0, "", b"")
        assert decode_record(rec, 0)[:5] == (DELETE, 1, 0, "", b"")

    @pytest.mark.parametrize("cut", [1, HEADER_LEN - 1, HEADER_LEN,
                                     HEADER_LEN + 2])
    def test_truncated_record_is_torn(self, cut):
        rec = encode_record(SECTION, 1, 0, "state", b"0123456789")
        assert cut < len(rec)
        assert decode_record(rec[:cut], 0) is None

    def test_bad_magic_is_torn(self):
        rec = bytearray(encode_record(SECTION, 1, 0, "s", b"x"))
        rec[0] ^= 0xFF
        assert decode_record(bytes(rec), 0) is None

    def test_unknown_rtype_is_torn(self):
        rec = bytearray(encode_record(SECTION, 1, 0, "s", b"x"))
        rec[4] = 99
        assert decode_record(bytes(rec), 0) is None

    def test_any_single_bit_flip_is_torn(self):
        rec = encode_record(SECTION, 5, 2, "state", b"payload")
        rng = random.Random(1234)
        for _ in range(64):
            pos = rng.randrange(len(rec))
            flipped = bytearray(rec)
            flipped[pos] ^= 1 << rng.randrange(8)
            assert decode_record(bytes(flipped), 0) is None, (
                f"bit flip at byte {pos} went undetected")


# ---------------------------------------------------------------------------
# Group commit: durability boundary and fsync discipline
# ---------------------------------------------------------------------------

class TestGroupCommit:
    def test_commit_not_durable_until_group_complete(self, backend):
        store = WalStore(backend)
        store.configure(4, procs_per_node=2)
        write_line(store, 1, 0, {"state": payload_of(1, 0)})
        # rank 1 (same node) has not committed: nothing synced, rank 0's
        # commit is staged only
        assert backend.fsync_count == 0
        assert store.committed_map() == {}
        assert store.last_committed_local(0) is None
        # the staged payload is still readable through the store
        assert store.read_section(1, 0, "state") == payload_of(1, 0)
        write_line(store, 1, 1, {"state": payload_of(1, 1)})
        # group complete -> one batched append+sync for node 0
        assert backend.fsync_count == 1
        assert store.committed_map() == {0: [1], 1: [1]}

    def test_one_fsync_per_node_per_line(self, backend):
        nprocs, lines, ppn = 4, 5, 2
        store = WalStore(backend)
        store.configure(nprocs, procs_per_node=ppn)
        for v in range(1, lines + 1):
            for r in range(nprocs):
                write_line(store, v, r, {"state": payload_of(v, r)})
        nodes = nprocs // ppn
        assert backend.fsync_count == nodes * lines
        assert store.group_commits == nodes * lines
        assert store.last_committed_global(nprocs, validate=True) == lines

    def test_scatter_pays_per_object_wal_per_group(self, backend):
        # the engine's reason to exist, pinned at the unit level
        scatter = ScatterStore(type(backend)(
            str(backend.root) + "-scatter") if isinstance(
                backend, DiskStorage) else InMemoryStorage())
        wal = WalStore(backend)
        wal.configure(4, procs_per_node=4)
        for store in (scatter, wal):
            for r in range(4):
                write_line(store, 1, r,
                           {"a": payload_of(1, r), "b": payload_of(2, r)})
        # scatter: 2 sections + 1 marker per rank, one fsync each
        assert scatter.backend.fsync_count == 4 * 3
        assert wal.backend.fsync_count == 1

    def test_flush_makes_partial_group_durable(self, backend):
        store = WalStore(backend)
        store.configure(4, procs_per_node=4)
        write_line(store, 1, 0, {"state": payload_of(1, 0)})
        assert store.committed_map() == {}
        store.flush()
        assert store.committed_map() == {0: [1]}
        assert backend.fsync_count == 1

    def test_flush_rank_touches_only_its_node(self, backend):
        store = WalStore(backend)
        store.configure(4, procs_per_node=2)
        write_line(store, 1, 0, {"state": payload_of(1, 0)})
        write_line(store, 1, 2, {"state": payload_of(1, 2)})
        store.flush_rank(2)  # node 1
        assert store.committed_map() == {2: [1]}
        assert backend.fsync_count == 1

    def test_uneven_last_node_group_size(self, backend):
        # 5 ranks at ppn=2: node 2 holds only rank 4, so its group
        # commits complete with a single rank
        store = WalStore(backend)
        store.configure(5, procs_per_node=2)
        write_line(store, 1, 4, {"state": payload_of(1, 4)})
        assert store.committed_map() == {4: [1]}

    def test_commit_hook_fires_before_flush_decision(self, backend):
        store = WalStore(backend)
        store.configure(2, procs_per_node=2)
        seen = []
        store.commit_hooks[1] = lambda v: seen.append(
            (v, backend.fsync_count))
        write_line(store, 1, 0, {"state": payload_of(1, 0)})
        write_line(store, 1, 1, {"state": payload_of(1, 1)})
        # the hook observed the COMMIT record staged but nothing durable
        assert seen == [(1, 0)]
        assert backend.fsync_count == 1


# ---------------------------------------------------------------------------
# Reads, validation, global queries
# ---------------------------------------------------------------------------

class TestReadPath:
    def test_read_validate_sizes(self, backend):
        store = WalStore(backend)
        store.configure(2, procs_per_node=1)
        payloads = {"state": payload_of(1, 0), "heap": payload_of(9, 9, 300)}
        write_line(store, 1, 0, payloads)
        for name, p in payloads.items():
            assert store.read_section(1, 0, name) == p
        with pytest.raises(StorageError):
            store.read_section(1, 0, "absent")
        assert store.read_line(1, 0) == payloads
        assert store.validate_line(1, 0, deep=True)
        assert not store.validate_line(2, 0)
        m = store.line_manifest(1, 0)
        assert m["version"] == 1 and set(m["sections"]) == set(payloads)
        assert store.checkpoint_bytes(1, 0) == sum(
            len(p) for p in payloads.values())

    def test_rewritten_section_reads_latest(self, backend):
        store = WalStore(backend)
        store.configure(1, procs_per_node=1)
        store.put_section(1, 0, "state", b"old")
        store.put_section(1, 0, "state", b"newer")
        store.commit_line(1, 0, sections={"state": (5,
                                                    section_digest(b"newer"))})
        assert store.read_section(1, 0, "state") == b"newer"
        assert store.validate_line(1, 0, deep=True)


# ---------------------------------------------------------------------------
# GC: tombstones, segment retirement
# ---------------------------------------------------------------------------

class TestSegmentGC:
    def test_deleted_line_disappears_from_queries(self, backend):
        store = WalStore(backend)
        store.configure(2, procs_per_node=2)
        for v in (1, 2):
            for r in range(2):
                write_line(store, v, r, {"state": payload_of(v, r)})
        for r in range(2):
            store.delete_line(1, r)
        assert store.committed_map() == {0: [2], 1: [2]}
        assert store.lines_on_storage() == {0: [2], 1: [2]}
        with pytest.raises(StorageError):
            store.read_section(1, 0, "state")

    def test_delete_missing_line_is_noop(self, backend):
        store = WalStore(backend)
        store.configure(1, procs_per_node=1)
        before = backend.write_count
        store.delete_line(42, 0)
        assert backend.write_count == before

    def test_dead_segments_are_unlinked(self, backend):
        # tiny segments: every line rolls the active segment, so GC'd
        # lines leave fully-dead sealed segments behind to retire
        store = WalStore(backend, segment_target_bytes=64)
        store.configure(1, procs_per_node=1)
        for v in range(1, 9):
            write_line(store, v, 0, {"state": payload_of(v, 0)})
            for old in range(1, v - 1):
                store.delete_line(old, 0)
        store.flush()
        assert store.segments_retired > 0
        live = store.lines_on_storage()[0]
        assert live == [7, 8]
        # the backend only holds the segments the index still references
        assert set(backend.list("wal/")) == set(store.segment_names())
        # steady state: <= 2 live lines of storage per rank
        reopened = WalStore(backend)
        assert reopened.lines_on_storage() == {0: [7, 8]}

    def test_partly_dead_segment_is_kept_whole(self, backend):
        # roll after every group commit: each line-pair seals its own
        # segment.  Rank 0's payload dwarfs rank 1's, so deleting rank
        # 0's first line leaves that segment mostly dead: it is kept
        # byte for byte, never rewritten, and is unlinked by the flush
        # that kills rank 1's line too.
        store = WalStore(backend, segment_target_bytes=1)
        store.configure(2, procs_per_node=2)
        for v in (1, 2):
            write_line(store, v, 0, {"state": payload_of(v, 0, 1000)})
            write_line(store, v, 1, {"state": payload_of(v, 1, 100)})
        first = segment_path(0, 0)
        sealed = backend.read(first)
        written = backend.written_bytes
        store.delete_line(1, 0)
        store.flush()
        assert backend.read(first) == sealed
        assert store.segments_retired == 0
        # only the tombstone was written
        assert backend.written_bytes - written == HEADER_LEN
        assert store.read_section(1, 1, "state") == payload_of(1, 1, 100)
        assert store.validate_line(1, 1, deep=True)
        store.delete_line(1, 1)
        store.flush()
        # the segment, then the two sealed since that hold only its
        # tombstones, spent with it
        assert not backend.exists(first)
        assert store.segments_retired == 3
        assert set(backend.list("wal/")) == set(store.segment_names())
        reopened = WalStore(backend)
        assert reopened.lines_on_storage() == {0: [2], 1: [2]}

    def test_a_long_run_keeps_two_segments_per_node(self, backend):
        # tombstones spend themselves once their line has no record
        # outside their own segment: without that rule every segment
        # holding a tombstone would pin the next one, and the log would
        # grow with the run
        store = WalStore(backend)
        store.configure(4, procs_per_node=2)
        for v in range(1, 3001):
            for r in range(4):
                write_line(store, v, r, {"state": payload_of(v, r, 300)})
            if v > 2:
                for r in range(4):
                    store.delete_line(v - 2, r)
        store.flush()
        nodes = {}
        for path in backend.list("wal/"):
            nodes.setdefault(path.split("/")[1], []).append(path)
        assert sorted(nodes) == ["node0000", "node0001"]
        assert all(len(segs) <= 2 for segs in nodes.values()), nodes
        reopened = WalStore(backend)
        assert reopened.lines_on_storage() == {
            r: [2999, 3000] for r in range(4)}

    def test_each_section_byte_is_written_once(self, backend):
        # lines die in commit order, four to a segment: no live record is
        # ever re-appended, so the medium takes little more than the
        # section bytes plus record framing and manifests
        store = WalStore(backend)
        store.configure(2, procs_per_node=2)
        handed = 0
        for v in range(1, 25):
            for r in range(2):
                data = payload_of(v, r, 40 << 10)
                handed += len(data)
                write_line(store, v, r, {"state": data})
            if v > 2:
                for r in range(2):
                    store.delete_line(v - 2, r)
        store.flush()
        assert store.segments_retired > 0
        assert backend.written_bytes <= 1.05 * handed

    def test_retirement_survives_reopen(self, tmp_path):
        backend = DiskStorage(str(tmp_path / "gc"))
        store = WalStore(backend, segment_target_bytes=64)
        store.configure(2, procs_per_node=2)
        for v in range(1, 7):
            for r in range(2):
                write_line(store, v, r, {"state": payload_of(v, r)})
            if v > 2:
                for r in range(2):
                    store.delete_line(v - 2, r)
        store.flush()
        reopened = WalStore(backend)
        reopened.configure(2, procs_per_node=2)
        assert reopened.last_committed_global(2, validate=True) == 6
        assert reopened.lines_on_storage() == {0: [5, 6], 1: [5, 6]}
        for v, r in ((5, 0), (5, 1), (6, 0), (6, 1)):
            assert reopened.read_section(v, r, "state") == payload_of(v, r)


# ---------------------------------------------------------------------------
# Crash semantics and replay
# ---------------------------------------------------------------------------

class TestCrashReplay:
    def test_clean_reopen_is_bitwise(self, tmp_path):
        backend = DiskStorage(str(tmp_path / "wal"))
        store = WalStore(backend)
        store.configure(4, procs_per_node=2)
        for v in (1, 2, 3):
            for r in range(4):
                write_line(store, v, r, {"state": payload_of(v, r)})
        reopened = WalStore(backend)
        reopened.configure(4, procs_per_node=2)
        assert reopened.last_committed_global(4, validate=True) == 3
        for v in (1, 2, 3):
            for r in range(4):
                assert reopened.read_section(v, r, "state") == \
                    payload_of(v, r)
        assert reopened.replays == 1

    def test_crash_loses_staged_tail_and_tears_last_record(self, backend):
        store = WalStore(backend)
        store.configure(4, procs_per_node=2)
        for r in range(4):
            write_line(store, 1, r, {"state": payload_of(1, r)})
        # line 2: node 0 completes its group; node 1 (ranks 2,3) has
        # only rank 2's records staged when rank 2 dies
        write_line(store, 2, 0, {"state": payload_of(2, 0)})
        write_line(store, 2, 1, {"state": payload_of(2, 1)})
        write_line(store, 2, 2, {"state": payload_of(2, 2)})
        store.on_job_end(failed_rank=2)
        # the torn tail was truncated: rank 2's line-2 commit never
        # became durable, so the global recovery line is 1
        assert store.last_committed_global(4, validate=True) == 1
        assert store.committed_map()[0] == [1, 2]
        assert 2 not in store.committed_map().get(2, [])
        assert store.replay_truncated_bytes > 0
        # survivors' lines remain bitwise intact
        for r in range(4):
            assert store.read_section(1, r, "state") == payload_of(1, r)

    def test_crash_with_nothing_staged_keeps_index(self, backend):
        store = WalStore(backend)
        store.configure(2, procs_per_node=1)
        for r in range(2):
            write_line(store, 1, r, {"state": payload_of(1, r)})
        store.on_job_end(failed_rank=1)
        assert store.last_committed_global(2, validate=True) == 1

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("mode", ["torn", "bitflip", "garbage"])
    def test_randomized_damaged_tail_falls_back_bitwise(
            self, tmp_path, seed, mode):
        """Satellite 4: randomized torn / short / bit-flipped tails.

        Lines 1-3 are durable; line 4's records then land and the
        segment tail covering them is damaged at a random point.  Replay
        must truncate cleanly at the damage, drop line 4, and serve
        lines 1-3 bitwise.
        """
        rng = random.Random(seed * 1009 + zlib.crc32(mode.encode()) % 1000)
        backend = DiskStorage(str(tmp_path / "wal"))
        store = WalStore(backend)
        nprocs = 2
        store.configure(nprocs, procs_per_node=nprocs)  # one node, one seg
        for v in (1, 2, 3):
            for r in range(nprocs):
                write_line(store, v, r, {"state": payload_of(v, r)})
        seg = segment_path(0, 0)
        safe_len = backend.size(seg)
        for r in range(nprocs):
            write_line(store, 4, r, {"state": payload_of(4, r)})
        data = backend.read(seg)
        assert len(data) > safe_len
        # damage a random point inside line 4's byte range
        pos = rng.randrange(safe_len, len(data))
        if mode == "torn":
            damaged = data[:pos]                      # short write
        elif mode == "bitflip":
            buf = bytearray(data)
            buf[pos] ^= 1 << rng.randrange(8)         # media corruption
            damaged = bytes(buf)
        else:
            tail = bytes(rng.randrange(256) for _ in range(23))
            damaged = data[:pos] + tail               # garbage tail
        backend.write(seg, damaged)

        recovered = WalStore(backend)
        recovered.configure(nprocs, procs_per_node=nprocs)
        assert recovered.last_committed_global(nprocs, validate=True) == 3
        for v in (1, 2, 3):
            for r in range(nprocs):
                assert recovered.read_section(v, r, "state") == \
                    payload_of(v, r), f"line {v} rank {r} not bitwise"
        if mode == "torn" and pos in record_starts(data, safe_len):
            # cut exactly between two records: nothing is torn, the
            # log just ends early, before line 4's last commit
            assert recovered.replay_truncated_bytes == 0
            assert 4 not in recovered.committed_map().get(nprocs - 1, [])
        else:
            assert recovered.replay_truncated_bytes > 0
        # the damage was physically truncated: the segment ends at a
        # record boundary within the valid prefix, so a further reopen
        # replays to the same index with nothing left to truncate
        again = WalStore(backend)
        again.configure(nprocs, procs_per_node=nprocs)
        assert again.replay_truncated_bytes == 0
        assert again.last_committed_global(nprocs, validate=True) == 3

    def test_a_torn_tail_is_cut_to_its_valid_prefix(self, backend):
        """Replay cuts the torn tail in place: the file is its valid
        prefix byte for byte, and the cut is one write and one fsync of
        no bytes."""
        store = WalStore(backend)
        store.configure(1, procs_per_node=1)
        for v in (1, 2):
            write_line(store, v, 0, {"state": payload_of(v, 0, 4096)})
        seg = segment_path(0, 0)
        valid = backend.read(seg)
        record = encode_record(SECTION, 3, 0, "state", payload_of(3, 0, 4096))
        backend.append(seg, record[:len(record) // 2])
        before = (backend.write_count, backend.written_bytes,
                  backend.fsync_count)
        recovered = WalStore(backend)
        assert backend.read(seg) == valid
        assert recovered.replay_truncated_bytes == len(record) // 2
        assert (backend.write_count, backend.written_bytes,
                backend.fsync_count) == (before[0] + 1, before[1],
                                         before[2] + 1)
        assert recovered.committed_map() == {0: [1, 2]}

    def test_fully_corrupt_first_record_drops_segment(self, tmp_path):
        backend = DiskStorage(str(tmp_path / "wal"))
        store = WalStore(backend)
        store.configure(1, procs_per_node=1)
        write_line(store, 1, 0, {"state": payload_of(1, 0)})
        seg = segment_path(0, 0)
        data = bytearray(backend.read(seg))
        data[0] ^= 0xFF
        backend.write(seg, bytes(data))
        recovered = WalStore(backend)
        assert recovered.committed_map() == {}
        assert not backend.exists(seg)  # empty valid prefix: unlinked


# ---------------------------------------------------------------------------
# Store-layer parity and normalization
# ---------------------------------------------------------------------------

class TestStoreParity:
    def test_wal_matches_scatter_oracle(self, backend):
        scatter = ScatterStore(InMemoryStorage())
        wal = WalStore(backend)
        wal.configure(3, procs_per_node=2)
        for store in (scatter, wal):
            for v in (1, 2, 3):
                for r in range(3):
                    write_line(store, v, r, {"state": payload_of(v, r),
                                             "heap": payload_of(v + 5, r)})
            for r in range(3):
                store.delete_line(1, r)
            store.flush()
        assert wal.committed_map() == scatter.committed_map()
        assert wal.lines_on_storage() == scatter.lines_on_storage()
        assert (wal.last_committed_global(3, validate=True)
                == scatter.last_committed_global(3, validate=True) == 3)
        for v in (2, 3):
            for r in range(3):
                for name in ("state", "heap"):
                    assert (wal.read_section(v, r, name)
                            == scatter.read_section(v, r, name))
                assert (wal.checkpoint_bytes(v, r)
                        == scatter.checkpoint_bytes(v, r))

    def test_as_store_auto_detects_wal_layout(self, backend):
        store = WalStore(backend)
        store.configure(2, procs_per_node=2)
        for r in range(2):
            write_line(store, 1, r, {"state": payload_of(1, r)})
        opened = as_store(backend, procs_per_node=2, nprocs=2)
        assert isinstance(opened, WalStore)
        assert opened.last_committed_global(2, validate=True) == 1

    def test_as_store_wraps_empty_backend_as_scatter(self):
        assert isinstance(as_store(InMemoryStorage()), ScatterStore)

    def test_as_store_passes_stores_through(self, backend):
        store = WalStore(backend)
        assert as_store(store, procs_per_node=2, nprocs=4) is store
        assert store._procs_per_node == 2
