"""The WAL's on-disk bytes, pinned.

Records and segments written before the zero-copy record path must read
back unchanged: the record codec is pinned to captured hex, and a
captured segment image (two ranks on one node, two lines, the first
deleted) must replay to the same index and manifests.  Its manifests
hold BLAKE2b section digests, the format before SHA-256/128, so its
lines fail verification by design.  Backends must copy what they keep
of an ``append``: the WAL hands them its staging buffer and reuses it.
"""

import pytest

from repro.storage.faulty import FaultyStorage
from repro.storage.manifest import section_digest
from repro.storage.stable import DiskStorage, InMemoryStorage, StorageError
from repro.storage.wal import (
    COMMIT, SECTION, WalStore, decode_record, encode_record,
)

#: ``encode_record(SECTION, 7, 3, "state", b"payload-bytes")``
SECTION_HEX = ("5752454301050003000000070000000d000000d7a2d8ce7374617465"
               "7061796c6f61642d6279746573")
#: ``encode_record(COMMIT, 9, 1, "", bytes(5))``
COMMIT_HEX = "5752454302000001000000090000000500000037dd12ac0000000000"

#: ``wal/node0000/seg00000000`` of :func:`write_sample` under BLAKE2b-128
#: section digests
SEGMENT_HEX = (
    "575245430103000000000001000000050000007d636aad617070616c70686157524543"
    "0103000000000001000000020000001e3a5cac7265670001575245430200000000000001"
    "0000007d0000006fbf438e4333424e01000906050e76657273696f6e0202050872616e6b"
    "0200051073656374696f6e73090405066170700704020a05406235326637653534636433"
    "313365363931313438636332633830333435383331050672656707040204054030663136"
    "666562373765336331323962643862643463343339663132656264315752454301030001"
    "000000010000000400000074fd39146170706265746157524543020000010000000100"
    "000052000000837ba0304333424e01000906050e76657273696f6e0202050872616e6b02"
    "02051073656374696f6e7309020506617070070402080540336662636233323133613630"
    "666532386332396563343238333034326336653257524543010300000000000200000005"
    "000000943e019061707067616d6d615752454302000000000000020000005200000019b6"
    "d01d4333424e01000906050e76657273696f6e0204050872616e6b020005107365637469"
    "6f6e73090205066170700704020a05403161643136383166663538623437383937383438"
    "373933313531636234356431575245430103000100000002000000050000007a2b66a761"
    "707064656c7461575245430200000100000002000000520000000a3f91d84333424e0100"
    "0906050e76657273696f6e0204050872616e6b0202051073656374696f6e730902050661"
    "70700704020a05403766653337393266626464393337363734626532323165643033303"
    "733396461575245430300000000000001000000000000006a730f2c5752454303000001"
    "0000000100000000000000053faab7")
SEGMENT = "wal/node0000/seg00000000"


def write_sample(store):
    """Two ranks on one node commit v1 and v2; v1 is then deleted."""
    store.configure(2, 2)
    lines = [(1, 0, {"app": b"alpha", "reg": b"\x00\x01"}),
             (1, 1, {"app": b"beta"}),
             (2, 0, {"app": b"gamma"}),
             (2, 1, {"app": b"delta"})]
    for version, rank, sections in lines:
        for name, payload in sections.items():
            store.put_section(version, rank, name, payload)
        store.commit_line(version, rank, {
            name: (len(p), section_digest(p)) for name, p in sections.items()})
    store.delete_line(1, 0)
    store.delete_line(1, 1)
    store.flush()


def layout(data):
    """Each record's ``(rtype, version, rank, name, total_length)``."""
    out, off = [], 0
    while off < len(data):
        rtype, version, rank, name, _payload, total = decode_record(data, off)
        out.append((rtype, version, rank, name, total))
        off += total
    return out


def test_section_digest_is_sha256_truncated_to_128_bits():
    assert section_digest(b"abc") == "ba7816bf8f01cfea414140de5dae2223"
    assert len(section_digest(bytes(1 << 20))) == 32


def test_record_codec_bytes_are_pinned():
    assert encode_record(SECTION, 7, 3, "state",
                         b"payload-bytes").hex() == SECTION_HEX
    assert encode_record(COMMIT, 9, 1, "", bytes(5)).hex() == COMMIT_HEX
    assert decode_record(bytes.fromhex(SECTION_HEX), 0) == (
        SECTION, 7, 3, "state", b"payload-bytes", len(SECTION_HEX) // 2)


def test_a_captured_segment_replays_to_the_same_index_and_manifests():
    backend = InMemoryStorage()
    backend.write(SEGMENT, bytes.fromhex(SEGMENT_HEX))
    store = WalStore(backend)
    assert store.replay_truncated_bytes == 0
    assert store.segment_names() == [SEGMENT]
    assert store.committed_map() == {0: [2], 1: [2]}
    assert store.lines_on_storage() == {0: [2], 1: [2]}
    assert store.line_manifest(2, 0) == {
        "version": 2, "rank": 0,
        "sections": {"app": [5, "1ad1681ff58b47897848793151cb45d1"]}}
    assert store.line_manifest(2, 1) == {
        "version": 2, "rank": 1,
        "sections": {"app": [5, "7fe3792fbdd937674be221ed030739da"]}}
    assert store.read_section(2, 0, "app") == b"gamma"
    assert store.read_section(2, 1, "app") == b"delta"
    assert store.validate_line(2, 0) and store.checkpoint_bytes(2, 1) == 5


def test_a_line_with_an_old_blake2b_digest_fails_read_line():
    backend = InMemoryStorage()
    backend.write(SEGMENT, bytes.fromhex(SEGMENT_HEX))
    store = WalStore(backend)
    for rank in (0, 1):
        with pytest.raises(StorageError, match="fails its digest"):
            store.read_line(2, rank)
        assert not store.validate_line(2, rank, deep=True)


def test_the_same_writes_keep_every_record_length():
    """Only the digest text inside the manifests differs from the
    captured image: every record keeps its type, owner and length."""
    backend = InMemoryStorage()
    write_sample(WalStore(backend))
    data = backend.read(SEGMENT)
    assert backend.list("wal/") == [SEGMENT]
    assert layout(data) == layout(bytes.fromhex(SEGMENT_HEX))
    store = WalStore(backend)
    assert store.read_line(2, 0) == {"app": b"gamma"}
    assert store.read_line(2, 1) == {"app": b"delta"}


@pytest.fixture(params=["memory", "disk", "faulty"])
def backend(request, tmp_path):
    if request.param == "memory":
        return InMemoryStorage()
    if request.param == "disk":
        return DiskStorage(str(tmp_path / "store"))
    return FaultyStorage(InMemoryStorage())


def test_append_keeps_a_copy_of_a_buffer_the_caller_reuses(backend):
    buf = bytearray(b"first-batch")
    assert backend.append("wal/node0000/seg00000000", buf) == 0
    buf.clear()
    buf += b"SECOND"
    assert backend.append("wal/node0000/seg00000000", buf) == 11
    buf[:] = b"xxxxxx"
    backend.sync("wal/node0000/seg00000000")
    assert backend.read("wal/node0000/seg00000000") == b"first-batchSECOND"
    assert backend.read_range("wal/node0000/seg00000000", 5, 8) == b"-batchSE"
