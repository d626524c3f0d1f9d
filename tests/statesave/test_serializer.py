"""Checkpoint serialization: the one checkpoint format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as npst

from repro.core.reqtable import RequestTable
from repro.statesave import Context
from repro.statesave.serializer import (
    MAGIC_BINARY, SerializationError, Serializer, _pack_varint, dumps, loads,
)
from repro.storage.manifest import encode_commit
from repro.testutil import run


class TestScalars:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 12345678901234567890, -2**70,
        0.0, 3.14159, float("inf"), 1 + 2j, "", "hello", "ünïcødé",
        b"", b"\x00\xff" * 10,
    ])
    def test_roundtrip(self, value):
        got = loads(dumps(value))
        assert got == value
        assert type(got) is type(value)

    def test_nan(self):
        got = loads(dumps(float("nan")))
        assert got != got  # NaN


class TestContainers:
    def test_nested(self):
        value = {"a": [1, 2, (3, "x")], "b": {"c": b"bytes"},
                 (1, 2): None, 7: [True]}
        assert loads(dumps(value)) == value

    def test_list_vs_tuple_preserved(self):
        assert loads(dumps([1, 2])) == [1, 2]
        assert loads(dumps((1, 2))) == (1, 2)
        assert isinstance(loads(dumps((1,))), tuple)

    def test_empty_containers(self):
        assert loads(dumps([])) == []
        assert loads(dumps({})) == {}
        assert loads(dumps(())) == ()


class TestArrays:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int32,
                                       np.int64, np.uint8, np.complex128,
                                       np.bool_])
    def test_dtype_roundtrip(self, dtype):
        a = np.arange(12).astype(dtype).reshape(3, 4)
        b = loads(dumps(a))
        assert b.dtype == a.dtype
        assert np.array_equal(a, b)

    def test_empty_array(self):
        a = np.zeros((0, 5))
        b = loads(dumps(a))
        assert b.shape == (0, 5)

    def test_fortran_order_normalized(self):
        a = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        b = loads(dumps(a))
        assert np.array_equal(a, b)

    def test_object_dtype_rejected(self):
        with pytest.raises(SerializationError):
            dumps(np.array([object()]))

    @pytest.mark.parametrize("dtype", [">f8", "<U2", ">c16", "<c8",
                                       "<M8[s]", ">m8[ms]", "|V8"])
    def test_dtype_and_bytes_kept(self, dtype):
        """An array restores in the byte order it was saved in: the
        format carries ``dtype.str``, so it is portable as written."""
        a = np.arange(6).astype(dtype)
        b = loads(dumps(a))
        assert b.dtype == a.dtype and b.dtype.str == a.dtype.str
        assert b.tobytes() == a.tobytes()

    @pytest.mark.parametrize("dtype", [
        [("x", "<f8"), ("n", "<i4")],
        {"names": ["a"], "formats": ["<i2"], "offsets": [2],
         "itemsize": 4},
    ])
    def test_structured_dtype_refused(self, dtype):
        """``dtype.str`` drops field names: such a state would restore
        as raw ``|V`` bytes, so it is refused at save."""
        with pytest.raises(SerializationError, match="cannot be checkpointed"):
            dumps({"rec": np.zeros(3, dtype=dtype)})


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(SerializationError):
            loads(b"XXXX\x01\x00\x00")

    def test_truncated(self):
        with pytest.raises(SerializationError):
            loads(b"C3")

    def test_trailing_garbage(self):
        with pytest.raises(SerializationError):
            loads(dumps(1) + b"junk")

    def test_unsupported_type(self):
        with pytest.raises(SerializationError):
            dumps(object())

    def test_bad_version(self):
        payload = bytearray(dumps(1))
        payload[4] = 99
        with pytest.raises(SerializationError):
            loads(bytes(payload))

    def test_retired_portable_magic_refused(self):
        payload = b"C3PT" + dumps({"x": np.arange(3.0)})[4:]
        with pytest.raises(SerializationError, match="bad magic"):
            loads(payload)

    def test_negative_length_refused(self):
        with pytest.raises(SerializationError, match="length -64"):
            loads(MAGIC_BINARY + b"\x01\x00\x05\x7f")

    def test_declared_count_is_bounded_by_the_payload(self, monkeypatch):
        """A 12-byte payload declaring a 10**6-item list fails before
        decoding a single item."""
        payload = (MAGIC_BINARY + b"\x01\x00\x07"
                   + _pack_varint(10**6) + b"\x05\x7f")
        assert len(payload) == 12
        calls = []
        decode = Serializer._decode

        def counted(self, buf, pos):
            calls.append(pos)
            return decode(self, buf, pos)
        monkeypatch.setattr(Serializer, "_decode", counted)
        with pytest.raises(SerializationError, match="length 1000000"):
            loads(payload)
        assert len(calls) == 1

    @pytest.mark.parametrize("body", [
        b"\x09\x02\x07\x00\x00",                   # a list as a dict key
        b"\x0a\x05\x04zz\x02\x00\x00",             # an unknown dtype name
        b"\x0a\x02\x02\x01\x00\x00",               # a dtype that is not a name
        b"\x0a\x05\x06<f8\x02\x01\x00",            # a negative extent
        b"\x0a\x05\x06<f8\x02\x04\x02\x00",        # 2 elements in 1 byte
        b"\x0a\x05\x04|O\x02\x02\x10" + bytes(8),  # object dtype
        b"\x05\x02\xff",                           # invalid UTF-8
        b"\x07\x02" * 5000 + b"\x00",              # nested past the stack
        b"\x0b",                                   # an unknown tag
    ])
    def test_crafted_payload_refused(self, body):
        with pytest.raises(SerializationError):
            loads(MAGIC_BINARY + b"\x01\x00" + body)


def _app_section():
    def main(mpi):
        ctx = Context(mpi)
        ctx.state.n = 3
        ctx.state.grid = np.array([1.0, 2.5])
        ctx.heap.malloc(8, label="b", data=np.array([7, 8], dtype=np.int32))
        return ctx.snapshot_state()
    return dumps(run(1, main).returns[0])


def _request_table_section():
    table = RequestTable()
    table.alloc("recv", 0, 1, 2, 4, "MPI_DOUBLE", epoch=0, buffer=None)
    table.alloc("send", 0, 3, 5, 1, "MPI_INT", epoch=0)
    return dumps(table.on_commit(lambda b: None))


def _commit_record():
    return encode_commit(4, 1, {"app": (120, "ab" * 16),
                                "counters": (9, "cd" * 16)})[1]


@pytest.mark.parametrize("make", [_app_section, _request_table_section,
                                  _commit_record])
def test_every_truncation_raises_serialization_error(make):
    payload = make()
    loads(payload)
    for end in range(len(payload)):
        with pytest.raises(SerializationError):
            loads(payload[:end])


json_like = st.recursive(
    st.none() | st.booleans() | st.integers(-2**80, 2**80)
    | st.floats(allow_nan=False) | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=80, deadline=None)
@given(json_like)
def test_roundtrip_property(value):
    assert loads(dumps(value)) == value


@settings(max_examples=40, deadline=None)
@given(npst.arrays(
    dtype=st.sampled_from([np.float64, np.int32, np.uint8, np.complex64]),
    shape=npst.array_shapes(max_dims=3, max_side=6),
))
def test_array_roundtrip_property(a):
    b = loads(dumps(a))
    assert b.dtype == a.dtype and b.shape == a.shape
    assert np.array_equal(a, b, equal_nan=True)


@settings(max_examples=60, deadline=None)
@given(json_like, st.data())
def test_a_rotted_byte_raises_only_serialization_error(value, data):
    payload = bytearray(dumps(value))
    at = data.draw(st.integers(6, len(payload) - 1))
    payload[at] ^= data.draw(st.integers(1, 255))
    try:
        loads(bytes(payload))
    except SerializationError:
        pass
