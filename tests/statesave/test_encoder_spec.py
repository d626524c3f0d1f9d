"""The table-driven encoder against the recursive encoder it replaced.

``spec_dumps`` below is the previous ``Serializer._encode``, frozen here
as the byte-level specification of the format: every value the
encoder accepts must encode to exactly these bytes, and decode back to a
value that encodes to them again.
"""

import enum
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as npst

from repro.statesave import serializer
from repro.statesave.serializer import (
    FORMAT_VERSION, MAGIC_BINARY, SerializationError,
    Serializer, _pack_varint, loads,
)


# -- the specification ------------------------------------------------------
def _spec_encode(v, out):
    if v is None:
        out.append(0)
    elif isinstance(v, (bool, np.bool_)):
        out.append(1)
        out.append(1 if v else 0)
    elif isinstance(v, (int, np.integer)):
        out.append(2)
        out += _pack_varint(int(v))
    elif isinstance(v, (float, np.floating)):
        out.append(3)
        out += struct.pack("<d", float(v))
    elif isinstance(v, (complex, np.complexfloating)):
        out.append(4)
        out += struct.pack("<dd", v.real, v.imag)
    elif isinstance(v, str):
        raw = v.encode("utf-8")
        out.append(5)
        out += _pack_varint(len(raw))
        out += raw
    elif isinstance(v, (bytes, bytearray, memoryview)):
        raw = bytes(v)
        out.append(6)
        out += _pack_varint(len(raw))
        out += raw
    elif isinstance(v, list):
        out.append(7)
        out += _pack_varint(len(v))
        for item in v:
            _spec_encode(item, out)
    elif isinstance(v, tuple):
        out.append(8)
        out += _pack_varint(len(v))
        for item in v:
            _spec_encode(item, out)
    elif isinstance(v, dict):
        out.append(9)
        out += _pack_varint(len(v))
        for k, item in v.items():
            _spec_encode(k, out)
            _spec_encode(item, out)
    elif isinstance(v, np.ndarray):
        if v.dtype.hasobject:
            raise SerializationError("object-dtype arrays cannot be checkpointed")
        arr = np.ascontiguousarray(v)
        out.append(10)
        _spec_encode(arr.dtype.str, out)
        out += _pack_varint(arr.ndim)
        for s in arr.shape:
            out += _pack_varint(s)
        raw = arr.tobytes()
        out += _pack_varint(len(raw))
        out += raw
    else:
        raise SerializationError(
            f"cannot checkpoint value of type {type(v).__name__}")


def spec_dumps(value):
    out = bytearray(MAGIC_BINARY)
    out += struct.pack("<H", FORMAT_VERSION)
    _spec_encode(value, out)
    return bytes(out)


def assert_matches_spec(value):
    s = Serializer()
    payload = s.dumps(value)
    assert type(payload) is bytes
    assert payload == spec_dumps(value)
    assert s.dumps(loads(payload)) == payload


# -- strategies --------------------------------------------------------------
class Flag(int):
    pass


class Color(enum.IntEnum):
    RED = 3
    BLUE = -700


class Label(str):
    pass


class Blob(bytes):
    pass


class Row(list):
    pass


class Pair(tuple):
    pass


class Table(dict):
    pass


numpy_scalars = st.one_of(
    st.booleans().map(np.bool_),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.integers(-2**31, 2**31 - 1).map(np.int32),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.floats(width=16).map(np.float16),
    st.complex_numbers(width=64).map(np.complex64),
    st.complex_numbers().map(np.complex128),
)

scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(-2**200, 2**200),
    st.sampled_from([63, 64, -64, -65, 127, 128, 8191, 8192, -2**70]),
    st.floats(), st.sampled_from([math.nan, -0.0, math.inf, -math.inf]),
    st.complex_numbers(),
    st.text(max_size=80), st.binary(max_size=80),
    st.binary(max_size=64).map(bytearray),
    st.binary(max_size=64).map(memoryview),
    st.integers(-10**6, 10**6).map(Flag),
    st.sampled_from(list(Color)),
    st.text(max_size=10).map(Label),
    st.binary(max_size=10).map(Blob),
    numpy_scalars,
)

dtypes = st.sampled_from([
    "<f8", ">f8", "<f4", ">i4", "<i8", "u1", "?", "<c16", ">c8", "<i2",
    "<M8[s]", "S3",
])


@st.composite
def arrays(draw):
    a = draw(npst.arrays(dtype=dtypes,
                         shape=npst.array_shapes(min_dims=0, max_dims=3,
                                                 min_side=0, max_side=7)))
    view = draw(st.sampled_from(["plain", "reverse", "stride", "fortran"]))
    if view == "reverse" and a.ndim:
        a = a[::-1]
    elif view == "stride" and a.ndim:
        a = a[::2]
    elif view == "fortran":
        a = np.asfortranarray(a)
    return a


values = st.recursive(
    scalars | arrays(),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=3).map(Row),
        st.lists(children, max_size=3).map(Pair),
        st.dictionaries(st.text(max_size=6) | st.integers()
                        | st.tuples(st.integers(), st.text(max_size=3)),
                        children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=3).map(Table),
    ),
    max_leaves=25,
)


# -- properties ---------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(values)
def test_encoder_output_equals_the_frozen_spec(value):
    assert_matches_spec(value)


@pytest.mark.parametrize("value", [
    np.arange(600_000, dtype=np.float64),                 # one big blob
    np.arange(200_000, dtype=">i4")[::3],                 # strided, swapped
    np.asfortranarray(np.arange(90_000.0).reshape(300, 300)),
    np.zeros((0, 9000)),
    np.array(2.5),                                        # 0-d
    np.arange(9000).astype("<M8[s]"),
    {"x": np.ones(5000), "tail": [b"\x07" * 70_000, bytearray(5000)],
     "mv": memoryview(np.arange(2000, dtype=np.int32)),
     "after": (1, "x" * 5000, np.ones(3))},
    [np.ones(4096, dtype=np.uint8), np.ones(4095, dtype=np.uint8)],
])
def test_big_buffers_are_joined_in_place_with_the_same_bytes(value):
    assert_matches_spec(value)


def test_dispatch_caches_a_subclass_once():
    class Tally(int):
        pass

    serializer._ENCODERS.pop(Tally, None)
    assert Serializer().dumps(Tally(5)) == spec_dumps(5)
    assert serializer._ENCODERS[Tally] is serializer._enc_int
    assert Serializer().dumps([Tally(-1)] * 3) == spec_dumps([-1, -1, -1])


@pytest.mark.parametrize("value", [
    object(), {1: {2: [set()]}}, np.array([object()]),
    [1, np.array([None, 1.5j], dtype=object)],
])
def test_unsupported_values_are_refused_like_the_spec(value):
    with pytest.raises(SerializationError) as got:
        Serializer().dumps(value)
    with pytest.raises(SerializationError) as want:
        spec_dumps(value)
    assert str(got.value) == str(want.value)
