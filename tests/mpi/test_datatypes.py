"""Datatype construction, layout, and pack/unpack semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi import datatypes as dt
from repro.mpi.errors import InvalidDatatypeError


class TestNamedTypes:
    def test_sizes_match_numpy(self):
        assert dt.DOUBLE.size == 8
        assert dt.FLOAT.size == 4
        assert dt.INT.size == 4
        assert dt.BYTE.size == 1
        assert dt.DOUBLE_COMPLEX.size == 16

    def test_named_types_are_committed(self):
        assert dt.DOUBLE.committed

    def test_named_free_is_noop(self):
        dt.INT.Free()
        assert not dt.INT.freed

    def test_from_numpy_dtype(self):
        assert dt.from_numpy_dtype(np.float64) is dt.DOUBLE
        assert dt.from_numpy_dtype(np.int32) is dt.INT
        assert dt.from_numpy_dtype(np.complex128) is dt.DOUBLE_COMPLEX

    def test_from_numpy_dtype_unknown(self):
        with pytest.raises(InvalidDatatypeError):
            dt.from_numpy_dtype(np.dtype([("a", np.int32)]))

    def test_pack_roundtrip_scalar_array(self):
        a = np.arange(10.0)
        payload = dt.DOUBLE.pack(a, 10)
        b = np.zeros(10)
        dt.DOUBLE.unpack(payload, b, 10)
        assert np.array_equal(a, b)


class TestContiguous:
    def test_size_extent(self):
        t = dt.ContiguousType(4, dt.DOUBLE)
        assert t.size == 32
        assert t.extent == 32

    def test_requires_commit_for_pack(self):
        t = dt.ContiguousType(4, dt.DOUBLE)
        with pytest.raises(InvalidDatatypeError):
            t.pack(np.zeros(4), 1)
        t.Commit()
        t.pack(np.zeros(4), 1)

    def test_roundtrip(self):
        t = dt.ContiguousType(3, dt.INT).Commit()
        a = np.arange(6, dtype=np.int32)
        payload = t.pack(a, 2)
        b = np.zeros(6, dtype=np.int32)
        t.unpack(payload, b, 2)
        assert np.array_equal(a, b)


class TestVector:
    def test_layout(self):
        # 2 blocks of 2 elements with stride 3: indices 0,1,3,4
        t = dt.VectorType(2, 2, 3, dt.DOUBLE).Commit()
        a = np.arange(6.0)
        payload = t.pack(a, 1)
        got = np.frombuffer(payload, dtype=np.float64)
        assert np.array_equal(got, [0.0, 1.0, 3.0, 4.0])

    def test_unpack_scatters(self):
        t = dt.VectorType(2, 1, 2, dt.DOUBLE).Commit()
        b = np.zeros(4)
        t.unpack(np.array([7.0, 9.0]).tobytes(), b, 1)
        assert np.array_equal(b, [7.0, 0.0, 9.0, 0.0])

    def test_extent(self):
        t = dt.VectorType(3, 2, 4, dt.FLOAT)
        # last block starts at 2*4=8, ends at 10 elements -> 40 bytes
        assert t.extent == 10 * 4
        assert t.size == 6 * 4

    def test_column_of_matrix(self):
        n = 5
        t = dt.VectorType(n, 1, n, dt.DOUBLE).Commit()
        m = np.arange(25.0).reshape(5, 5)
        payload = t.pack(np.ascontiguousarray(m), 1)
        col = np.frombuffer(payload, dtype=np.float64)
        assert np.array_equal(col, m[:, 0])


class TestIndexed:
    def test_layout(self):
        t = dt.IndexedType([2, 1], [0, 4], dt.DOUBLE).Commit()
        a = np.arange(6.0)
        got = np.frombuffer(t.pack(a, 1), dtype=np.float64)
        assert np.array_equal(got, [0.0, 1.0, 4.0])

    def test_mismatched_arrays(self):
        with pytest.raises(InvalidDatatypeError):
            dt.IndexedType([1, 2], [0], dt.INT)


class TestStruct:
    def test_heterogeneous(self):
        t = dt.StructType([1, 1], [0, 8], [dt.INT, dt.DOUBLE]).Commit()
        assert t.size == 12
        buf = bytearray(16)
        np.frombuffer(buf, dtype=np.int32)[0] = 42
        np.frombuffer(buf, dtype=np.float64)[1] = 2.5
        payload = t.pack(buf, 1)
        out = bytearray(16)
        t.unpack(payload, out, 1)
        assert np.frombuffer(out, dtype=np.int32)[0] == 42
        assert np.frombuffer(out, dtype=np.float64)[1] == 2.5


class TestHierarchy:
    def test_nested_vector_of_contiguous(self):
        inner = dt.ContiguousType(2, dt.DOUBLE)
        outer = dt.VectorType(2, 1, 2, inner).Commit()
        a = np.arange(8.0)
        got = np.frombuffer(outer.pack(a, 1), dtype=np.float64)
        # blocks of (2 doubles) at inner-extents 0 and 2 -> elems 0,1,4,5
        assert np.array_equal(got, [0.0, 1.0, 4.0, 5.0])

    def test_freed_base_rejected(self):
        base = dt.ContiguousType(2, dt.DOUBLE)
        base.Free()
        with pytest.raises(InvalidDatatypeError):
            dt.VectorType(2, 1, 2, base)

    def test_double_free(self):
        t = dt.ContiguousType(2, dt.DOUBLE)
        t.Free()
        with pytest.raises(InvalidDatatypeError):
            t.Free()


class TestPackErrors:
    def test_truncated_payload(self):
        t = dt.ContiguousType(4, dt.DOUBLE).Commit()
        with pytest.raises(InvalidDatatypeError):
            t.unpack(b"\x00" * 8, np.zeros(4), 1)

    def test_non_contiguous_buffer(self):
        a = np.zeros((4, 4))[:, 0]
        with pytest.raises(InvalidDatatypeError):
            dt.DOUBLE.pack(a, 4)

    # Regression: short buffers raised raw numpy IndexError/ValueError.
    def test_vector_pack_from_short_buffer(self):
        t = dt.VectorType(3, 1, 2, dt.DOUBLE).Commit()
        with pytest.raises(InvalidDatatypeError, match="too short to pack"):
            t.pack(np.zeros(3), 1)

    def test_vector_unpack_into_short_buffer(self):
        t = dt.VectorType(3, 1, 2, dt.DOUBLE).Commit()
        with pytest.raises(InvalidDatatypeError, match="too short to unpack"):
            t.unpack(bytes(24), np.zeros(3), 1)

    def test_named_unpack_into_short_buffer(self):
        with pytest.raises(InvalidDatatypeError, match="too short to unpack"):
            dt.DOUBLE.unpack(bytes(32), np.zeros(2), 4)

    def test_named_pack_from_short_buffer(self):
        with pytest.raises(InvalidDatatypeError, match="too short to pack"):
            dt.DOUBLE.pack(np.zeros(2), 3)

    def test_short_payload_on_the_named_fast_path(self):
        with pytest.raises(InvalidDatatypeError, match="payload"):
            dt.DOUBLE.unpack(bytes(8), np.zeros(4), 2)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(dt.NAMED_TYPES)),
    size=st.integers(0, 9),
    count=st.integers(0, 9),
)
def test_named_fast_path_matches_the_byte_map(name, size, count):
    """Property: a C-contiguous array of the named type's own dtype
    (packed verbatim) and its uint8 view (packed through the byte map)
    give the same payload, unpack to the same bytes, and fail alike."""
    t = dt.NAMED_TYPES[name]
    rng = np.random.default_rng(size * 10 + count)
    raw = rng.integers(0, 256, size * t.size, dtype=np.uint8)
    if t.np_dtype == np.bool_:
        raw &= 1  # only 0/1 are valid bools
    a = raw.view(t.np_dtype)
    if count > size:
        for buf in (a, raw):
            with pytest.raises(InvalidDatatypeError):
                t.pack(buf, count)
            with pytest.raises(InvalidDatatypeError):
                t.unpack(bytes(count * t.size), buf, count)
        return
    payload = t.pack(a, count)
    assert payload == t.pack(raw, count) == raw[:count * t.size].tobytes()
    fast, generic = np.zeros_like(a), np.zeros_like(raw)
    t.unpack(payload, fast, count)
    t.unpack(payload, generic, count)
    assert fast.view(np.uint8).tobytes() == generic.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(1, 5),
    blocklength=st.integers(1, 4),
    gap=st.integers(0, 4),
    elements=st.integers(1, 3),
)
def test_vector_pack_unpack_roundtrip(count, blocklength, gap, elements):
    """Property: pack followed by unpack restores exactly the described
    bytes, for any vector geometry and element count."""
    stride = blocklength + gap
    t = dt.VectorType(count, blocklength, stride, dt.DOUBLE).Commit()
    span = ((count - 1) * stride + blocklength) * elements or 1
    rng = np.random.default_rng(42)
    a = rng.standard_normal(span + 3)
    payload = t.pack(a, elements)
    assert len(payload) == t.size * elements
    b = np.zeros_like(a)
    t.unpack(payload, b, elements)
    # every described position matches; others remain zero
    offs = np.asarray(t.byte_offsets()) // 8
    described = set()
    for e in range(elements):
        described.update(offs + e * t.extent // 8)
    for i in range(len(a)):
        if i in described:
            assert b[i] == a[i]
        else:
            assert b[i] == 0.0
