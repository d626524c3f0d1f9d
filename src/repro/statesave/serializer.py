"""Checkpoint serialization: one format, portable across hosts.

Section 5 of the paper: C3 dumps state as raw bytes "irrespective of the
data's type", and checkpoints "can be made portable across platforms".
This format is both.  Each value is a type tag and its raw bytes; scalars
are packed little-endian and each array carries its ``dtype.str``, which
names its byte order, so a payload decodes to the same values and dtypes
on any host.  A dtype that string cannot rebuild (structured) is refused
at save, like object dtype.

The serializer is self-contained (no pickle): it supports ``None``, bools,
ints, floats, complex, str, bytes, lists, tuples, dicts with str/int/tuple
keys, and numpy arrays.  That covers everything the runtime checkpoints:
application state, protocol registries (which hold message payload bytes),
counters, and handle tables.  A corrupt payload raises
:class:`SerializationError`, after no more work than its length allows.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

MAGIC_BINARY = b"C3BN"
FORMAT_VERSION = 1

# type tags
_T_NONE = 0
_T_BOOL = 1
_T_INT = 2
_T_FLOAT = 3
_T_COMPLEX = 4
_T_STR = 5
_T_BYTES = 6
_T_LIST = 7
_T_TUPLE = 8
_T_DICT = 9
_T_NDARRAY = 10


class SerializationError(Exception):
    """A value cannot be checkpointed or a payload is corrupt."""


def _pack_varint(n: int) -> bytes:
    """Signed integer, zig-zag + LEB128.

    Python integers are arbitrary precision, and so is LEB128 — no
    special big-number escape is needed (an escape byte would collide
    with legal continuation bytes).
    """
    z = 2 * n if n >= 0 else -2 * n - 1  # zig-zag, any magnitude
    out = bytearray()
    while True:
        b = z & 0x7F
        z >>= 7
        if z:
            out.append(b | 0x80)
        else:
            out.append(b)
            break
    return bytes(out)


def _put_varint(out: bytearray, n: int) -> None:
    """Append ``_pack_varint(n)``; a value that fits one byte is written
    inline."""
    if -64 <= n < 64:
        out.append(2 * n if n >= 0 else -2 * n - 1)
    else:
        out += _pack_varint(n)


def _unpack_varint(buf: bytes, pos: int) -> Tuple[int, int]:
    shift = 0
    z = 0
    while True:
        b = buf[pos]
        pos += 1
        z |= (b & 0x7F) << shift
        if not b & 0x80:
            break
        shift += 7
    return (z >> 1) if z % 2 == 0 else -((z + 1) >> 1), pos


#: raw buffers at least this long are joined from where they lie (the live
#: array, the caller's bytes) instead of being staged in the buffer first
_BLOB_MIN = 4096

_HEADER = MAGIC_BINARY + struct.pack("<H", FORMAT_VERSION)
_D = struct.Struct("<d")
_DD = struct.Struct("<dd")


class _Encoder:
    """The output of one ``dumps`` call, built with one copy per byte.

    Tags, varints and small values go into the staging buffer ``out``.
    A big raw buffer is not copied there: the buffer filled so far and
    the raw one are set aside in ``parts``, and ``result`` joins them
    into the payload, which copies each byte once.
    """

    __slots__ = ("out", "parts")

    def __init__(self):
        self.out = bytearray(_HEADER)
        self.parts: List[Any] = []

    def blob(self, raw) -> None:
        """Append a flat byte buffer (its length is already written)."""
        if len(raw) < _BLOB_MIN:
            self.out += raw
        else:
            self.parts.append(self.out)
            self.parts.append(raw)
            self.out = bytearray()

    def result(self) -> bytes:
        if not self.parts:
            return bytes(self.out)
        self.parts.append(self.out)
        return b"".join(self.parts)


# -- one encoder per value kind; ``out`` is re-read after any recursion,
# -- because a nested blob may replace it
def _enc_none(e: _Encoder, v: Any) -> None:
    e.out.append(_T_NONE)


_TRUE = bytes((_T_BOOL, 1))
_FALSE = bytes((_T_BOOL, 0))


def _enc_bool(e: _Encoder, v: Any) -> None:
    e.out += _TRUE if v else _FALSE


def _enc_int(e: _Encoder, v: Any) -> None:
    out = e.out
    out.append(_T_INT)
    _put_varint(out, int(v))


def _enc_float(e: _Encoder, v: Any) -> None:
    out = e.out
    out.append(_T_FLOAT)
    out += _D.pack(float(v))


def _enc_complex(e: _Encoder, v: Any) -> None:
    out = e.out
    out.append(_T_COMPLEX)
    out += _DD.pack(v.real, v.imag)


def _enc_str(e: _Encoder, v: Any) -> None:
    raw = v.encode("utf-8")
    out = e.out
    out.append(_T_STR)
    _put_varint(out, len(raw))
    out += raw


def _enc_bytes(e: _Encoder, v: Any) -> None:
    """``bytes`` and ``bytearray``: flat, and ``len`` counts bytes."""
    out = e.out
    out.append(_T_BYTES)
    _put_varint(out, len(v))
    e.blob(v)


def _enc_bytes_like(e: _Encoder, v: Any) -> None:
    """Subclasses and memoryviews: whatever ``bytes(v)`` says they hold."""
    _enc_bytes(e, bytes(v))


def _enc_items(e: _Encoder, tag: int, v: Any) -> None:
    out = e.out
    out.append(tag)
    _put_varint(out, len(v))
    for item in v:
        _encode(e, item)


def _enc_list(e: _Encoder, v: Any) -> None:
    _enc_items(e, _T_LIST, v)


def _enc_tuple(e: _Encoder, v: Any) -> None:
    _enc_items(e, _T_TUPLE, v)


def _enc_dict(e: _Encoder, v: Any) -> None:
    out = e.out
    out.append(_T_DICT)
    _put_varint(out, len(v))
    for k, item in v.items():
        _encode(e, k)
        _encode(e, item)


def wire_dtype(a: np.ndarray) -> str:
    """``a.dtype.str``, which names the byte order; SerializationError for
    a dtype it cannot rebuild (object; structured loses field names)."""
    if a.dtype.hasobject:
        raise SerializationError("object-dtype arrays cannot be checkpointed")
    name = a.dtype.str
    if np.dtype(name) != a.dtype:
        raise SerializationError(
            f"dtype {a.dtype} cannot be checkpointed: it would restore "
            f"as {name}")
    return name


def _enc_ndarray(e: _Encoder, a: np.ndarray) -> None:
    arr = np.ascontiguousarray(a)
    e.out.append(_T_NDARRAY)
    _enc_str(e, wire_dtype(arr))
    out = e.out
    _put_varint(out, arr.ndim)
    for s in arr.shape:
        _put_varint(out, s)
    _put_varint(out, arr.nbytes)
    # The data as a flat byte view of the (contiguous) array: no copy.
    # ``memoryview(arr).cast("B")`` would refuse datetime dtypes.
    e.blob(memoryview(arr.reshape(-1).view(np.uint8)))


def _enc_unsupported(e: _Encoder, v: Any) -> None:
    raise SerializationError(
        f"cannot checkpoint value of type {type(v).__name__}")


#: exact type -> encoder; other types are added by :func:`_resolve`
_ENCODERS: Dict[type, Callable[[_Encoder, Any], None]] = {
    type(None): _enc_none, bool: _enc_bool, int: _enc_int,
    float: _enc_float, complex: _enc_complex, str: _enc_str,
    bytes: _enc_bytes, bytearray: _enc_bytes, list: _enc_list,
    tuple: _enc_tuple, dict: _enc_dict, np.ndarray: _enc_ndarray,
}

#: how a type outside the table is classified: the first entry it is a
#: subclass of wins (bools before ints, NumPy scalars beside Python's)
_SUBCLASS_ORDER = (
    ((bool, np.bool_), _enc_bool),
    ((int, np.integer), _enc_int),
    ((float, np.floating), _enc_float),
    ((complex, np.complexfloating), _enc_complex),
    (str, _enc_str),
    ((bytes, bytearray, memoryview), _enc_bytes_like),
    (list, _enc_list),
    (tuple, _enc_tuple),
    (dict, _enc_dict),
    (np.ndarray, _enc_ndarray),
)


def _encode(e: _Encoder, v: Any) -> None:
    """Append one value through its type's encoder."""
    (_ENCODERS.get(type(v)) or _resolve(type(v)))(e, v)


def _resolve(tp: type) -> Callable[[_Encoder, Any], None]:
    """The encoder of a type first seen now, cached for the next value."""
    for bases, encoder in _SUBCLASS_ORDER:
        if issubclass(tp, bases):
            _ENCODERS[tp] = encoder
            return encoder
    return _enc_unsupported


class Serializer:
    """Encode/decode checkpoint values."""

    # -- public API ----------------------------------------------------------
    def dumps(self, value: Any) -> bytes:
        e = _Encoder()
        _encode(e, value)
        return e.result()

    def loads(self, payload: bytes) -> Any:
        if payload[:4] != MAGIC_BINARY:
            raise SerializationError(f"bad magic {bytes(payload[:4])!r}")
        if payload[4:6] != _HEADER[4:]:
            raise SerializationError(
                f"unsupported format version {bytes(payload[4:6])!r}")
        try:
            value, pos = self._decode(payload, 6)
        except _CORRUPT as exc:
            raise SerializationError(
                f"corrupt payload: {type(exc).__name__}: {exc}") from None
        if pos != len(payload):
            raise SerializationError(f"{len(payload) - pos} trailing bytes")
        return value

    # -- decoding -----------------------------------------------------------------
    def _decode(self, buf: bytes, pos: int) -> Tuple[Any, int]:
        tag = buf[pos]
        pos += 1
        if tag == _T_NONE:
            return None, pos
        if tag == _T_BOOL:
            return bool(buf[pos]), pos + 1
        if tag == _T_INT:
            return _unpack_varint(buf, pos)
        if tag == _T_FLOAT:
            (x,) = struct.unpack_from("<d", buf, pos)
            return x, pos + 8
        if tag == _T_COMPLEX:
            re, im = struct.unpack_from("<dd", buf, pos)
            return complex(re, im), pos + 16
        if tag == _T_STR:
            n, pos = _unpack_length(buf, pos)
            return buf[pos:pos + n].decode("utf-8"), pos + n
        if tag == _T_BYTES:
            n, pos = _unpack_length(buf, pos)
            return bytes(buf[pos:pos + n]), pos + n
        if tag == _T_LIST or tag == _T_TUPLE:
            n, pos = _unpack_length(buf, pos)
            items = []
            for _ in range(n):
                item, pos = self._decode(buf, pos)
                items.append(item)
            return (tuple(items) if tag == _T_TUPLE else items), pos
        if tag == _T_DICT:
            n, pos = _unpack_length(buf, pos)
            d: Dict[Any, Any] = {}
            for _ in range(n):
                k, pos = self._decode(buf, pos)
                v, pos = self._decode(buf, pos)
                d[k] = v
            return d, pos
        if tag == _T_NDARRAY:
            dtype_str, pos = self._decode(buf, pos)
            ndim, pos = _unpack_length(buf, pos)
            shape = []
            for _ in range(ndim):
                s, pos = _unpack_varint(buf, pos)
                if s < 0:
                    raise SerializationError(f"negative array extent {s}")
                shape.append(s)
            nbytes, pos = _unpack_length(buf, pos)
            arr = np.frombuffer(memoryview(buf)[pos:pos + nbytes],
                                dtype=np.dtype(dtype_str))
            return arr.reshape(shape).copy(), pos + nbytes
        raise SerializationError(f"unknown type tag {tag} at offset {pos - 1}")


#: what decoding a corrupt payload raises: its end, a bad dtype, shape,
#: UTF-8 or dict key, nesting deeper than the stack
_CORRUPT = (IndexError, ValueError, TypeError, struct.error,
            UnicodeDecodeError, RecursionError)


def _unpack_length(buf: bytes, pos: int) -> Tuple[int, int]:
    """A length or count: never negative, nor more than the bytes left."""
    n, pos = _unpack_varint(buf, pos)
    if not 0 <= n <= len(buf) - pos:
        raise SerializationError(
            f"length {n} at offset {pos} does not fit the "
            f"{len(buf) - pos} bytes left")
    return n, pos


#: module-level conveniences
_SERIALIZER = Serializer()


def dumps(value: Any) -> bytes:
    """Serialize a checkpoint value to bytes (module-level convenience)."""
    return _SERIALIZER.dumps(value)


def loads(payload: bytes) -> Any:
    """Deserialize a checkpoint payload (module-level convenience)."""
    return _SERIALIZER.loads(payload)
