"""Stable-storage backends.

A checkpoint is only useful if it survives the failure, so the runtime
writes through a :class:`StorageBackend`.  Two implementations:

* :class:`InMemoryStorage` — a thread-safe dict.  It deliberately survives
  engine teardown (the harness keeps it across the failed run and the
  restarted run), playing the role of the node-local disk.  Fast enough
  for tests and benches.
* :class:`DiskStorage` — real files under a root directory, with atomic
  writes (temp file + rename), for the examples and durability tests.

Backends are pure byte stores; *time* for I/O is charged by the caller
from the machine model (``disk_write_time``), so configuration #2 of
Tables 4–5 (go through the motions, skip the write) is expressible.

Both backends expose the same path discipline (slash-separated relative
paths; anything escaping the root is rejected) and the same accounting
counters (``write_count``, ``written_bytes``, ``fsync_count``), so a
campaign's storage traffic can be compared across backends without the
semantics silently diverging.  ``fsync_count`` models durability points:
:class:`DiskStorage` counts real ``os.fsync`` calls, and
:class:`InMemoryStorage` counts where the disk backend *would* have
fsynced (one per atomic ``write``, one per ``sync``) — which is what
lets the group-commit study report fsyncs-per-committed-line on either.

On top of the atomic object operations the backends support an
*append stream* API — :meth:`StorageBackend.append`,
:meth:`StorageBackend.sync`, :meth:`StorageBackend.truncate`,
:meth:`StorageBackend.read_range` — used by the log-structured WAL
engine (:mod:`repro.storage.wal`): appends extend an object without the
read-modify-write an atomic ``write`` would need, carry **no**
durability on their own, and become durable only at the next ``sync``
(the batched fsync of a group commit).  ``truncate`` cuts an object to a
prefix in place and durably — how replay drops a torn tail without
rewriting the bytes it keeps; it counts one write, one fsync and no
bytes written.
"""

from __future__ import annotations

import bisect
import itertools
import os
import posixpath
import sys
import threading
from typing import Dict, List, Optional, Sequence, Union

#: what :meth:`StorageBackend.append` takes: one bytes-like object, or a
#: sequence of them written back to back
Buffers = Union[bytes, memoryview, Sequence[Union[bytes, memoryview]]]


class StorageError(Exception):
    """Missing object / invalid path in a storage backend."""


def as_buffers(data: Buffers) -> Sequence:
    """``data`` as a sequence of buffers (a lone bytes-like object is one)."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        return (data,)
    return data


def normalize_path(path: str) -> str:
    """Canonical slash-separated relative path, or :class:`StorageError`.

    The one normalization both backends share: collapse ``.``/``//``
    segments, reject absolute paths and anything whose ``..`` segments
    would escape the storage root.  Keeping this in one place is what
    stops campaign results from silently diverging by backend — a path
    :class:`DiskStorage` refuses must be refused in memory too.
    """
    norm = posixpath.normpath(path)
    if norm.startswith("..") or posixpath.isabs(norm) or norm == ".":
        raise StorageError(f"path escapes storage root: {path!r}")
    return norm


class StorageBackend:
    """Abstract byte store keyed by slash-separated paths.

    A proxy (tenant namespace, fault injector) sets :attr:`inner`; the
    medium-level answers below then come from the medium it wraps.
    """

    #: the backend a proxy forwards to (None: this is the medium)
    inner: Optional["StorageBackend"] = None

    @property
    def shared_across_fork(self) -> bool:
        """True when writes made in a forked child are visible to the
        parent process (real files); the processes engine stages any
        other medium on a scratch directory for the run."""
        return self.inner is not None and self.inner.shared_across_fork

    def on_job_end(self, crashed: bool) -> None:
        """Job-lifetime boundary, before the store's own crash model: a
        crash loses what was acknowledged but never made durable.  Real
        media lose nothing; only fault injectors act here."""
        if self.inner is not None:
            self.inner.on_job_end(crashed)

    def write(self, path: str, data: bytes) -> None:
        raise NotImplementedError

    def read(self, path: str) -> bytes:
        raise NotImplementedError

    def exists(self, path: str) -> bool:
        raise NotImplementedError

    def delete(self, path: str) -> None:
        raise NotImplementedError

    def list(self, prefix: str = "") -> List[str]:
        """All paths starting with ``prefix``, sorted."""
        raise NotImplementedError

    def size(self, path: str) -> int:
        """Size in bytes of one stored object, without reading its payload."""
        raise NotImplementedError

    def total_bytes(self, prefix: str = "") -> int:
        return sum(self.size(p) for p in self.list(prefix))

    # -- append-stream API (the WAL substrate) ------------------------------
    def append(self, path: str, data: Buffers) -> int:
        """Extend ``path`` with ``data`` (creating it if absent).

        Returns the offset the appended bytes start at.  Appends carry no
        durability: a crash before the next :meth:`sync` may lose or tear
        the appended tail — exactly the window the WAL replay truncates.
        ``data`` is one bytes-like object or a sequence of immutable
        buffers, written back to back as one append: a WAL group commit
        hands over each staged record's header, name and payload by
        reference, in one call.  No caller reuses a staging buffer, but
        a backend that keeps bytes still copies them out of ``data``
        (joined once, or written straight to the file).
        """
        raise NotImplementedError

    def sync(self, path: str) -> None:
        """Durability point for everything appended to ``path`` so far."""
        raise NotImplementedError

    def truncate(self, path: str, length: int) -> None:
        """Cut ``path`` to its first ``length`` bytes (at most its size),
        in place, and make the cut object durable: a durability point
        for ``path`` as a :meth:`sync` is.  Counted as one write and one
        fsync of no bytes."""
        raise NotImplementedError

    def read_range(self, path: str, offset: int, nbytes: int) -> bytes:
        """``nbytes`` of one object starting at ``offset`` (may be short
        if the object ends first)."""
        return self.read(path)[offset:offset + nbytes]


class InMemoryStorage(StorageBackend):
    """Thread-safe in-memory byte store (the simulated node-local disk)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._data: Dict[str, bytes] = {}
        #: the keys of ``_data``, sorted: :meth:`list` answers a prefix
        #: with two bisections instead of a scan of every key
        self._keys: List[str] = []
        self.write_count = 0
        self.written_bytes = 0
        #: durability points the disk backend would have paid (one per
        #: atomic write, one per explicit sync) — see the module docstring
        self.fsync_count = 0
        #: payload reads (``read`` + ``read_range``) — lets the fuzzer's
        #: coverage see validation/replay passes on either backend
        self.read_count = 0

    def write(self, path: str, data: bytes) -> None:
        path = normalize_path(path)
        with self._lock:
            payload = bytes(data)
            self._add_key(path)
            self._data[path] = payload
            self.write_count += 1
            self.written_bytes += len(data)
            self.fsync_count += 1

    def read(self, path: str) -> bytes:
        path = normalize_path(path)
        with self._lock:
            try:
                payload = self._data[path]
            except KeyError:
                raise StorageError(f"no stored object at {path!r}") from None
            self.read_count += 1
            return payload

    def exists(self, path: str) -> bool:
        path = normalize_path(path)
        with self._lock:
            return path in self._data

    def delete(self, path: str) -> None:
        path = normalize_path(path)
        with self._lock:
            if path not in self._data:
                raise StorageError(f"no stored object at {path!r}")
            del self._data[path]
            del self._keys[bisect.bisect_left(self._keys, path)]

    def list(self, prefix: str = "") -> List[str]:
        with self._lock:
            keys = self._keys
            lo = bisect.bisect_left(keys, prefix)
            return keys[lo:_prefix_end(keys, prefix, lo)]

    def _add_key(self, path: str) -> None:
        if path not in self._data:
            bisect.insort(self._keys, path)

    def size(self, path: str) -> int:
        path = normalize_path(path)
        with self._lock:
            try:
                return len(self._data[path])
            except KeyError:
                raise StorageError(f"no stored object at {path!r}") from None

    def append(self, path: str, data: Buffers) -> int:
        path = normalize_path(path)
        with self._lock:
            old = self._data.get(path, b"")
            # one join: one copy of every buffer of ``data``
            new = b"".join((old, *as_buffers(data)))
            self._add_key(path)
            self._data[path] = new
            self.write_count += 1
            self.written_bytes += len(new) - len(old)
            return len(old)

    def sync(self, path: str) -> None:
        normalize_path(path)
        with self._lock:
            self.fsync_count += 1

    def truncate(self, path: str, length: int) -> None:
        path = normalize_path(path)
        with self._lock:
            try:
                self._data[path] = self._data[path][:length]
            except KeyError:
                raise StorageError(f"no stored object at {path!r}") from None
            self.write_count += 1
            self.fsync_count += 1

    def read_range(self, path: str, offset: int, nbytes: int) -> bytes:
        path = normalize_path(path)
        with self._lock:
            try:
                payload = self._data[path][offset:offset + nbytes]
            except KeyError:
                raise StorageError(f"no stored object at {path!r}") from None
            self.read_count += 1
            return payload


def _prefix_end(keys: List[str], prefix: str, lo: int) -> int:
    """Index past the last of sorted ``keys`` that starts with ``prefix``.

    The keys with a prefix are one run, ending before the least string
    above every one of them: the prefix with its last character
    incremented (trailing U+10FFFF characters, which have no successor,
    dropped first; none left means the run reaches the end).
    """
    stem = prefix.rstrip(chr(sys.maxunicode))
    if not stem:
        return len(keys)
    return bisect.bisect_left(keys, stem[:-1] + chr(ord(stem[-1]) + 1), lo)


class DiskStorage(StorageBackend):
    """File-backed store with atomic writes, shared across fork.

    Writes are lock-free: each goes to a uniquely named temp file
    (pid + thread id + per-instance counter) that is fsynced and then
    atomically ``os.replace``d into place.  Concurrent writers — the
    overlapped drain path commits many ranks' sections through one
    backend — therefore never serialize on a backend-global mutex, and
    readers always observe either the old or the new complete payload.

    Appends go straight to the file (``"ab"``), unsynced, one
    ``writelines`` over the caller's buffers; :meth:`sync` fsyncs the
    file once — the WAL's group-commit durability point — and
    :meth:`truncate` is one ``ftruncate`` and one fsync on one
    descriptor.
    """

    shared_across_fork = True

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        #: itertools.count is advanced atomically under the GIL; combined
        #: with pid+tid it makes temp names collision-free
        self._tmp_seq = itertools.count()
        self.write_count = 0
        self.written_bytes = 0
        self.fsync_count = 0
        self.read_count = 0

    def _fs_path(self, path: str) -> str:
        return os.path.join(self.root, normalize_path(path).replace("/", os.sep))

    def write(self, path: str, data: bytes) -> None:
        fs = self._fs_path(path)
        os.makedirs(os.path.dirname(fs), exist_ok=True)
        tmp = (f"{fs}.{os.getpid()}.{threading.get_ident()}"
               f".{next(self._tmp_seq)}.tmp")
        try:
            with open(tmp, "wb") as f:
                f.write(data)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, fs)
            self.write_count += 1
            self.written_bytes += len(data)
            self.fsync_count += 1
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise

    def read(self, path: str) -> bytes:
        fs = self._fs_path(path)
        try:
            with open(fs, "rb") as f:
                payload = f.read()
        except FileNotFoundError:
            raise StorageError(f"no stored object at {path!r}") from None
        self.read_count += 1
        return payload

    def exists(self, path: str) -> bool:
        return os.path.isfile(self._fs_path(path))

    def delete(self, path: str) -> None:
        try:
            os.remove(self._fs_path(path))
        except FileNotFoundError:
            raise StorageError(f"no stored object at {path!r}") from None

    def size(self, path: str) -> int:
        try:
            return os.stat(self._fs_path(path)).st_size
        except FileNotFoundError:
            raise StorageError(f"no stored object at {path!r}") from None

    def list(self, prefix: str = "") -> List[str]:
        # Prune the walk to the deepest directory the prefix pins down:
        # GC and committed_map list on every commit, and walking the whole
        # root made each of those O(total objects) instead of O(line).
        dirpart, _, _ = prefix.rpartition("/")
        base = self.root
        if dirpart:
            try:
                base = os.path.join(self.root,
                                    normalize_path(dirpart).replace("/", os.sep))
            except StorageError:
                return []
        out = []
        if not os.path.isdir(base):
            return out
        for dirpath, _dirs, files in os.walk(base):
            for fname in files:
                if fname.endswith(".tmp"):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, fname), self.root)
                rel = rel.replace(os.sep, "/")
                if rel.startswith(prefix):
                    out.append(rel)
        return sorted(out)

    def append(self, path: str, data: Buffers) -> int:
        parts = as_buffers(data)
        fs = self._fs_path(path)
        os.makedirs(os.path.dirname(fs), exist_ok=True)
        with open(fs, "ab") as f:
            offset = f.tell()
            # buffered: small parts coalesce, a big payload goes to the
            # file straight from the caller's buffer
            f.writelines(parts)
        self.write_count += 1
        self.written_bytes += sum(map(len, parts))
        return offset

    def sync(self, path: str) -> None:
        fs = self._fs_path(path)
        try:
            with open(fs, "rb") as f:
                os.fsync(f.fileno())
        except FileNotFoundError:
            raise StorageError(f"no stored object at {path!r}") from None
        self.fsync_count += 1

    def truncate(self, path: str, length: int) -> None:
        try:
            fd = os.open(self._fs_path(path), os.O_WRONLY)
        except FileNotFoundError:
            raise StorageError(f"no stored object at {path!r}") from None
        try:
            os.ftruncate(fd, length)
            os.fsync(fd)
        finally:
            os.close(fd)
        self.write_count += 1
        self.fsync_count += 1

    def read_range(self, path: str, offset: int, nbytes: int) -> bytes:
        fs = self._fs_path(path)
        try:
            with open(fs, "rb") as f:
                f.seek(offset)
                payload = f.read(nbytes)
        except FileNotFoundError:
            raise StorageError(f"no stored object at {path!r}") from None
        self.read_count += 1
        return payload
