"""Path-prefix namespaces over a shared storage backend.

The campaign service (:mod:`repro.service`) runs many tenants' jobs
against one physical medium; each tenant must see a private byte store.
:class:`PrefixBackend` is that isolation seam: a
:class:`~repro.storage.stable.StorageBackend` whose every path is
remapped under a fixed prefix before it reaches the shared inner
backend.  Paths are normalized *before* prefixing, so no crafted
``..``/absolute path can address another namespace — the same
:func:`~repro.storage.stable.normalize_path` discipline both real
backends enforce at their own root.

The wrapper keeps its own traffic counters (``write_count``,
``written_bytes``, ``fsync_count``, ``read_count``) so per-tenant
storage accounting falls out for free, while the inner backend keeps
counting the aggregate.  Everything the recovery stack needs passes
through — the atomic object API, the WAL's append/sync/read_range
stream API; ``shared_across_fork`` and the job-end boundary answer for
the inner medium by the :class:`~repro.storage.stable.StorageBackend`
proxy rule (a namespace over real files is still fork-visible).
"""

from __future__ import annotations

from typing import List

from .stable import Buffers, StorageBackend, as_buffers, normalize_path

__all__ = ["PrefixBackend", "tenant_backend"]

#: where :func:`tenant_backend` roots each tenant's namespace
TENANT_ROOT = "tenants"


class PrefixBackend(StorageBackend):
    """A storage backend confined to ``prefix/`` of an inner backend."""

    def __init__(self, inner: StorageBackend, prefix: str):
        self.inner = inner
        #: the canonical namespace root, with trailing slash
        self.prefix = normalize_path(prefix) + "/"
        self.write_count = 0
        self.written_bytes = 0
        self.fsync_count = 0
        self.read_count = 0

    def _map(self, path: str) -> str:
        # normalize first: a path whose ".." segments would escape is
        # rejected here, before the prefix could be peeled back
        return self.prefix + normalize_path(path)

    # -- atomic object API ---------------------------------------------------

    def write(self, path: str, data: bytes) -> None:
        self.inner.write(self._map(path), data)
        self.write_count += 1
        self.written_bytes += len(data)
        self.fsync_count += 1

    def read(self, path: str) -> bytes:
        payload = self.inner.read(self._map(path))
        self.read_count += 1
        return payload

    def exists(self, path: str) -> bool:
        return self.inner.exists(self._map(path))

    def delete(self, path: str) -> None:
        self.inner.delete(self._map(path))

    def list(self, prefix: str = "") -> List[str]:
        # ``prefix`` is a string prefix (possibly a partial file name),
        # not necessarily a normalizable path: plain concatenation
        # mirrors the inner backends' startswith semantics
        full = self.prefix + prefix
        n = len(self.prefix)
        return [p[n:] for p in self.inner.list(full)]

    def size(self, path: str) -> int:
        return self.inner.size(self._map(path))

    # -- append-stream API (the WAL substrate) -------------------------------

    def append(self, path: str, data: Buffers) -> int:
        offset = self.inner.append(self._map(path), data)
        self.write_count += 1
        self.written_bytes += sum(map(len, as_buffers(data)))
        return offset

    def sync(self, path: str) -> None:
        self.inner.sync(self._map(path))
        self.fsync_count += 1

    def truncate(self, path: str, length: int) -> None:
        self.inner.truncate(self._map(path), length)
        self.write_count += 1
        self.fsync_count += 1

    def read_range(self, path: str, offset: int, nbytes: int) -> bytes:
        payload = self.inner.read_range(self._map(path), offset, nbytes)
        self.read_count += 1
        return payload


def tenant_backend(inner: StorageBackend, tenant: str) -> PrefixBackend:
    """``inner`` confined to ``tenants/<tenant>/``.

    Tenant names are single path segments: no slashes, no ``.``/``..``,
    non-empty — anything else could alias another tenant's root.
    """
    if not tenant or "/" in tenant or tenant in (".", "..") \
            or tenant != normalize_path(tenant):
        raise ValueError(f"invalid tenant name: {tenant!r}")
    return PrefixBackend(inner, f"{TENANT_ROOT}/{tenant}")
