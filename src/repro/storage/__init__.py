"""Stable-storage substrate: backends, checkpoint stores, drain daemon.

Everything about checkpoint lines — commit, validation, the global
last-committed queries, GC — is a :class:`CheckpointStore` method; wrap
a bare backend with :func:`as_store` to ask it.  :mod:`.manifest` holds
the commit record's one codec and the section digest.
"""

from .drain import DrainDaemon, DrainDevice, DrainReport
from .manifest import section_digest
from .namespace import PrefixBackend, tenant_backend
from .stable import DiskStorage, InMemoryStorage, StorageBackend, StorageError
from .store import CheckpointStore, ScatterStore, as_store
from .wal import WalStore

__all__ = [
    "StorageBackend", "InMemoryStorage", "DiskStorage", "StorageError",
    "PrefixBackend", "tenant_backend", "section_digest",
    "DrainDaemon", "DrainDevice", "DrainReport",
    "CheckpointStore", "ScatterStore", "WalStore", "as_store",
]
