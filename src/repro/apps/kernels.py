"""Shared numerical helpers for the benchmark applications.

All randomness is seeded deterministically from (name, rank, extra) so
that every rank regenerates identical data on every run — the property
the paper relies on for pseudo-random number generators ("they produce
deterministic sequences of pseudo-random numbers starting from some seed
value", Section 2.3).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Tuple

import numpy as np


def seeded_rng(name: str, rank: int = 0, extra: int = 0) -> np.random.Generator:
    """A deterministic per-(app, rank, instance) random generator.

    Seeded with a stable digest (not Python's per-process-randomized
    ``hash``), so data is identical across processes and runs.
    """
    import zlib
    seed = zlib.crc32(f"{name}:{rank}:{extra}".encode()) or 1
    return np.random.default_rng(seed)


#: bytes of CSR blocks :func:`sparse_rows` keeps per process (DESIGN.md
#: §6, "The CG block cache"); ckpt-stream's CG holds 4.5 MB of them
SPARSE_CACHE_BYTES = 32 << 20
#: (name, rank, local_n, global_n, nnz_per_row) -> read-only block, LRU first
_SPARSE_CACHE: "OrderedDict[tuple, Tuple[np.ndarray, ...]]" = OrderedDict()
#: bytes of the blocks in ``_SPARSE_CACHE``
_SPARSE_HELD = 0
#: guards the cache's dict operations only, never a build; a fork waits
#: for it, so no forked child starts with it held
_SPARSE_LOCK = threading.Lock()
os.register_at_fork(before=_SPARSE_LOCK.acquire,
                    after_in_parent=_SPARSE_LOCK.release,
                    after_in_child=_SPARSE_LOCK.release)


def sparse_rows(name: str, rank: int, local_n: int, global_n: int,
                nnz_per_row: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A deterministic CSR block of ``local_n`` rows of a ``global_n`` matrix.

    Returns (indptr, indices, values), read-only.  The diagonal is
    included and dominant, so CG on the symmetric part converges.  A
    process builds each block once: later calls with the same arguments
    get the same arrays from a byte-bounded LRU cache.  Threads that
    miss on one key together may each build it; all get the arrays
    cached first.
    """
    global _SPARSE_HELD
    key = (name, rank, local_n, global_n, nnz_per_row)
    with _SPARSE_LOCK:  # the service's executor threads share the cache
        block = _SPARSE_CACHE.get(key)
        if block is not None:
            _SPARSE_CACHE.move_to_end(key)
            return block
    block = _build_sparse_rows(*key)
    for a in block:
        a.flags.writeable = False
    nbytes = sum(a.nbytes for a in block)
    with _SPARSE_LOCK:
        first = _SPARSE_CACHE.get(key)
        if first is not None:
            return first
        if nbytes <= SPARSE_CACHE_BYTES:
            while _SPARSE_CACHE and _SPARSE_HELD + nbytes > SPARSE_CACHE_BYTES:
                _, evicted = _SPARSE_CACHE.popitem(last=False)
                _SPARSE_HELD -= sum(a.nbytes for a in evicted)
            _SPARSE_CACHE[key] = block
            _SPARSE_HELD += nbytes
    return block


def _build_sparse_rows(name: str, rank: int, local_n: int, global_n: int,
                       nnz_per_row: int,
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = seeded_rng(name, rank)
    k = min(nnz_per_row - 1, global_n - 1)
    diag = rank * local_n + np.arange(local_n, dtype=np.int64)
    # Row by row only what consumes the generator, in its order: each
    # row's off-diagonal picks, then one normal per stored entry (k + 1,
    # or k when the picks already hold the diagonal).
    cols = np.empty((local_n, k + 1), dtype=np.int64)
    draws = []
    for i in range(local_n):
        picks = rng.choice(global_n, size=k, replace=False)
        cols[i, :k] = picks
        draws.append(rng.standard_normal(k + 1 - int(diag[i] in picks)))
    # Each row's entries: its picks plus the diagonal, sorted, with the
    # diagonal kept once.
    cols[:, k] = diag
    cols.sort(axis=1)
    keep = np.ones(cols.shape, dtype=bool)
    keep[:, 1:] = cols[:, 1:] != cols[:, :-1]
    counts = keep.sum(axis=1)
    indptr = np.zeros(local_n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = cols[keep]
    values = np.concatenate(draws) * 0.1
    values[indices == np.repeat(diag, counts)] = nnz_per_row + 1.0  # dominance
    return indptr, indices, values


#: cells :func:`diffuse` updates per block: a block of ``u`` and of
#: ``new`` (2 x 128 KiB of float64) stay in L2 across its five passes
DIFFUSE_BLOCK = 16384


def diffuse(u: np.ndarray, new: np.ndarray, alpha: float) -> None:
    """``new[1:-1] = u[1:-1] + alpha * (u[:-2] - 2 * u[1:-1] + u[2:])``.

    The same operations in the same order as that expression, so the
    result is bitwise equal, but written into ``new`` without a
    temporary: ``new`` itself holds each block's partial sums.  ``new``
    must not overlap ``u``; its two end cells are left untouched.
    """
    n = len(u) - 2
    for lo in range(0, n, DIFFUSE_BLOCK):
        hi = min(lo + DIFFUSE_BLOCK, n)
        out = new[lo + 1:hi + 1]
        mid = u[lo + 1:hi + 1]
        np.multiply(2, mid, out=out)
        np.subtract(u[lo:hi], out, out=out)
        np.add(out, u[lo + 2:hi + 2], out=out)
        np.multiply(alpha, out, out=out)
        np.add(mid, out, out=out)


def csr_matvec(indptr: np.ndarray, indices: np.ndarray, values: np.ndarray,
               x: np.ndarray) -> np.ndarray:
    """y = A @ x for a CSR block (vectorized with reduceat)."""
    if len(indices) == 0:
        return np.zeros(len(indptr) - 1)
    prods = values * x[indices]
    # reduceat needs strictly valid segment starts; empty rows handled below.
    starts = indptr[:-1]
    y = np.add.reduceat(prods, np.minimum(starts, len(prods) - 1))
    empty = indptr[1:] == indptr[:-1]
    y[empty] = 0.0
    return y


def block_partition(n: int, nprocs: int, rank: int) -> Tuple[int, int]:
    """Contiguous block partition of n items; returns (start, count)."""
    base = n // nprocs
    rem = n % nprocs
    if rank < rem:
        start = rank * (base + 1)
        count = base + 1
    else:
        start = rem * (base + 1) + (rank - rem) * base
        count = base
    return start, count


def grid_2d(nprocs: int) -> Tuple[int, int]:
    """The most square 2D factorization of ``nprocs`` (py >= px)."""
    px = int(np.sqrt(nprocs))
    while nprocs % px:
        px -= 1
    return px, nprocs // px


def checksum(*arrays) -> float:
    """Order-stable scalar digest used to compare runs."""
    total = 0.0
    for a in arrays:
        arr = np.asarray(a, dtype=np.float64).reshape(-1)
        weights = np.arange(1, arr.size + 1, dtype=np.float64)
        total += float(np.dot(arr, np.sin(weights, out=weights)))
    return total
