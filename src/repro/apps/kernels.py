"""Shared numerical helpers for the benchmark applications.

All randomness is seeded deterministically from (name, rank, extra) so
that every rank regenerates identical data on every run — the property
the paper relies on for pseudo-random number generators ("they produce
deterministic sequences of pseudo-random numbers starting from some seed
value", Section 2.3).
"""

from __future__ import annotations

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


def sparse_rows(name: str, rank: int, local_n: int, global_n: int,
                nnz_per_row: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A deterministic CSR block of ``local_n`` rows of a ``global_n`` matrix.

    Returns (indptr, indices, values).  The diagonal is included and
    dominant, so CG on the symmetric part converges.
    """
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
        total += float(np.dot(arr, np.sin(weights)))
    return total
