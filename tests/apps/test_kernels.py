"""Shared numeric kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.kernels import (
    block_partition, checksum, csr_matvec, grid_2d, seeded_rng, sparse_rows,
)


class TestSeededRng:
    def test_deterministic(self):
        a = seeded_rng("x", 1, 2).standard_normal(5)
        b = seeded_rng("x", 1, 2).standard_normal(5)
        assert np.array_equal(a, b)

    def test_distinct_streams(self):
        a = seeded_rng("x", 1).standard_normal(5)
        b = seeded_rng("x", 2).standard_normal(5)
        assert not np.array_equal(a, b)


class TestSparse:
    def test_csr_structure(self):
        indptr, indices, values = sparse_rows("t", 0, 10, 40, 6)
        assert len(indptr) == 11
        assert indptr[-1] == len(indices) == len(values)
        assert indices.max() < 40

    def test_diagonal_present_and_dominant(self):
        indptr, indices, values = sparse_rows("t", 1, 8, 32, 5)
        row_start = 1 * 8
        for i in range(8):
            cols = indices[indptr[i]:indptr[i + 1]]
            vals = values[indptr[i]:indptr[i + 1]]
            diag_mask = cols == row_start + i
            assert diag_mask.sum() == 1
            assert vals[diag_mask][0] > np.abs(vals[~diag_mask]).sum()

    def test_matvec_matches_dense(self):
        n = 16
        indptr, indices, values = sparse_rows("t", 0, n, n, 4)
        dense = np.zeros((n, n))
        for i in range(n):
            dense[i, indices[indptr[i]:indptr[i + 1]]] = \
                values[indptr[i]:indptr[i + 1]]
        x = np.arange(n, dtype=np.float64)
        assert np.allclose(csr_matvec(indptr, indices, values, x), dense @ x)


def reference_sparse_rows(name, rank, local_n, global_n, nnz_per_row):
    """The row-by-row construction ``sparse_rows`` vectorises: the spec."""
    rng = seeded_rng(name, rank)
    row_start = rank * local_n
    indptr = np.zeros(local_n + 1, dtype=np.int64)
    indices = []
    values = []
    for i in range(local_n):
        cols = rng.choice(global_n, size=min(nnz_per_row - 1, global_n - 1),
                          replace=False)
        cols = cols[cols != row_start + i]
        cols = np.sort(np.concatenate([cols, [row_start + i]]))
        vals = rng.standard_normal(len(cols)) * 0.1
        vals[cols == row_start + i] = nnz_per_row + 1.0
        indices.append(cols)
        values.append(vals)
        indptr[i + 1] = indptr[i] + len(cols)
    return indptr, np.concatenate(indices), np.concatenate(values)


@pytest.mark.parametrize("rank,local_n,global_n,nnz", [
    (0, 8192, 32768, 8), (3, 8192, 32768, 8),     # the perf ckpt-stream CG
    (0, 8, 512, 4), (63, 8, 512, 4),              # the scaling study's CG
    (5, 32, 512, 4),                              # a campaign cell's CG
    (0, 1, 1, 8), (0, 3, 3, 8), (2, 5, 15, 1), (1, 8, 32, 5),  # tiny
])
def test_sparse_rows_is_bitwise_the_row_by_row_reference(rank, local_n,
                                                          global_n, nnz):
    got = sparse_rows("cg", rank, local_n, global_n, nnz)
    want = reference_sparse_rows("cg", rank, local_n, global_n, nnz)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


class TestPartition:
    @given(n=st.integers(1, 100), p=st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_block_partition_covers_exactly(self, n, p):
        covered = []
        for r in range(p):
            start, count = block_partition(n, p, r)
            covered.extend(range(start, start + count))
        assert covered == list(range(n))

    @given(p=st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_grid_2d_factors(self, p):
        a, b = grid_2d(p)
        assert a * b == p
        assert a <= b


class TestChecksum:
    def test_order_sensitive(self):
        assert checksum([1.0, 2.0]) != checksum([2.0, 1.0])

    def test_deterministic(self):
        a = np.arange(10.0)
        assert checksum(a) == checksum(a.copy())

    def test_multiple_arrays(self):
        assert checksum([1.0], [2.0]) == checksum([1.0]) + checksum([2.0])
