"""Shared numeric kernels."""

import os
import signal
import sys
import threading
import time
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import APPS, kernels
from repro.apps.kernels import (
    block_partition, checksum, csr_matvec, grid_2d, seeded_rng, sparse_rows,
)
from repro.core import C3Config, run_fault_tolerant, run_original
from repro.mpi import FaultPlan, FaultSpec
from repro.storage import DiskStorage, WalStore


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


@pytest.fixture
def empty_cache(monkeypatch):
    """A private, empty block cache; ``draws`` counts generator seeds."""
    monkeypatch.setattr(kernels, "_SPARSE_CACHE", OrderedDict())
    monkeypatch.setattr(kernels, "_SPARSE_HELD", 0)
    draws = []

    def counting_rng(*args):
        draws.append(args)
        return seeded_rng(*args)

    monkeypatch.setattr(kernels, "seeded_rng", counting_rng)
    return draws


class TestBlockCache:
    def test_a_repeat_key_does_not_redraw(self, empty_cache):
        first = sparse_rows("cg", 1, 64, 256, 8)
        assert sparse_rows("cg", 1, 64, 256, 8) is first
        assert empty_cache == [("cg", 1)]
        sparse_rows("cg", 2, 64, 256, 8)
        assert empty_cache == [("cg", 1), ("cg", 2)]

    def test_blocks_are_read_only_and_bitwise_the_reference(self,
                                                            empty_cache):
        for _ in range(2):  # built, then cached
            got = sparse_rows("cg", 3, 128, 512, 6)
            want = reference_sparse_rows("cg", 3, 128, 512, 6)
            for g, w in zip(got, want):
                assert not g.flags.writeable
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got[2][0] = 0.0

    def test_eviction_honours_the_byte_bound(self, empty_cache,
                                             monkeypatch):
        one = sum(a.nbytes for a in sparse_rows("cg", 0, 64, 256, 8))
        monkeypatch.setattr(kernels, "SPARSE_CACHE_BYTES", one * 5 // 2)
        for rank in (1, 2):
            sparse_rows("cg", rank, 64, 256, 8)
        cache = kernels._SPARSE_CACHE
        assert list(cache) == [("cg", r, 64, 256, 8) for r in (1, 2)]
        sparse_rows("cg", 1, 64, 256, 8)  # touch: rank 2 is now eldest
        sparse_rows("cg", 3, 64, 256, 8)
        assert list(cache) == [("cg", r, 64, 256, 8) for r in (1, 3)]
        held = sum(a.nbytes for block in cache.values() for a in block)
        assert kernels._SPARSE_HELD == held <= kernels.SPARSE_CACHE_BYTES
        # a block over the whole bound is built, returned and not kept
        monkeypatch.setattr(kernels, "SPARSE_CACHE_BYTES", one - 1)
        big = sparse_rows("cg", 4, 64, 256, 8)
        assert not big[0].flags.writeable
        assert ("cg", 4, 64, 256, 8) not in cache

    def test_threads_asking_for_one_key_get_the_same_arrays(self,
                                                            empty_cache):
        """More threads than cores, switching often: whichever builds,
        every thread gets the arrays cached first."""
        start = threading.Barrier(4)
        got = []

        def ask():
            start.wait()
            got.append(sparse_rows("cg", 0, 2048, 8192, 8))

        threads = [threading.Thread(target=ask) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 4
        assert all(a is b for block in got for a, b in zip(block, got[0]))
        assert kernels._SPARSE_CACHE[("cg", 0, 2048, 8192, 8)] is got[0]

    def test_a_fork_while_a_thread_holds_the_lock_leaves_it_free(
            self, empty_cache):
        """The service's executor threads fork ``processes`` workers
        while other threads may be inside ``sparse_rows``: the child
        must not start with the cache lock held."""
        holding = threading.Event()

        def hold():
            with kernels._SPARSE_LOCK:
                holding.set()
                time.sleep(0.2)

        holder = threading.Thread(target=hold)
        holder.start()
        holding.wait()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if len(sparse_rows("cg", 0, 64, 256, 8)[0]) == 65 \
                    else 2
            finally:
                os._exit(code)
        holder.join()
        deadline = time.monotonic() + 30
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done and os.waitstatus_to_exitcode(status) == 0


def test_cg_killed_on_processes_restores_to_the_golden_checksum(tmp_path):
    """The golden run caches the blocks in this process; the forked
    workers inherit them read-only, and the restarted run decodes its
    own from the WAL on disk."""
    def cg(ctx):
        return APPS["CG"](ctx, local_n=256, nnz_per_row=8, niter=12)

    golden = run_original(cg, 4)
    golden.raise_errors()
    res = run_fault_tolerant(
        cg, 4, storage=WalStore(DiskStorage(str(tmp_path / "wal"))),
        config=C3Config(checkpoint_interval=golden.virtual_time * 0.2),
        fault_plan=FaultPlan([FaultSpec(rank=2,
                                        at_time=golden.virtual_time * 0.6)]),
        engine="processes:2", wall_timeout=120)
    assert res.restarts == 1
    assert all(s.restored_version >= 1 for s in res.stats)
    assert res.returns == golden.returns


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
