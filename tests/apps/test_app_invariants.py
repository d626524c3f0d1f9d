"""Application-specific invariants (beyond the generic recovery matrix)."""

import numpy as np
import pytest

from repro.apps import APPS
from repro.apps.kernels import checksum
from repro.core import C3Config, run_c3, run_original
from repro.storage import InMemoryStorage


class TestCG:
    def test_rho_stays_finite_and_positive(self):
        def probe(ctx):
            APPS["CG"](ctx, local_n=32, niter=20)
            return float(ctx.state.rho)

        result = run_original(probe, 4)
        result.raise_errors()
        for rho in result.returns:
            assert np.isfinite(rho) and rho >= 0

    def test_zeta_monotone_accumulation(self):
        def probe(ctx):
            APPS["CG"](ctx, local_n=16, niter=10)
            return float(ctx.state.zeta)

        result = run_original(probe, 2)
        result.raise_errors()
        assert all(0 < z <= 10 for z in result.returns)


class TestLU:
    def test_wavefront_values_bounded(self):
        def probe(ctx):
            APPS["LU"](ctx, local_nx=12, local_ny=12, niter=20)
            return float(np.abs(ctx.state.u).max())

        result = run_original(probe, 4)
        result.raise_errors()
        assert all(np.isfinite(m) and m < 100 for m in result.returns)

    def test_corner_ranks_have_boundary_neighbors(self):
        # 2x2 grid: every rank is a corner; still runs without deadlock
        result = run_original(APPS["LU"], 4)
        result.raise_errors()


class TestSPBT:
    def test_bt_heavier_than_sp(self):
        sp_t = run_original(APPS["SP"], 4)
        bt_t = run_original(APPS["BT"], 4)
        sp_t.raise_errors()
        bt_t.raise_errors()
        # BT models denser block solves: more charged work per sweep
        assert bt_t.virtual_time > sp_t.virtual_time

    def test_row_len_padded_to_rank_count(self):
        def probe(ctx):
            APPS["SP"](ctx, local_rows=4, row_len=10, niter=2)
            return ctx.state.u.shape[1]

        result = run_original(probe, 4)
        result.raise_errors()
        assert all(w % 4 == 0 for w in result.returns)


class TestMG:
    def test_hierarchy_shapes(self):
        def probe(ctx):
            APPS["MG"](ctx, local_n=64, levels=4, niter=2)
            return [v.shape[0] for v in ctx.state.v]

        result = run_original(probe, 2)
        result.raise_errors()
        assert result.returns[0] == [64, 32, 16, 8]

    def test_residual_positive(self):
        def probe(ctx):
            APPS["MG"](ctx, local_n=32, levels=3, niter=4)
            return ctx.state.resid

        result = run_original(probe, 2)
        result.raise_errors()
        assert all(r > 0 for r in result.returns)


class TestEP:
    def test_counts_sum_to_accepted_pairs(self):
        def probe(ctx):
            APPS["EP"](ctx, pairs_per_batch=2048, batches=3)
            return int(ctx.state.counts.sum())

        result = run_original(probe, 2)
        result.raise_errors()
        # the polar method accepts ~ pi/4 of the pairs
        for n in result.returns:
            assert 0.6 * 3 * 2048 < n < 0.95 * 3 * 2048

    def test_tiny_checkpoint_footprint(self):
        storage = InMemoryStorage()
        result, stats = run_c3(APPS["EP"], 2, storage=storage,
                               config=C3Config(checkpoint_interval=1e-4,
                                               max_checkpoints=1))
        result.raise_errors()
        # EP's whole state is a cursor + ten counters: well under 4 KiB
        assert stats[0].last_checkpoint_bytes < 4096


class TestFT:
    def test_spectrum_damps_over_time(self):
        def probe(ctx):
            APPS["FT"](ctx, local_rows=4, row_len=32, niter=8)
            return float(np.abs(ctx.state.field).max())

        result = run_original(probe, 2)
        result.raise_errors()
        assert all(np.isfinite(m) for m in result.returns)

    def test_complex_state_survives_checkpoint(self):
        ref = run_original(APPS["FT"], 2)
        ref.raise_errors()
        result, _ = run_c3(APPS["FT"], 2, storage=InMemoryStorage(),
                           config=C3Config(checkpoint_interval=2e-4))
        result.raise_errors()
        assert result.returns == ref.returns


class TestIS:
    def test_bucket_invariant_enforced_internally(self):
        # is_sort raises AssertionError internally if any key lands in the
        # wrong bucket; a clean run is the assertion
        result = run_original(APPS["IS"], 4)
        result.raise_errors()


class TestHPL:
    def test_checkpoint_excludes_matrix(self):
        storage = InMemoryStorage()
        result, stats = run_c3(APPS["HPL"], 2, storage=storage,
                               config=C3Config(checkpoint_interval=1e-9,
                                               max_checkpoints=1))
        result.raise_errors()
        # the 96x96 matrix alone would be ~74 kB; the checkpoint holds only
        # the trial cursor and residuals (recomputation, Section 8)
        assert stats[0].last_checkpoint_bytes < 8192

    def test_all_ranks_agree_on_residuals(self):
        def probe(ctx):
            APPS["HPL"](ctx, n=64, block=16, trials=2)
            return checksum(ctx.state.residuals)

        result = run_original(probe, 3)
        result.raise_errors()
        assert len(set(result.returns)) == 1


class TestSMG2000:
    def test_message_heavy_profile(self):
        """SMG2000 sends far more (and smaller) messages than CG at the
        same scale — the property behind the Velocity-2 anomaly."""
        smg, _ = run_c3(APPS["SMG2000"], 4, storage=InMemoryStorage(),
                        config=C3Config())
        cg, _ = run_c3(APPS["CG"], 4, storage=InMemoryStorage(),
                       config=C3Config())
        smg.raise_errors()
        cg.raise_errors()
        smg_msgs = sum(smg.sent_counts)
        cg_msgs = sum(cg.sent_counts)
        smg_avg = sum(smg.sent_bytes) / max(1, smg_msgs)
        cg_avg = sum(cg.sent_bytes) / max(1, cg_msgs)
        assert smg_msgs > 2 * cg_msgs
        assert smg_avg < cg_avg
