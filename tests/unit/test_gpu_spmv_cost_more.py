"""Additional GPU-model tests: SpMV spatial model details, cost-view
consistency, and executor behaviours not covered elsewhere."""

import numpy as np
import pytest

from repro.datasets import banded, staircase
from repro.gpu import GPUExecutor, P100
from repro.gpu.costmodel import CostModelConfig
from repro.reorder import ReorderConfig, build_plan
from repro.sparse import CSRMatrix, permute_csr_rows

from conftest import random_csr


class TestSpmvSpatialModel:
    def test_line_granularity(self, rng):
        # 32 fp32 elements per 128 B line: a row touching elements 0..31
        # costs one line, 0..32 costs two.
        one_line = CSRMatrix.from_dense(
            np.concatenate([np.ones((1, 32)), np.zeros((1, 32))], axis=1)
        )
        two_lines = CSRMatrix.from_dense(np.ones((1, 33)) * 1.0)
        # Pad to same n_cols for comparability.
        two_lines = CSRMatrix.from_arrays(
            (1, 64), [0, 33], np.arange(33), np.ones(33)
        )
        ex = GPUExecutor(cache_mode="exact")
        a = ex.spmv_cost(one_line).bytes_breakdown["x_sparse"]
        b = ex.spmv_cost(two_lines).bytes_breakdown["x_sparse"]
        assert b == 2 * a

    def test_banded_vs_shuffled(self, rng):
        # A banded matrix reads overlapping vector lines row to row; a row
        # shuffle destroys that.  The vector must be much larger than the
        # modelled L2 (here 16K columns = 512 lines vs a 64-line cache) and
        # launch overhead is zeroed so pure traffic decides.
        m = banded(16384, 2, seed=0)
        shuffled = permute_csr_rows(m, rng.permutation(16384).astype(np.int64))
        ex = GPUExecutor(
            P100.with_overrides(l2_bytes=8 * 1024),
            config=CostModelConfig(launch_overhead_s=0.0),
            cache_mode="exact",
        )
        assert ex.spmv_cost(m).time_s < ex.spmv_cost(shuffled).time_s

    def test_k_is_one(self, rng):
        cost = GPUExecutor().spmv_cost(random_csr(rng, 50, 50, 0.1))
        assert cost.k == 1

    def test_cusparse_variant_no_block_dedup(self):
        # With one row per block, identical adjacent rows cannot share
        # line fetches at the block level (only through L2).
        dense = np.zeros((64, 2048))
        dense[:, :8] = 1.0  # all rows identical
        m = CSRMatrix.from_dense(dense)
        ex = GPUExecutor(
            P100.with_overrides(l2_bytes=4096), cache_mode="exact",
            config=CostModelConfig(l2_utilization=0.001),
        )
        rowwise = ex.spmv_cost(m, "rowwise")
        cusp = ex.spmv_cost(m, "cusparse")
        assert cusp.bytes_breakdown["x_sparse"] >= rowwise.bytes_breakdown["x_sparse"]


class TestCostViewConsistency:
    def test_round2_changes_remainder_stream_cost(self, rng):
        # A plan with round-2 reordering must produce a remainder cost at
        # most that of the unreordered remainder (on a matrix with
        # remainder similarity to exploit).
        from repro.datasets import hidden_clusters

        m = hidden_clusters(96, 8, 2048, 16, noise=0.2, seed=1)
        ex = GPUExecutor(P100.with_overrides(l2_bytes=64 * 1024))
        plan_r2 = build_plan(
            m, ReorderConfig(panel_height=16, force_round1=False, force_round2=True)
        )
        plan_no = build_plan(
            m, ReorderConfig(panel_height=16, force_round1=False, force_round2=False)
        )
        t_r2 = ex.spmm_cost(plan_r2.cost_view(), 512, "aspt").time_s
        t_no = ex.spmm_cost(plan_no.cost_view(), 512, "aspt").time_s
        assert t_r2 <= t_no * 1.001

    def test_cost_view_dense_parts_shared(self, rng):
        m = random_csr(rng, 40, 30, 0.2)
        plan = build_plan(m, ReorderConfig(panel_height=8))
        view = plan.cost_view()
        assert view.panel_dense_cols is plan.tiled.panel_dense_cols
        assert view.spec is plan.tiled.spec


class TestExecutorEdgeCases:
    def test_exact_and_approx_agree_when_everything_fits(self, rng):
        # L2 big enough for all rows: both cache modes see only cold misses.
        m = random_csr(rng, 100, 50, 0.1)
        exact = GPUExecutor(cache_mode="exact").spmm_cost(m, 512, "rowwise")
        approx = GPUExecutor(cache_mode="approx").spmm_cost(m, 512, "rowwise")
        assert exact.bytes_breakdown["x_sparse"] == pytest.approx(
            approx.bytes_breakdown["x_sparse"], rel=0.25
        )

    def test_staircase_has_no_x_reuse_for_spmm(self):
        m = staircase(256, 4, seed=0)
        cost = GPUExecutor(cache_mode="exact").spmm_cost(m, 512, "rowwise")
        # Every column unique: zero hits regardless of cache size.
        assert cost.x_hit_rate == 0.0

    def test_l2_time_can_dominate(self):
        # A matrix whose X rows all hit in L2 with very many re-reads: the
        # L2-bandwidth term must bound the time from below.
        dense = np.zeros((512, 64))
        dense[:, :16] = 1.0  # 512 identical rows, X fits trivially
        m = CSRMatrix.from_dense(dense)
        device = P100.with_overrides(l2_bandwidth=1e9)  # cripple L2
        slow = GPUExecutor(device, cache_mode="exact").spmm_cost(m, 512, "rowwise")
        fast = GPUExecutor(P100, cache_mode="exact").spmm_cost(m, 512, "rowwise")
        assert slow.time_s > fast.time_s

