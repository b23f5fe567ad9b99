"""Unit tests for repro.gpu.trace, costmodel and executor."""

import numpy as np
import pytest

from repro.aspt import tile_matrix
from repro.errors import ConfigError
from repro.gpu import (
    CostModelConfig,
    GPUExecutor,
    P100,
    block_access_stream,
    paper_example_access_counts,
)
from repro.gpu.trace import unique_block_column_count
from repro.sparse import CSRMatrix, permute_csr_rows

from conftest import random_csr


class TestBlockAccessStream:
    def test_dedup_within_block(self):
        # Two rows in one block sharing a column -> one access.
        dense = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        m = CSRMatrix.from_dense(dense)
        stream = block_access_stream(m, rows_per_block=2)
        assert sorted(stream.tolist()) == [0, 1, 2]

    def test_no_dedup_across_blocks(self):
        dense = np.array([[1.0, 0.0], [1.0, 0.0]])
        m = CSRMatrix.from_dense(dense)
        stream = block_access_stream(m, rows_per_block=1)
        assert stream.tolist() == [0, 0]

    def test_empty(self):
        assert block_access_stream(CSRMatrix.empty((4, 4)), 2).size == 0

    def test_paper_rowwise_count_is_13(self, paper_matrix):
        assert unique_block_column_count(paper_matrix, 2) == 13


class TestPaperExampleCounts:
    def test_full_walkthrough_13_12_6(self, paper_matrix):
        # The central worked example of the paper (Figs. 3 and 4):
        # row-wise = 13 accesses, ASpT = 12, ASpT + row reordering = 6.
        counts = paper_example_access_counts(
            paper_matrix,
            panel_height=3,
            rows_per_block=2,
            dense_threshold=2,
            round1_order=np.array([0, 4, 2, 3, 1, 5]),
            # Remainder rows (of the reordered matrix) grouped so that the
            # two pairs sharing a column land in the same thread block:
            # old rows (4,1) share column 3, (2,5) share column 2.
            round2_order=np.array([1, 4, 2, 5, 0, 3]),
        )
        assert counts.rowwise == 13
        assert counts.aspt == 12
        assert counts.aspt_reordered == 6

    def test_no_orders_defaults_to_identity(self, paper_matrix):
        counts = paper_example_access_counts(paper_matrix)
        assert counts.rowwise == 13
        assert counts.aspt == counts.aspt_reordered == 12


class TestCostModelConfig:
    def test_defaults_valid(self):
        CostModelConfig()

    def test_bw_eff_lookup(self):
        cfg = CostModelConfig()
        assert cfg.bw_eff("aspt") == cfg.aspt_bw_eff
        with pytest.raises(ConfigError):
            cfg.bw_eff("nonsense")

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            CostModelConfig(aspt_bw_eff=1.5)
        with pytest.raises(ConfigError):
            CostModelConfig(warps_per_block=0)
        with pytest.raises(ConfigError):
            CostModelConfig(cache_slack=0.0)
        with pytest.raises(ConfigError):
            CostModelConfig(launch_overhead_s=-1.0)

    def test_with_overrides(self):
        cfg = CostModelConfig().with_overrides(l2_utilization=0.25)
        assert cfg.l2_utilization == 0.25


class TestExecutorSpmm:
    @pytest.fixture
    def executor(self):
        return GPUExecutor(P100, cache_mode="exact")

    def test_cost_fields_populated(self, executor, rng):
        m = random_csr(rng, 64, 64, 0.1)
        cost = executor.spmm_cost(m, 512, "rowwise")
        assert cost.time_s > 0
        assert cost.flops == 2.0 * m.nnz * 512
        assert cost.gflops > 0
        assert cost.total_bytes > 0
        assert set(cost.bytes_breakdown) == {"s", "x_sparse", "y"}

    def test_aspt_requires_tiled(self, executor, rng):
        m = random_csr(rng, 32, 32, 0.1)
        with pytest.raises(ConfigError):
            executor.spmm_cost(m, 512, "aspt")

    def test_rowwise_requires_csr(self, executor, rng):
        m = random_csr(rng, 32, 32, 0.1)
        tiled = tile_matrix(m, 8, 2)
        with pytest.raises(ConfigError):
            executor.spmm_cost(tiled, 512, "rowwise")

    def test_unknown_variant(self, executor, rng):
        with pytest.raises(ConfigError):
            executor.spmm_cost(random_csr(rng, 8, 8, 0.2), 512, "magma")

    def test_k_scaling_roughly_linear(self, executor, rng):
        # Needs a paper-scale matrix so that launch overhead is negligible
        # relative to traffic (the paper filters for >= 100K nnz).
        m = random_csr(rng, 2000, 2000, 0.01)
        t512 = executor.spmm_cost(m, 512, "rowwise").time_s
        t1024 = executor.spmm_cost(m, 1024, "rowwise").time_s
        # Doubling K at least doubles traffic; it can be superlinear
        # because L2 holds half as many (twice-as-wide) X rows.
        assert 1.8 < t1024 / t512 < 4.0

    def test_identical_rows_make_aspt_win(self, rng):
        # A matrix of identical rows: ASpT captures everything in dense
        # tiles, the row-wise kernel re-fetches per block; with a tiny L2
        # the gap must be large.
        executor = GPUExecutor(
            P100.with_overrides(l2_bytes=64 * 1024), cache_mode="exact"
        )
        dense = np.zeros((256, 512))
        dense[:, rng.integers(0, 512, size=32)] = 1.0
        m = CSRMatrix.from_dense(dense)
        tiled = tile_matrix(m, 32, 2)
        assert tiled.dense_ratio == 1.0
        aspt = executor.spmm_cost(tiled, 512, "aspt")
        cusp = executor.spmm_cost(m, 512, "cusparse")
        assert cusp.time_s / aspt.time_s > 1.5

    def test_diagonal_matrix_aspt_no_better(self, rng):
        executor = GPUExecutor(P100, cache_mode="exact")
        m = CSRMatrix.from_dense(np.eye(256))
        tiled = tile_matrix(m, 32, 2)
        aspt = executor.spmm_cost(tiled, 512, "aspt")
        rowwise = executor.spmm_cost(m, 512, "rowwise")
        # No dense tiles and no reuse: ASpT cannot beat row-wise here.
        assert aspt.time_s >= rowwise.time_s * 0.99

    def test_reordering_reduces_traffic_on_hidden_clusters(self, rng):
        # Build a matrix with strong hidden row clusters, shuffled.
        n_clusters, rows_per, n_cols = 16, 16, 2048
        patterns = [
            np.sort(rng.choice(n_cols, size=24, replace=False))
            for _ in range(n_clusters)
        ]
        rows = []
        for c in range(n_clusters):
            for _ in range(rows_per):
                rows.append(patterns[c])
        order = rng.permutation(n_clusters * rows_per)
        dense = np.zeros((n_clusters * rows_per, n_cols))
        for r, pat in enumerate(rows):
            dense[r, pat] = 1.0
        shuffled = CSRMatrix.from_dense(dense[order])
        # Recover clustering by sorting rows by pattern (ideal reordering).
        executor = GPUExecutor(
            P100.with_overrides(l2_bytes=32 * 1024), cache_mode="exact"
        )
        tiled_nr = tile_matrix(shuffled, 16, 2)
        cost_nr = executor.spmm_cost(tiled_nr, 512, "aspt")
        # Ideal reorder: restore original grouping.
        inverse = np.argsort(order)
        reordered = permute_csr_rows(shuffled, inverse.astype(np.int64))
        tiled_rr = tile_matrix(reordered, 16, 2)
        cost_rr = executor.spmm_cost(tiled_rr, 512, "aspt")
        assert tiled_rr.dense_ratio > tiled_nr.dense_ratio
        assert cost_nr.time_s / cost_rr.time_s > 1.1

    def test_empty_matrix_cost_is_overhead(self, executor):
        m = CSRMatrix.empty((64, 64))
        cost = executor.spmm_cost(m, 512, "rowwise")
        assert cost.time_s > 0
        assert cost.flops == 0

    def test_as_dict_roundtrip(self, executor, rng):
        m = random_csr(rng, 16, 16, 0.2)
        d = executor.spmm_cost(m, 512, "cusparse").as_dict()
        assert d["op"] == "spmm" and d["variant"] == "cusparse"
        assert d["total_bytes"] == pytest.approx(sum(d["bytes_breakdown"].values()))


class TestExecutorSddmm:
    @pytest.fixture
    def executor(self):
        return GPUExecutor(P100, cache_mode="exact")

    def test_cost_fields(self, executor, rng):
        m = random_csr(rng, 64, 64, 0.1)
        cost = executor.sddmm_cost(m, 512, "rowwise")
        assert cost.op == "sddmm"
        assert "out" in cost.bytes_breakdown
        assert cost.flops == 2.0 * m.nnz * 512 + m.nnz

    def test_aspt_variant(self, executor, rng):
        m = random_csr(rng, 64, 64, 0.1)
        tiled = tile_matrix(m, 16, 2)
        cost = executor.sddmm_cost(tiled, 512, "aspt")
        assert cost.variant == "aspt"
        assert cost.time_s > 0

    def test_bidmach_slower_than_aspt(self, executor, rng):
        # Paper-scale matrix; at toy sizes launch overhead would dominate.
        m = random_csr(rng, 4000, 4000, 0.005)
        tiled = tile_matrix(m, 16, 2)
        aspt = executor.sddmm_cost(tiled, 512, "aspt")
        bid = executor.sddmm_cost(m, 512, "bidmach")
        assert bid.time_s / aspt.time_s > 1.5

    def test_unknown_variant(self, executor, rng):
        with pytest.raises(ConfigError):
            executor.sddmm_cost(random_csr(rng, 8, 8, 0.2), 512, "cusparse")

    def test_invalid_cache_mode(self):
        with pytest.raises(ConfigError):
            GPUExecutor(P100, cache_mode="magic")
