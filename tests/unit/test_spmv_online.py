"""Unit tests for the SpMV kernel/cost model, staircase generator and the
online reorderer extension."""

import numpy as np
import pytest

from repro.datasets import hidden_clusters, staircase
from repro.errors import ConfigError, ValidationError
from repro.gpu import GPUExecutor, P100
from repro.kernels import spmv, spmv_rowwise_reference
from repro.reorder import OnlineReorderer
from repro.similarity import average_consecutive_similarity
from repro.sparse import CSRMatrix, permute_csr_rows

from conftest import random_csr


class TestSpmv:
    def test_matches_dense(self, rng):
        m = random_csr(rng, 20, 15, 0.2)
        x = rng.normal(size=15)
        np.testing.assert_allclose(spmv(m, x), m.to_dense() @ x)

    def test_matches_reference_loops(self, paper_matrix, rng):
        x = rng.normal(size=6)
        np.testing.assert_allclose(
            spmv(paper_matrix, x), spmv_rowwise_reference(paper_matrix, x)
        )

    def test_empty_matrix(self):
        y = spmv(CSRMatrix.empty((4, 4)), np.ones(4))
        np.testing.assert_allclose(y, 0.0)

    def test_empty_rows_zero(self):
        m = CSRMatrix.from_dense([[0.0, 0.0], [2.0, 3.0]])
        y = spmv(m, np.array([1.0, 1.0]))
        np.testing.assert_allclose(y, [0.0, 5.0])

    def test_shape_mismatch_rejected(self, paper_matrix):
        with pytest.raises(ValueError):
            spmv(paper_matrix, np.ones(5))
        with pytest.raises(ValueError):
            spmv(paper_matrix, np.ones((6, 2)))


class TestSpmvCost:
    def test_basic_fields(self, rng):
        m = random_csr(rng, 200, 200, 0.05)
        cost = GPUExecutor(cache_mode="exact").spmv_cost(m)
        assert cost.op == "spmv" and cost.k == 1
        assert cost.flops == 2.0 * m.nnz
        assert cost.time_s > 0

    def test_spatial_locality_matters(self):
        # Ordered staircase: consecutive rows use adjacent x cache lines.
        ordered = staircase(512, 8, seed=0)
        rng = np.random.default_rng(1)
        scrambled = permute_csr_rows(ordered, rng.permutation(512).astype(np.int64))
        executor = GPUExecutor(
            P100.with_overrides(l2_bytes=16 * 1024), cache_mode="exact"
        )
        t_ordered = executor.spmv_cost(ordered).time_s
        t_scrambled = executor.spmv_cost(scrambled).time_s
        assert t_ordered < t_scrambled

    def test_requires_csr(self, rng):
        from repro.aspt import tile_matrix

        m = random_csr(rng, 20, 20, 0.2)
        with pytest.raises(ConfigError):
            GPUExecutor().spmv_cost(tile_matrix(m, 4))

    def test_unknown_variant(self, rng):
        with pytest.raises(ConfigError):
            GPUExecutor().spmv_cost(random_csr(rng, 10, 10, 0.3), "aspt")

    def test_empty_matrix(self):
        cost = GPUExecutor().spmv_cost(CSRMatrix.empty((8, 8)))
        assert cost.flops == 0.0 and cost.time_s > 0


class TestStaircase:
    def test_structure(self):
        m = staircase(5, 3, seed=0)
        assert m.shape == (5, 15)
        assert m.row_cols(2).tolist() == [6, 7, 8]

    def test_no_shared_columns(self):
        m = staircase(10, 4, seed=0)
        from repro.similarity import pairwise_jaccard_dense

        full = pairwise_jaccard_dense(m)
        np.fill_diagonal(full, 0.0)
        assert full.max() == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            staircase(0, 3)


class TestOnlineReorderer:
    def test_groups_identical_rows(self):
        idx = OnlineReorderer(100, siglen=32, seed=0)
        c1 = idx.insert_row([1, 5, 9])
        c2 = idx.insert_row([40, 50])
        c3 = idx.insert_row([1, 5, 9])
        assert c1 == c3 != c2
        assert idx.n_clusters == 2

    def test_recovers_hidden_clusters(self):
        m = hidden_clusters(40, 6, 512, 12, noise=0.05, seed=3)
        idx = OnlineReorderer(512, siglen=64, seed=0)
        idx.insert_matrix(m)
        reordered = permute_csr_rows(m, idx.order())
        assert (
            average_consecutive_similarity(reordered)
            > average_consecutive_similarity(m) + 0.3
        )

    def test_order_is_permutation(self, rng):
        m = random_csr(rng, 50, 40, 0.1)
        idx = OnlineReorderer(40, siglen=32, seed=0)
        idx.insert_matrix(m)
        assert sorted(idx.order().tolist()) == list(range(50))

    def test_min_similarity_gate(self):
        idx = OnlineReorderer(100, siglen=32, min_similarity=0.9, seed=0)
        idx.insert_row([1, 2, 3, 4])
        c2 = idx.insert_row([1, 2, 50, 60])  # Jaccard 2/6 < 0.9
        assert c2 == 1  # new cluster

    def test_max_cluster_cap(self):
        idx = OnlineReorderer(100, siglen=32, max_cluster=2, seed=0)
        clusters = [idx.insert_row([7, 8, 9]) for _ in range(5)]
        assert max(idx.cluster_sizes()) <= 2
        assert len(set(clusters)) >= 3

    def test_empty_rows_dont_cluster_with_content(self):
        idx = OnlineReorderer(100, siglen=32, seed=0)
        c1 = idx.insert_row([])
        c2 = idx.insert_row([3, 4])
        c3 = idx.insert_row([])
        assert c1 != c2
        assert c3 != c2

    def test_column_bound_validated(self):
        idx = OnlineReorderer(10, siglen=32)
        with pytest.raises(ValidationError):
            idx.insert_row([10])

    def test_matrix_width_validated(self, rng):
        idx = OnlineReorderer(10, siglen=32)
        with pytest.raises(ValidationError):
            idx.insert_matrix(random_csr(rng, 5, 12, 0.3))

    def test_bad_params(self):
        with pytest.raises(ValidationError):
            OnlineReorderer(10, siglen=10, bsize=3)
        with pytest.raises(ValidationError):
            OnlineReorderer(10, min_similarity=1.5)

    def test_empty_index_order(self):
        assert OnlineReorderer(10).order().size == 0

    def test_incremental_matches_batch_quality(self):
        # Online placement should reach similar panel quality as the batch
        # pipeline on a clean clustered stream.
        from repro.aspt import tile_matrix
        from repro.reorder import ReorderConfig, build_plan

        m = hidden_clusters(40, 8, 768, 16, noise=0.0, seed=5)
        idx = OnlineReorderer(768, siglen=64, seed=0)
        idx.insert_matrix(m)
        online_ratio = tile_matrix(permute_csr_rows(m, idx.order()), 8).dense_ratio
        plan = build_plan(
            m, ReorderConfig(siglen=64, panel_height=8, force_round1=True)
        )
        batch_ratio = plan.stats.dense_ratio_after
        assert online_ratio >= 0.8 * batch_ratio
