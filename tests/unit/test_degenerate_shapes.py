"""Degenerate-shape sweep: 0-row, 0-column, 1x1 and single-row matrices
pushed through the entire stack (formats, similarity, tiling, pipeline,
kernels, model).  Degenerate inputs are where container libraries rot."""

import numpy as np
import pytest

from repro.aspt import tile_matrix
from repro.gpu import GPUExecutor
from repro.kernels import sddmm, spmm
from repro.reorder import ReorderConfig, build_plan
from repro.similarity import LSHIndex, average_consecutive_similarity, minhash_signatures
from repro.sparse import (
    COOMatrix,
    CSRMatrix,
    csr_to_csc,
    permute_csr_rows,
    transpose_csr,
)

from conftest import maybe_streamed

DEGENERATE_SHAPES = [(0, 5), (5, 0), (0, 0), (1, 1), (1, 8), (8, 1)]


@pytest.mark.parametrize("shape", DEGENERATE_SHAPES)
class TestFormatsDegenerate:
    def test_empty_roundtrips(self, shape, streamed):
        m = maybe_streamed(CSRMatrix.empty(shape), streamed)
        m.validate()
        assert m.to_coo().to_csr().allclose(m)
        assert csr_to_csc(m).to_csr().allclose(m)
        assert transpose_csr(transpose_csr(m)).allclose(m)

    def test_permutation(self, shape):
        m = CSRMatrix.empty(shape)
        out = permute_csr_rows(m, np.arange(shape[0], dtype=np.int64))
        assert out.shape == shape


@pytest.mark.parametrize("shape", DEGENERATE_SHAPES)
class TestSimilarityDegenerate:
    def test_minhash(self, shape):
        m = CSRMatrix.empty(shape)
        sig = minhash_signatures(m, 8, seed=0)
        assert sig.shape == (shape[0], 8)

    def test_lsh(self, shape):
        m = CSRMatrix.empty(shape)
        pairs, sims = LSHIndex(siglen=8, bsize=2, seed=0).candidate_pairs(m)
        assert pairs.shape[0] == 0

    def test_avg_similarity(self, shape):
        assert average_consecutive_similarity(CSRMatrix.empty(shape)) == 0.0


@pytest.mark.parametrize("shape", DEGENERATE_SHAPES)
class TestPipelineDegenerate:
    def test_build_plan_and_kernels(self, shape, streamed):
        m = maybe_streamed(CSRMatrix.empty(shape), streamed)
        plan = build_plan(m, ReorderConfig(siglen=8, panel_height=2))
        X = np.ones((shape[1], 3))
        np.testing.assert_allclose(plan.spmm(X), np.zeros((shape[0], 3)))
        Y = np.ones((shape[0], 3))
        assert plan.sddmm(X, Y).nnz == 0

    def test_direct_kernels(self, shape, backend_name, streamed):
        m = maybe_streamed(CSRMatrix.empty(shape), streamed)
        X = np.ones((shape[1], 2))
        np.testing.assert_allclose(
            spmm(m, X, backend=backend_name), np.zeros((shape[0], 2))
        )
        out = sddmm(m, X, np.ones((shape[0], 2)))
        assert out.nnz == 0

    def test_tiling(self, shape):
        tiled = tile_matrix(CSRMatrix.empty(shape), 2, 2)
        assert tiled.dense_ratio == 0.0


@pytest.mark.parametrize("shape", [(1, 1), (1, 8), (8, 1)])
class TestModelDegenerateNonEmptyShapes:
    def test_costs_with_one_nnz(self, shape):
        coo = COOMatrix.from_arrays(
            shape, np.array([0]), np.array([0]), [2.0]
        )
        m = coo.to_csr()
        ex = GPUExecutor(cache_mode="exact")
        for variant in ("cusparse", "rowwise"):
            assert ex.spmm_cost(m, 16, variant).time_s > 0
        assert ex.sddmm_cost(m, 16, "rowwise").time_s > 0
        assert ex.spmv_cost(m).time_s > 0
        tiled = tile_matrix(m, 1, 1)
        assert ex.spmm_cost(tiled, 16, "aspt").time_s > 0


class TestSingleRowMatrix:
    def test_full_pipeline_single_row(self, rng, streamed):
        dense = np.zeros((1, 16))
        dense[0, [2, 7, 9]] = 1.0
        m = maybe_streamed(CSRMatrix.from_dense(dense), streamed)
        plan = build_plan(m, ReorderConfig(siglen=8, panel_height=4))
        X = rng.normal(size=(16, 4))
        np.testing.assert_allclose(plan.spmm(X), spmm(m, X))
        assert plan.row_order.tolist() == [0]
