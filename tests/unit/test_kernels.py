"""Unit tests for repro.kernels (SpMM, SDDMM, tiled variants)."""

import numpy as np
import pytest

from repro.aspt import tile_matrix
from repro.errors import ShapeError
from repro.kernels import (
    assert_sddmm_correct,
    assert_spmm_correct,
    sddmm,
    sddmm_rowwise_reference,
    sddmm_tiled,
    spmm,
    spmm_rowwise_reference,
    spmm_tiled,
)
from repro.sparse import CSRMatrix, permute_csr_rows

from conftest import random_csr


@pytest.fixture
def operands(paper_matrix, rng):
    X = rng.normal(size=(6, 8))
    Y = rng.normal(size=(6, 8))
    return X, Y


class TestSpmm:
    def test_matches_dense(self, paper_matrix, operands):
        X, _ = operands
        got = spmm(paper_matrix, X)
        assert_spmm_correct(paper_matrix, X, got)

    def test_matches_reference_loops(self, paper_matrix, operands):
        X, _ = operands
        np.testing.assert_allclose(
            spmm(paper_matrix, X), spmm_rowwise_reference(paper_matrix, X)
        )

    def test_random_matrices(self, rng):
        for _ in range(5):
            m = random_csr(rng, 15, 11, 0.2)
            X = rng.normal(size=(11, 4))
            assert_spmm_correct(m, X, spmm(m, X))

    def test_empty_rows_stay_zero(self):
        m = CSRMatrix.from_dense([[0.0, 0.0], [1.0, 2.0]])
        got = spmm(m, np.ones((2, 3)))
        np.testing.assert_allclose(got[0], 0.0)
        np.testing.assert_allclose(got[1], 3.0)

    def test_empty_matrix(self):
        got = spmm(CSRMatrix.empty((3, 4)), np.ones((4, 2)))
        np.testing.assert_allclose(got, np.zeros((3, 2)))

    def test_shape_mismatch_rejected(self, paper_matrix):
        with pytest.raises(ShapeError):
            spmm(paper_matrix, np.ones((5, 3)))

    def test_out_parameter(self, paper_matrix, operands):
        X, _ = operands
        out = np.full((6, 8), 99.0)
        got = spmm(paper_matrix, X, out=out)
        assert got is out
        assert_spmm_correct(paper_matrix, X, got)

    def test_out_wrong_shape_rejected(self, paper_matrix, operands):
        X, _ = operands
        with pytest.raises(ShapeError):
            spmm(paper_matrix, X, out=np.zeros((5, 8)))

    def test_single_column(self, paper_matrix, rng):
        # SpMM with K=1 degenerates to SpMV.
        x = rng.normal(size=(6, 1))
        assert_spmm_correct(paper_matrix, x, spmm(paper_matrix, x))


class TestSddmm:
    def test_matches_dense(self, paper_matrix, operands):
        X, Y = operands
        got = sddmm(paper_matrix, X, Y)
        assert_sddmm_correct(paper_matrix, X, Y, got)

    def test_matches_reference_loops(self, paper_matrix, operands):
        X, Y = operands
        got = sddmm(paper_matrix, X, Y)
        ref = sddmm_rowwise_reference(paper_matrix, X, Y)
        np.testing.assert_allclose(got.values, ref.values)

    def test_scaling_by_sparse_values(self, operands):
        X, Y = operands
        base = CSRMatrix.from_dense(np.eye(6))
        doubled = base.with_values(base.values * 2.0)
        a = sddmm(base, X, Y)
        b = sddmm(doubled, X, Y)
        np.testing.assert_allclose(b.values, 2.0 * a.values)

    def test_pattern_preserved(self, paper_matrix, operands):
        X, Y = operands
        assert sddmm(paper_matrix, X, Y).same_pattern(paper_matrix)

    def test_empty_matrix(self):
        m = CSRMatrix.empty((3, 4))
        got = sddmm(m, np.ones((4, 2)), np.ones((3, 2)))
        assert got.nnz == 0

    def test_shape_mismatch_rejected(self, paper_matrix, rng):
        with pytest.raises(ShapeError):
            sddmm(paper_matrix, rng.normal(size=(6, 4)), rng.normal(size=(5, 4)))
        with pytest.raises(ShapeError):
            sddmm(paper_matrix, rng.normal(size=(6, 4)), rng.normal(size=(6, 5)))

    def test_random_matrices(self, rng):
        for _ in range(5):
            m = random_csr(rng, 12, 9, 0.25)
            X = rng.normal(size=(9, 5))
            Y = rng.normal(size=(12, 5))
            assert_sddmm_correct(m, X, Y, sddmm(m, X, Y))


class TestSpmmTiled:
    def test_paper_matrix(self, paper_matrix, operands):
        X, _ = operands
        tiled = tile_matrix(paper_matrix, 3, 2)
        assert_spmm_correct(paper_matrix, X, spmm_tiled(tiled, X))

    def test_reordered_paper_matrix(self, paper_matrix, operands):
        X, _ = operands
        reordered = permute_csr_rows(paper_matrix, np.array([0, 4, 2, 3, 1, 5]))
        tiled = tile_matrix(reordered, 3, 2)
        assert_spmm_correct(reordered, X, spmm_tiled(tiled, X))

    def test_random_matrices_various_panels(self, rng):
        for ph in (2, 3, 8):
            m = random_csr(rng, 25, 14, 0.25)
            X = rng.normal(size=(14, 4))
            tiled = tile_matrix(m, ph, 2)
            assert_spmm_correct(m, X, spmm_tiled(tiled, X))

    def test_all_dense(self, rng):
        dense = np.zeros((6, 8))
        dense[:, [1, 3]] = rng.normal(size=(6, 2))
        # ensure non-zero values
        dense[dense == 0.0] = 0.0
        m = CSRMatrix.from_dense(dense)
        X = rng.normal(size=(8, 4))
        tiled = tile_matrix(m, 3, 2)
        assert tiled.nnz_sparse == 0
        assert_spmm_correct(m, X, spmm_tiled(tiled, X))

    def test_all_sparse(self, rng):
        m = CSRMatrix.from_dense(np.eye(9))
        X = rng.normal(size=(9, 3))
        tiled = tile_matrix(m, 3, 2)
        assert tiled.nnz_dense == 0
        assert_spmm_correct(m, X, spmm_tiled(tiled, X))

    def test_matches_plain_spmm(self, rng):
        m = random_csr(rng, 30, 20, 0.2)
        X = rng.normal(size=(20, 6))
        tiled = tile_matrix(m, 4, 2)
        np.testing.assert_allclose(spmm_tiled(tiled, X), spmm(m, X))


class TestSddmmTiled:
    def test_paper_matrix(self, paper_matrix, operands):
        X, Y = operands
        tiled = tile_matrix(paper_matrix, 3, 2)
        got = sddmm_tiled(tiled, X, Y)
        assert_sddmm_correct(paper_matrix, X, Y, got)

    def test_random_matrices(self, rng):
        for ph in (2, 5):
            m = random_csr(rng, 20, 15, 0.25)
            X = rng.normal(size=(15, 4))
            Y = rng.normal(size=(20, 4))
            tiled = tile_matrix(m, ph, 2)
            assert_sddmm_correct(m, X, Y, sddmm_tiled(tiled, X, Y))

    def test_matches_plain_sddmm(self, rng):
        m = random_csr(rng, 18, 12, 0.3)
        X = rng.normal(size=(12, 5))
        Y = rng.normal(size=(18, 5))
        tiled = tile_matrix(m, 3, 2)
        got = sddmm_tiled(tiled, X, Y)
        np.testing.assert_allclose(got.values, sddmm(m, X, Y).values)

    def test_all_dense(self, rng):
        dense = np.zeros((4, 6))
        dense[:, [0, 5]] = 1.0
        m = CSRMatrix.from_dense(dense)
        X = rng.normal(size=(6, 3))
        Y = rng.normal(size=(4, 3))
        tiled = tile_matrix(m, 4, 2)
        assert tiled.nnz_sparse == 0
        assert_sddmm_correct(m, X, Y, sddmm_tiled(tiled, X, Y))


class TestValidators:
    def test_spmm_validator_detects_error(self, paper_matrix, operands):
        X, _ = operands
        bad = spmm(paper_matrix, X)
        bad[0, 0] += 1.0
        with pytest.raises(AssertionError):
            assert_spmm_correct(paper_matrix, X, bad)

    def test_sddmm_validator_detects_error(self, paper_matrix, operands):
        X, Y = operands
        bad = sddmm(paper_matrix, X, Y)
        bad = bad.with_values(bad.values + 1.0)
        with pytest.raises(AssertionError):
            assert_sddmm_correct(paper_matrix, X, Y, bad)

    def test_sddmm_validator_detects_pattern_mismatch(self, paper_matrix, operands):
        X, Y = operands
        other = CSRMatrix.from_dense(np.eye(6))
        with pytest.raises(AssertionError):
            assert_sddmm_correct(paper_matrix, X, Y, sddmm(other, X, Y))
