"""Unit tests for repro.sparse.ops."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.sparse import (
    CSRMatrix,
    permute_csr_columns,
    permute_csr_rows,
    transpose_csr,
)

from conftest import random_csr


class TestPermuteRows:
    def test_matches_dense_permutation(self, rng):
        m = random_csr(rng, 12, 9, 0.25)
        order = rng.permutation(12)
        got = permute_csr_rows(m, order)
        np.testing.assert_allclose(got.to_dense(), m.to_dense()[order])

    def test_identity_is_noop(self, paper_matrix):
        got = permute_csr_rows(paper_matrix, np.arange(6))
        assert got.allclose(paper_matrix)

    def test_paper_swap_rows_1_and_4(self, paper_matrix):
        # Fig 4a: exchange rows 1 and 4.
        order = np.array([0, 4, 2, 3, 1, 5])
        got = permute_csr_rows(paper_matrix, order)
        assert got.row_cols(1).tolist() == [0, 3, 4]
        assert got.row_cols(4).tolist() == [1, 3, 5]

    def test_preserves_canonical_form(self, rng):
        m = random_csr(rng, 20, 20, 0.1)
        got = permute_csr_rows(m, rng.permutation(20))
        got.validate()

    def test_invalid_permutation_rejected(self, paper_matrix):
        with pytest.raises(ValidationError):
            permute_csr_rows(paper_matrix, np.array([0, 0, 1, 2, 3, 4]))

    def test_empty_matrix(self):
        m = CSRMatrix.empty((3, 3))
        got = permute_csr_rows(m, np.array([2, 0, 1]))
        assert got.nnz == 0

    def test_inverse_recovers_original(self, rng):
        from repro.util.arrayops import rank_of_permutation

        m = random_csr(rng, 15, 10, 0.2)
        order = rng.permutation(15)
        back = permute_csr_rows(permute_csr_rows(m, order), rank_of_permutation(order))
        assert back.allclose(m)


class TestPermuteColumns:
    def test_matches_dense(self, rng):
        m = random_csr(rng, 10, 7, 0.3)
        col_map = rng.permutation(7)
        got = permute_csr_columns(m, col_map)
        dense = np.zeros_like(m.to_dense())
        dense[:, col_map] = 0  # placate linters; real check below
        expected = np.zeros((10, 7))
        orig = m.to_dense()
        for old in range(7):
            expected[:, col_map[old]] = orig[:, old]
        np.testing.assert_allclose(got.to_dense(), expected)

    def test_restores_canonical_form(self, rng):
        m = random_csr(rng, 10, 10, 0.3)
        got = permute_csr_columns(m, rng.permutation(10))
        got.validate()


class TestTranspose:
    def test_matches_dense(self, rng):
        m = random_csr(rng, 9, 14, 0.2)
        np.testing.assert_allclose(transpose_csr(m).to_dense(), m.to_dense().T)

    def test_empty(self):
        t = transpose_csr(CSRMatrix.empty((4, 6)))
        assert t.shape == (6, 4) and t.nnz == 0
