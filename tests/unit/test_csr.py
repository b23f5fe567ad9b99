"""Unit tests for repro.sparse.csr."""

import numpy as np
import pytest

from repro.errors import FormatError, ShapeError
from repro.sparse import CSRMatrix, transpose_csr


class TestConstruction:
    def test_from_dense_roundtrip(self):
        dense = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        m = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(m.to_dense(), dense)
        assert m.nnz == 4

    def test_from_arrays_canonicalises_unsorted_rows(self):
        # row 0 has columns [2, 0] out of order
        m = CSRMatrix.from_arrays((1, 3), [0, 2], [2, 0], [1.0, 2.0])
        assert m.colidx.tolist() == [0, 2]
        assert m.values.tolist() == [2.0, 1.0]

    def test_from_arrays_sums_duplicates(self):
        m = CSRMatrix.from_arrays((1, 3), [0, 3], [1, 1, 2], [1.0, 2.0, 5.0])
        assert m.colidx.tolist() == [1, 2]
        assert m.values.tolist() == [3.0, 5.0]

    def test_from_arrays_default_values(self):
        m = CSRMatrix.from_arrays((2, 2), [0, 1, 2], [0, 1])
        assert m.values.tolist() == [1.0, 1.0]

    def test_empty(self):
        m = CSRMatrix.empty((3, 4))
        assert m.nnz == 0
        assert m.rowptr.tolist() == [0, 0, 0, 0]

    def test_bad_rowptr_start_rejected(self):
        with pytest.raises(FormatError):
            CSRMatrix.from_arrays((1, 2), [1, 2], [0, 1])

    def test_decreasing_rowptr_rejected(self):
        with pytest.raises(FormatError):
            CSRMatrix.from_arrays((2, 2), [0, 2, 1], [0, 1])

    def test_rowptr_nnz_mismatch_rejected(self):
        with pytest.raises(FormatError):
            CSRMatrix.from_arrays((1, 2), [0, 3], [0, 1])

    def test_col_out_of_range_rejected(self):
        with pytest.raises(FormatError):
            CSRMatrix.from_arrays((1, 2), [0, 1], [2])

    def test_wrong_rowptr_length_rejected(self):
        with pytest.raises(FormatError):
            CSRMatrix.from_arrays((3, 2), [0, 1], [0])


class TestAccessors:
    def test_row_view(self, paper_matrix):
        cols, vals = paper_matrix.row(4)
        assert cols.tolist() == [0, 3, 4]
        assert vals.size == 3

    def test_row_out_of_range(self, paper_matrix):
        with pytest.raises(IndexError):
            paper_matrix.row(6)
        with pytest.raises(IndexError):
            paper_matrix.row(-1)

    def test_row_lengths(self, paper_matrix):
        assert paper_matrix.row_lengths().tolist() == [2, 3, 2, 1, 3, 2]

    def test_row_ids(self, paper_matrix):
        ids = paper_matrix.row_ids()
        assert ids.size == 13
        assert np.bincount(ids).tolist() == [2, 3, 2, 1, 3, 2]

    def test_nnz_and_shape(self, paper_matrix):
        assert paper_matrix.nnz == 13
        assert paper_matrix.n_rows == 6 and paper_matrix.n_cols == 6

    def test_validate_passes_on_canonical(self, paper_matrix):
        paper_matrix.validate()


class TestDerivations:
    def test_with_values(self, paper_matrix):
        new = paper_matrix.with_values(np.zeros(13))
        assert new.values.sum() == 0.0
        assert new.same_pattern(paper_matrix)

    def test_with_values_wrong_size(self, paper_matrix):
        with pytest.raises(ShapeError):
            paper_matrix.with_values(np.zeros(5))

    def test_pattern(self, paper_matrix):
        p = paper_matrix.pattern()
        assert p.values.tolist() == [1.0] * 13

    def test_copy_is_deep(self, paper_matrix):
        c = paper_matrix.copy()
        c.values[0] = -1.0
        assert paper_matrix.values[0] != -1.0

    def test_transpose_involution(self, paper_matrix):
        t2 = transpose_csr(transpose_csr(paper_matrix))
        assert t2.allclose(paper_matrix)

    def test_transpose_matches_dense(self, paper_matrix):
        np.testing.assert_allclose(
            transpose_csr(paper_matrix).to_dense(), paper_matrix.to_dense().T
        )

    def test_to_coo_roundtrip(self, paper_matrix):
        back = paper_matrix.to_coo().to_csr()
        assert back.allclose(paper_matrix)


class TestComparison:
    def test_same_pattern_ignores_values(self, paper_matrix):
        other = paper_matrix.with_values(np.ones(13) * 7)
        assert paper_matrix.same_pattern(other)
        assert not paper_matrix.allclose(other)

    def test_allclose_true_for_self(self, paper_matrix):
        assert paper_matrix.allclose(paper_matrix.copy())

    def test_different_shape_not_same_pattern(self):
        a = CSRMatrix.empty((2, 2))
        b = CSRMatrix.empty((2, 3))
        assert not a.same_pattern(b)


class TestScipyOracle:
    def test_matches_scipy_csr(self):
        sp = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(5)
        dense = rng.random((20, 30))
        dense[dense < 0.8] = 0.0
        ours = CSRMatrix.from_dense(dense)
        theirs = sp.csr_matrix(dense)
        np.testing.assert_array_equal(ours.rowptr, theirs.indptr)
        np.testing.assert_array_equal(ours.colidx, theirs.indices)
        np.testing.assert_allclose(ours.values, theirs.data)
