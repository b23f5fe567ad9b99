"""Unit tests for repro.sparse.csc and repro.sparse.conversions."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.sparse import (
    COOMatrix,
    CSCMatrix,
    CSRMatrix,
    coo_to_csr,
    csc_to_csr,
    csr_to_coo,
    csr_to_csc,
    transpose_csr,
)

from conftest import random_csr


class TestCSC:
    def test_from_arrays_and_col_access(self):
        # 3x2 matrix: col 0 has rows {0, 2}, col 1 has row {1}
        m = CSCMatrix.from_arrays((3, 2), [0, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0])
        rows, vals = m.col(0)
        assert rows.tolist() == [0, 2]
        assert vals.tolist() == [1.0, 2.0]

    def test_canonicalises_unsorted_columns(self):
        m = CSCMatrix.from_arrays((3, 1), [0, 2], [2, 0], [1.0, 2.0])
        assert m.rowidx.tolist() == [0, 2]

    def test_col_out_of_range(self):
        m = CSCMatrix.empty((2, 2))
        with pytest.raises(IndexError):
            m.col(2)

    def test_validate_empty(self):
        CSCMatrix.empty((3, 4)).validate()

    def test_to_dense(self):
        m = CSCMatrix.from_arrays((2, 2), [0, 1, 2], [1, 0], [5.0, 6.0])
        np.testing.assert_allclose(m.to_dense(), [[0.0, 6.0], [5.0, 0.0]])

    def test_validate_rejects_bad_colptr(self):
        m = CSCMatrix((2, 2), np.array([1, 1, 1]), np.empty(0, dtype=np.int64), np.empty(0))
        with pytest.raises(FormatError):
            m.validate()


class TestConversionRoundtrips:
    def test_csr_csc_roundtrip(self, rng):
        m = random_csr(rng, 15, 12, 0.15)
        back = csc_to_csr(csr_to_csc(m))
        assert back.allclose(m)

    def test_csr_csc_dense_equivalence(self, rng):
        m = random_csr(rng, 10, 9, 0.2)
        np.testing.assert_allclose(csr_to_csc(m).to_dense(), m.to_dense())

    def test_coo_to_csr_sums_duplicates(self):
        coo = COOMatrix.from_arrays(
            (2, 2), np.array([0, 0, 1]), np.array([1, 1, 0]), [1.0, 2.0, 3.0]
        )
        csr = coo_to_csr(coo)
        assert csr.nnz == 2
        assert csr.to_dense()[0, 1] == 3.0

    def test_coo_csr_coo_roundtrip(self, rng):
        m = random_csr(rng, 8, 8, 0.3)
        coo = csr_to_coo(m)
        assert coo_to_csr(coo).allclose(m)

    def test_empty_conversions(self):
        e = CSRMatrix.empty((3, 3))
        assert csr_to_csc(e).nnz == 0
        assert csc_to_csr(csr_to_csc(e)).nnz == 0
        assert coo_to_csr(COOMatrix.empty((3, 3))).nnz == 0

    def test_csc_matches_scipy(self, rng):
        sp = pytest.importorskip("scipy.sparse")
        m = random_csr(rng, 25, 18, 0.1)
        ours = csr_to_csc(m)
        theirs = sp.csr_matrix(m.to_dense()).tocsc()
        np.testing.assert_array_equal(ours.colptr, theirs.indptr)
        np.testing.assert_array_equal(ours.rowidx, theirs.indices)
        np.testing.assert_allclose(ours.values, theirs.data)

    def test_transpose_shape(self, rng):
        m = random_csr(rng, 7, 13, 0.2)
        t = transpose_csr(m)
        assert t.shape == (13, 7)
