"""Unit tests for repro.sparse.coo."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.sparse import COOMatrix


class TestConstruction:
    def test_from_arrays_basic(self):
        m = COOMatrix.from_arrays((3, 3), np.array([0, 2]), np.array([1, 2]), [5.0, 7.0])
        assert m.shape == (3, 3)
        assert m.nnz == 2

    def test_default_values_are_ones(self):
        m = COOMatrix.from_arrays((2, 2), np.array([0, 1]), np.array([0, 1]))
        assert m.values.tolist() == [1.0, 1.0]

    def test_empty(self):
        m = COOMatrix.empty((4, 5))
        assert m.shape == (4, 5) and m.nnz == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(FormatError):
            COOMatrix.from_arrays((2, 2), np.array([0]), np.array([0, 1]))

    def test_values_length_mismatch_rejected(self):
        with pytest.raises(FormatError):
            COOMatrix.from_arrays((2, 2), np.array([0]), np.array([0]), [1.0, 2.0])

    def test_row_out_of_range_rejected(self):
        with pytest.raises(FormatError):
            COOMatrix.from_arrays((2, 2), np.array([2]), np.array([0]))

    def test_col_out_of_range_rejected(self):
        with pytest.raises(FormatError):
            COOMatrix.from_arrays((2, 2), np.array([0]), np.array([-1]))

    def test_negative_shape_rejected(self):
        with pytest.raises(FormatError):
            COOMatrix.from_arrays((-1, 2), np.array([], dtype=np.int64), np.array([], dtype=np.int64))


class TestToDense:
    def test_duplicates_summed(self):
        m = COOMatrix.from_arrays((1, 1), np.array([0, 0]), np.array([0, 0]), [1.0, 2.0])
        assert m.to_dense()[0, 0] == 3.0

    def test_matches_scipy(self):
        sp = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(1)
        rows = rng.integers(0, 10, 50)
        cols = rng.integers(0, 8, 50)
        vals = rng.normal(size=50)
        ours = COOMatrix.from_arrays((10, 8), rows, cols, vals).to_dense()
        theirs = sp.coo_matrix((vals, (rows, cols)), shape=(10, 8)).toarray()
        np.testing.assert_allclose(ours, theirs)


class TestCopy:
    def test_copy_is_deep(self):
        m = COOMatrix.from_arrays((2, 2), np.array([0]), np.array([1]), [3.0])
        c = m.copy()
        c.values[0] = 99.0
        assert m.values[0] == 3.0
