"""Unit tests for repro.sparse.properties and repro.sparse.io."""

import io

import numpy as np
import pytest

from repro.errors import FormatError
from repro.sparse import (
    CSRMatrix,
    bandwidth,
    column_counts,
    density,
    nnz_per_row,
    read_matrix_market,
    structural_summary,
    write_matrix_market,
)

from conftest import random_csr


class TestProperties:
    def test_nnz_per_row(self, paper_matrix):
        assert nnz_per_row(paper_matrix).tolist() == [2, 3, 2, 1, 3, 2]

    def test_column_counts(self, paper_matrix):
        # Columns: 0 in rows {0,4}; 1 in {1,3}; 2 in {2,5}; 3 in {1,4};
        # 4 in {0,2,4}; 5 in {1,5}.
        assert column_counts(paper_matrix).tolist() == [2, 2, 2, 2, 3, 2]

    def test_density(self, paper_matrix):
        assert density(paper_matrix) == pytest.approx(13 / 36)

    def test_density_empty_shape(self):
        assert density(CSRMatrix.empty((0, 0))) == 0.0

    def test_bandwidth_diagonal_is_zero(self):
        assert bandwidth(CSRMatrix.from_dense(np.eye(5))) == 0

    def test_bandwidth_paper(self, paper_matrix):
        # Row 1 holds column 5 -> |1-5| = 4; row 4 holds column 0 -> 4.
        assert bandwidth(paper_matrix) == 4

    def test_bandwidth_empty(self):
        assert bandwidth(CSRMatrix.empty((3, 3))) == 0

    def test_structural_summary(self, paper_matrix):
        s = structural_summary(paper_matrix)
        assert s.n_rows == 6 and s.n_cols == 6 and s.nnz == 13
        assert s.row_nnz_min == 1 and s.row_nnz_max == 3
        assert s.col_nnz_max == 3
        assert s.empty_rows == 0
        assert s.as_dict()["nnz"] == 13

    def test_structural_summary_empty(self):
        s = structural_summary(CSRMatrix.empty((4, 4)))
        assert s.nnz == 0 and s.empty_rows == 4 and s.row_nnz_mean == 0.0


class TestMatrixMarketIO:
    def test_roundtrip(self, rng, tmp_path):
        m = random_csr(rng, 10, 8, 0.2)
        path = tmp_path / "m.mtx"
        write_matrix_market(path, m, comment="test matrix")
        back = read_matrix_market(path)
        assert back.allclose(m)

    def test_roundtrip_stringio(self, paper_matrix):
        buf = io.StringIO()
        write_matrix_market(buf, paper_matrix)
        buf.seek(0)
        back = read_matrix_market(buf)
        assert back.allclose(paper_matrix)

    def test_pattern_matrix(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n% comment\n3 3 2\n1 1\n3 2\n"
        m = read_matrix_market(io.StringIO(text))
        assert m.to_dense()[0, 0] == 1.0
        assert m.to_dense()[2, 1] == 1.0
        assert m.nnz == 2

    def test_symmetric_expansion(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 5.0\n3 1 2.0\n"
        m = read_matrix_market(io.StringIO(text))
        dense = m.to_dense()
        assert dense[0, 0] == 5.0
        assert dense[2, 0] == 2.0 and dense[0, 2] == 2.0
        assert m.nnz == 3

    def test_skew_symmetric_expansion(self):
        text = "%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 1\n2 1 4.0\n"
        m = read_matrix_market(io.StringIO(text))
        dense = m.to_dense()
        assert dense[1, 0] == 4.0 and dense[0, 1] == -4.0

    def test_integer_field(self):
        text = "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 7\n"
        m = read_matrix_market(io.StringIO(text))
        assert m.to_dense()[0, 1] == 7.0

    def test_empty_matrix(self):
        text = "%%MatrixMarket matrix coordinate real general\n4 5 0\n"
        m = read_matrix_market(io.StringIO(text))
        assert m.shape == (4, 5) and m.nnz == 0

    def test_missing_header_rejected(self):
        with pytest.raises(FormatError):
            read_matrix_market(io.StringIO("not a matrix\n1 1 0\n"))

    def test_unsupported_field_rejected(self):
        text = "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n"
        with pytest.raises(FormatError):
            read_matrix_market(io.StringIO(text))

    def test_unsupported_format_rejected(self):
        text = "%%MatrixMarket matrix array real general\n1 1\n1.0\n"
        with pytest.raises(FormatError):
            read_matrix_market(io.StringIO(text))

    def test_wrong_entry_count_rejected(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
        with pytest.raises(FormatError):
            read_matrix_market(io.StringIO(text))

    def test_out_of_range_index_rejected(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
        with pytest.raises(FormatError):
            read_matrix_market(io.StringIO(text))

    def test_duplicates_summed_on_read(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 1 2.0\n"
        m = read_matrix_market(io.StringIO(text))
        assert m.to_dense()[0, 0] == 3.0

    def test_matches_scipy_reader(self, rng, tmp_path):
        sio = pytest.importorskip("scipy.io")
        m = random_csr(rng, 12, 12, 0.15)
        path = tmp_path / "x.mtx"
        write_matrix_market(path, m)
        theirs = sio.mmread(str(path)).toarray()
        np.testing.assert_allclose(m.to_dense(), theirs)
