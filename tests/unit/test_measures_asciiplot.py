"""Unit tests for repro.similarity.measures and repro.experiments.asciiplot."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.experiments.asciiplot import ascii_histogram, ascii_lines, ascii_scatter
from repro.similarity import MEASURES, jaccard_rows, similarity_for_pairs
from repro.sparse import CSRMatrix

from conftest import random_csr


class TestSimilarityMeasures:
    def test_jaccard_matches_dedicated_function(self, rng):
        m = random_csr(rng, 20, 15, 0.2)
        pairs = np.array([[i, j] for i in range(20) for j in range(i + 1, 20)])
        np.testing.assert_allclose(
            similarity_for_pairs(m, pairs, "jaccard"),
            [jaccard_rows(m, int(i), int(j)) for i, j in pairs],
        )

    def test_paper_matrix_values(self, paper_matrix):
        pairs = np.array([[0, 4]])
        # S0={0,4}, S4={0,3,4}: inter=2, |A|=2, |B|=3
        assert similarity_for_pairs(paper_matrix, pairs, "jaccard")[0] == pytest.approx(2 / 3)
        assert similarity_for_pairs(paper_matrix, pairs, "cosine")[0] == pytest.approx(2 / np.sqrt(6))
        assert similarity_for_pairs(paper_matrix, pairs, "overlap")[0] == pytest.approx(1.0)
        assert similarity_for_pairs(paper_matrix, pairs, "dice")[0] == pytest.approx(4 / 5)

    def test_subset_scores_one_under_overlap(self):
        m = CSRMatrix.from_dense(
            [[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]]
        )
        pairs = np.array([[0, 1]])
        assert similarity_for_pairs(m, pairs, "overlap")[0] == 1.0
        assert similarity_for_pairs(m, pairs, "jaccard")[0] == pytest.approx(0.5)

    def test_all_measures_bounded(self, rng):
        m = random_csr(rng, 15, 12, 0.25)
        pairs = np.array([[i, j] for i in range(15) for j in range(15)])
        for measure in MEASURES:
            out = similarity_for_pairs(m, pairs, measure)
            assert (out >= 0.0).all() and (out <= 1.0 + 1e-12).all(), measure

    def test_empty_rows_score_zero(self):
        m = CSRMatrix.from_dense([[0.0, 0.0], [1.0, 0.0]])
        pairs = np.array([[0, 1], [0, 0]])
        for measure in MEASURES:
            np.testing.assert_allclose(similarity_for_pairs(m, pairs, measure), 0.0)

    def test_unknown_measure_rejected(self, paper_matrix):
        with pytest.raises(ValidationError):
            similarity_for_pairs(paper_matrix, np.array([[0, 1]]), "hamming")

    def test_bad_pairs_rejected(self, paper_matrix):
        with pytest.raises(ValidationError):
            similarity_for_pairs(paper_matrix, np.array([[0, 9]]), "jaccard")
        with pytest.raises(ValidationError):
            similarity_for_pairs(paper_matrix, np.array([0, 1]), "jaccard")

    def test_empty_pairs(self, paper_matrix):
        out = similarity_for_pairs(paper_matrix, np.empty((0, 2), dtype=np.int64), "cosine")
        assert out.size == 0

    def test_measure_threads_through_lsh_index(self, rng):
        from repro.similarity import LSHIndex

        m = random_csr(rng, 30, 20, 0.2)
        pairs_j, sims_j = LSHIndex(siglen=32, seed=0, measure="jaccard").candidate_pairs(m)
        pairs_o, sims_o = LSHIndex(siglen=32, seed=0, measure="overlap").candidate_pairs(m)
        np.testing.assert_array_equal(pairs_j, pairs_o)  # candidates identical
        assert (sims_o >= sims_j - 1e-12).all()  # overlap >= jaccard always


class TestAsciiPlots:
    def test_scatter_basic(self):
        out = ascii_scatter(np.array([0.0, 1.0]), np.array([0.0, 1.0]), title="T")
        assert "T" in out and "*" in out
        assert "x: [0, 1]" in out

    def test_scatter_marks(self):
        out = ascii_scatter(np.array([0.0, 1.0]), np.array([0.0, 1.0]), ["+", "-"])
        assert "+" in out and "-" in out

    def test_scatter_empty(self):
        assert "(no data)" in ascii_scatter(np.array([]), np.array([]), title="T")

    def test_scatter_degenerate_range(self):
        out = ascii_scatter(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        assert "*" in out

    def test_lines_basic(self):
        out = ascii_lines({"abc": np.array([1.0, 2.0, 3.0])}, title="L")
        assert "L" in out and "a=abc" in out

    def test_lines_log_scale(self):
        out = ascii_lines({"x": np.array([1.0, 10.0, 100.0])}, log_y=True)
        assert "log10" in out

    def test_lines_empty(self):
        assert "(no data)" in ascii_lines({}, title="L")

    def test_lines_multiple_series(self):
        out = ascii_lines(
            {"first": np.array([1.0, 2.0]), "second": np.array([2.0, 1.0])}
        )
        assert "f=first" in out and "s=second" in out

    def test_histogram_basic(self):
        out = ascii_histogram(["a", "bb"], np.array([50.0, 100.0]), title="H")
        assert "H" in out
        assert out.count("#") > 0

    def test_histogram_empty(self):
        assert "(no data)" in ascii_histogram([], np.array([]), title="H")
