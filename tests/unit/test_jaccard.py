"""Unit tests for repro.similarity.jaccard."""

import numpy as np
import pytest

from repro.sparse import CSRMatrix
from repro.similarity import (
    average_consecutive_similarity,
    consecutive_similarities,
    jaccard_rows,
    pairwise_jaccard_dense,
    similarity_for_pairs,
)

from conftest import random_csr


class TestJaccardRows:
    def test_paper_values(self, paper_matrix):
        # §3.2: J(S0, S4) = 2/3 and J(S2, S4) = 1/4.
        assert jaccard_rows(paper_matrix, 0, 4) == pytest.approx(2 / 3)
        assert jaccard_rows(paper_matrix, 2, 4) == pytest.approx(1 / 4)

    def test_identical_rows(self):
        m = CSRMatrix.from_dense([[1.0, 1.0, 0.0], [2.0, 3.0, 0.0]])
        assert jaccard_rows(m, 0, 1) == 1.0

    def test_disjoint_rows(self):
        m = CSRMatrix.from_dense([[1.0, 0.0], [0.0, 1.0]])
        assert jaccard_rows(m, 0, 1) == 0.0

    def test_empty_rows_are_dissimilar(self):
        m = CSRMatrix.from_dense([[0.0, 0.0], [0.0, 0.0]])
        assert jaccard_rows(m, 0, 1) == 0.0

    def test_empty_vs_nonempty(self):
        m = CSRMatrix.from_dense([[0.0, 0.0], [1.0, 0.0]])
        assert jaccard_rows(m, 0, 1) == 0.0

    def test_symmetry(self, paper_matrix):
        for i in range(6):
            for j in range(6):
                assert jaccard_rows(paper_matrix, i, j) == pytest.approx(
                    jaccard_rows(paper_matrix, j, i)
                )

    def test_values_do_not_matter(self, paper_matrix):
        scaled = paper_matrix.with_values(np.full(13, 1e9))
        assert jaccard_rows(scaled, 0, 4) == pytest.approx(2 / 3)


class TestJaccardForPairs:
    """The batch scorer's Jaccard (``similarity_for_pairs``), which
    scores LSH candidates and the §4 consecutive-row indicator."""

    def test_matches_single_pair_version(self, rng):
        m = random_csr(rng, 20, 15, 0.2)
        pairs = np.array([[i, j] for i in range(20) for j in range(i + 1, 20)])
        batch = similarity_for_pairs(m, pairs, "jaccard")
        for (i, j), s in zip(pairs, batch):
            assert s == jaccard_rows(m, int(i), int(j))  # the same quotient

    def test_empty_pairs(self, paper_matrix):
        out = similarity_for_pairs(
            paper_matrix, np.empty((0, 2), dtype=np.int64), "jaccard"
        )
        assert out.size == 0

    def test_bad_shape_rejected(self, paper_matrix):
        with pytest.raises(ValueError):
            similarity_for_pairs(paper_matrix, np.array([[0, 1, 2]]), "jaccard")

    def test_self_pairs(self, paper_matrix):
        out = similarity_for_pairs(paper_matrix, np.array([[0, 0], [3, 3]]), "jaccard")
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_pairs_with_empty_rows(self):
        m = CSRMatrix.from_dense([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        out = similarity_for_pairs(m, np.array([[0, 1], [1, 1], [0, 2]]), "jaccard")
        np.testing.assert_allclose(out, [0.0, 0.0, 1.0])


class TestConsecutiveSimilarities:
    def test_well_clustered_example(self):
        # Paper Fig. 7a: identical rows in groups of three -> average 0.8.
        # Build: rows 0-2 identical, rows 3-5 identical, groups disjoint.
        dense = np.zeros((6, 6))
        dense[:3, [0, 2]] = 1.0
        dense[3:, [3, 5]] = 1.0
        m = CSRMatrix.from_dense(dense)
        sims = consecutive_similarities(m)
        np.testing.assert_allclose(sims, [1.0, 1.0, 0.0, 1.0, 1.0])
        assert average_consecutive_similarity(m) == pytest.approx(0.8)

    def test_diagonal_matrix_zero(self):
        # Paper Fig. 7b: a diagonal matrix has no inter-row reuse.
        m = CSRMatrix.from_dense(np.eye(8))
        assert average_consecutive_similarity(m) == 0.0

    def test_single_row(self):
        m = CSRMatrix.from_dense([[1.0, 0.0]])
        assert consecutive_similarities(m).size == 0
        assert average_consecutive_similarity(m) == 0.0

    def test_matches_pairwise_loop(self, rng):
        m = random_csr(rng, 30, 20, 0.15)
        sims = consecutive_similarities(m)
        for i in range(29):
            assert sims[i] == pytest.approx(jaccard_rows(m, i, i + 1))


class TestPairwiseDense:
    def test_matches_jaccard_rows(self, paper_matrix):
        full = pairwise_jaccard_dense(paper_matrix)
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                assert full[i, j] == pytest.approx(jaccard_rows(paper_matrix, i, j))

    def test_diagonal_one_for_nonempty(self, paper_matrix):
        full = pairwise_jaccard_dense(paper_matrix)
        np.testing.assert_allclose(np.diag(full), np.ones(6))

    def test_empty_row_diagonal_zero(self):
        m = CSRMatrix.from_dense([[0.0, 0.0], [1.0, 0.0]])
        full = pairwise_jaccard_dense(m)
        assert full[0, 0] == 0.0
