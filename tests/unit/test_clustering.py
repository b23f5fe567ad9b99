"""Unit tests for repro.clustering (paper Alg. 3)."""

import numpy as np
import pytest

from repro.clustering import ClusteringResult, cluster_rows
from repro.errors import ValidationError


class TestClusterRows:
    def test_paper_fig6_example(self, paper_matrix):
        # LSH generates (0,4) with J=2/3 and (2,4) with J=1/4; the
        # clustering must return [0, 2, 4, 1, 3, 5] (paper Fig. 6).
        pairs = np.array([[0, 4], [2, 4]])
        sims = np.array([2 / 3, 1 / 4])
        result = cluster_rows(paper_matrix, pairs, sims)
        assert result.order.tolist() == [0, 2, 4, 1, 3, 5]
        assert result.n_clusters == 4
        assert result.n_merges == 2
        assert result.n_requeued == 1  # (2,4) re-queued as (0,2)

    def test_no_candidates_identity(self, paper_matrix):
        result = cluster_rows(
            paper_matrix, np.empty((0, 2), dtype=np.int64), np.zeros(0)
        )
        assert result.is_identity
        assert result.n_clusters == 6

    def test_order_is_permutation(self, paper_matrix, rng):
        pairs = np.array([[0, 4], [2, 4], [1, 5], [3, 5]])
        sims = np.array([0.6, 0.25, 0.3, 0.2])
        result = cluster_rows(paper_matrix, pairs, sims)
        assert sorted(result.order.tolist()) == list(range(6))

    def test_threshold_size_retires_clusters(self, paper_matrix):
        pairs = np.array([[0, 4], [2, 4], [0, 2]])
        sims = np.array([2 / 3, 1 / 4, 1 / 4])
        result = cluster_rows(paper_matrix, pairs, sims, threshold_size=2)
        # First merge creates a cluster of size 2 -> retired immediately,
        # so 2 cannot join {0, 4}.
        assert result.n_retired >= 1
        assert result.cluster_of[2] != result.cluster_of[0]

    def test_cluster_of_consistent_with_order(self, paper_matrix):
        pairs = np.array([[0, 4], [2, 4]])
        sims = np.array([2 / 3, 1 / 4])
        result = cluster_rows(paper_matrix, pairs, sims)
        # Rows of the same cluster are contiguous in the order.
        positions = {int(r): k for k, r in enumerate(result.order)}
        for root in np.unique(result.cluster_of):
            members = np.flatnonzero(result.cluster_of == root)
            pos = sorted(positions[int(m)] for m in members)
            assert pos == list(range(pos[0], pos[0] + len(pos)))

    def test_mismatched_inputs_rejected(self, paper_matrix):
        with pytest.raises(ValidationError):
            cluster_rows(paper_matrix, np.array([[0, 1]]), np.zeros(2))
        with pytest.raises(ValidationError):
            cluster_rows(paper_matrix, np.array([0, 1]), np.zeros(2))

    def test_duplicate_candidates_harmless(self, paper_matrix):
        pairs = np.array([[0, 4], [0, 4], [4, 0]])
        sims = np.array([2 / 3, 2 / 3, 2 / 3])
        result = cluster_rows(paper_matrix, pairs, sims)
        assert result.n_merges == 1

    def test_negative_pair_index_rejected(self, paper_matrix):
        # Python list indexing would wrap -1 to the last row and merge it.
        with pytest.raises(ValidationError):
            cluster_rows(paper_matrix, np.array([[-1, 0]]), np.array([0.5]))

    def test_pair_index_past_last_row_rejected(self, paper_matrix):
        with pytest.raises(ValidationError):
            cluster_rows(paper_matrix, np.array([[0, 6]]), np.array([0.5]))

    def test_result_type(self, paper_matrix):
        result = cluster_rows(paper_matrix, np.array([[0, 4]]), np.array([0.5]))
        assert isinstance(result, ClusteringResult)


class TestBatchScoringInternals:
    """Invariants of the requeued-pair scoring path."""

    @staticmethod
    def _random_matrix(rng, n_rows=24, n_cols=40):
        # Deliberately varied row lengths, so the measures' denominators
        # differ from pair to pair.
        dense = np.zeros((n_rows, n_cols))
        for i in range(n_rows):
            k = int(rng.integers(1, 1 + min(n_cols, 2 + 3 * (i % 7))))
            cols = rng.choice(n_cols, size=k, replace=False)
            dense[i, cols] = 1.0
        from repro.sparse import CSRMatrix

        return CSRMatrix.from_dense(dense)

    @pytest.mark.parametrize("measure", ["jaccard", "cosine", "overlap", "dice"])
    def test_scalar_score_bitwise_matches_vector_path(self, rng, measure):
        from repro.clustering.hierarchical import _scalar_score
        from repro.similarity import similarity_for_pairs

        csr = self._random_matrix(rng)
        supports = [
            frozenset(csr.colidx[csr.rowptr[i] : csr.rowptr[i + 1]].tolist())
            for i in range(csr.n_rows)
        ]
        pairs = np.array(
            [[i, j] for i in range(csr.n_rows) for j in range(i + 1, csr.n_rows)],
            dtype=np.int64,
        )
        vector = similarity_for_pairs(csr, pairs, measure)
        for (i, j), want in zip(pairs.tolist(), vector.tolist()):
            inter = len(supports[i] & supports[j])
            got = _scalar_score(measure, inter, len(supports[i]), len(supports[j]))
            assert got == want  # bitwise, not approximate

    @pytest.mark.parametrize("measure", ["jaccard", "dice"])
    def test_requeue_path_is_deterministic(self, rng, measure):
        from repro.similarity import LSHIndex

        csr = self._random_matrix(rng, n_rows=48, n_cols=32)
        pairs, sims = LSHIndex(siglen=32, bsize=2, seed=3).candidate_pairs(csr)
        if measure != "jaccard":
            from repro.similarity import similarity_for_pairs

            sims = similarity_for_pairs(csr, pairs, measure)
        first = cluster_rows(csr, pairs, sims, threshold_size=8, measure=measure)
        second = cluster_rows(csr, pairs, sims, threshold_size=8, measure=measure)
        assert first.n_requeued > 0  # the re-scoring path actually ran
        assert first.order.tolist() == second.order.tolist()
        assert first.cluster_of.tolist() == second.cluster_of.tolist()
        assert sorted(first.order.tolist()) == list(range(csr.n_rows))
