"""Unit tests for repro.datasets."""

import numpy as np
import pytest

from repro.datasets import (
    banded,
    bipartite_ratings,
    block_diagonal,
    build_corpus,
    corpus_summary,
    diagonal,
    hidden_clusters,
    list_generators,
    power_law_rows,
    preclustered,
    rmat,
    small_world,
    uniform_random,
)
from repro.errors import DatasetError
from repro.similarity import average_consecutive_similarity
from repro.sparse import bandwidth


class TestSyntheticGenerators:
    def test_uniform_random_shape_and_fill(self):
        m = uniform_random(100, 80, 5, seed=0)
        assert m.shape == (100, 80)
        assert 0 < m.nnz <= 500
        m.validate()

    def test_uniform_deterministic(self):
        a = uniform_random(50, 50, 4, seed=7)
        b = uniform_random(50, 50, 4, seed=7)
        assert a.allclose(b)

    def test_banded_bandwidth(self):
        m = banded(60, 2, seed=0)
        assert bandwidth(m) == 2
        assert m.nnz == 60 * 5 - 2 * (1 + 2)

    def test_banded_zero_band_is_diagonal(self):
        m = banded(10, 0, seed=0)
        assert m.nnz == 10 and bandwidth(m) == 0

    def test_diagonal(self):
        m = diagonal(30, seed=0)
        assert m.nnz == 30
        assert average_consecutive_similarity(m) == 0.0

    def test_block_diagonal_structure(self):
        m = block_diagonal(4, 10, fill=1.0, seed=0)
        dense = m.to_dense()
        assert dense[0, 15] == 0.0  # off-block is empty
        assert (dense[:10, :10] != 0).all()

    def test_block_diagonal_invalid_fill(self):
        with pytest.raises(ValueError):
            block_diagonal(2, 5, fill=0.0)

    def test_power_law_rows_skew(self):
        m = power_law_rows(500, 500, 10, seed=0)
        lengths = m.row_lengths()
        assert lengths.max() > 3 * lengths.mean()
        assert m.nnz > 0

    def test_power_law_invalid_alpha(self):
        with pytest.raises(ValueError):
            power_law_rows(10, 10, 5, alpha=1.0)


class TestClusteredGenerators:
    def test_hidden_clusters_low_consecutive_similarity(self):
        m = hidden_clusters(32, 16, 1024, 16, noise=0.0, seed=0)
        # Shuffled: consecutive rows rarely share a cluster.
        assert average_consecutive_similarity(m) < 0.2

    def test_preclustered_high_consecutive_similarity(self):
        m = preclustered(32, 16, 1024, 16, noise=0.0, seed=0)
        assert average_consecutive_similarity(m) > 0.9

    def test_same_structure_different_order(self):
        # Both generators produce the same nnz distribution.
        h = hidden_clusters(16, 8, 256, 12, noise=0.0, seed=3)
        p = preclustered(16, 8, 256, 12, noise=0.0, seed=3)
        assert h.shape == p.shape
        assert np.sort(h.row_lengths()).tolist() == np.sort(p.row_lengths()).tolist()

    def test_noise_reduces_similarity(self):
        clean = preclustered(16, 8, 512, 16, noise=0.0, seed=1)
        noisy = preclustered(16, 8, 512, 16, noise=0.4, seed=1)
        assert (
            average_consecutive_similarity(noisy)
            < average_consecutive_similarity(clean)
        )

    def test_deterministic(self):
        a = hidden_clusters(8, 8, 128, 8, seed=5)
        b = hidden_clusters(8, 8, 128, 8, seed=5)
        assert a.allclose(b)


class TestGraphGenerators:
    def test_rmat_shape(self):
        m = rmat(8, 8, seed=0)
        assert m.shape == (256, 256)
        assert m.nnz > 0
        m.validate()

    def test_rmat_power_law_degrees(self):
        m = rmat(10, 16, seed=0)
        lengths = m.row_lengths()
        assert lengths.max() > 5 * max(1.0, np.median(lengths))

    def test_rmat_invalid_quadrants(self):
        with pytest.raises(ValueError):
            rmat(5, 4, a=0.7, b=0.3, c=0.2)

    def test_small_world_symmetric(self):
        m = small_world(100, 3, 0.0, seed=0)
        dense = m.to_dense()
        np.testing.assert_allclose(dense != 0, (dense != 0).T)

    def test_small_world_no_rewire_is_preclustered(self):
        m = small_world(200, 4, 0.0, seed=0)
        assert average_consecutive_similarity(m) > 0.3

    def test_small_world_invalid_k(self):
        with pytest.raises(ValueError):
            small_world(10, 5, 0.1)

    def test_bipartite_shape(self):
        m = bipartite_ratings(200, 150, 10, seed=0)
        assert m.shape == (200, 150)
        assert m.nnz > 0
        m.validate()

    def test_bipartite_taste_groups_create_row_similarity(self):
        from repro.similarity import pairwise_jaccard_dense

        m = bipartite_ratings(60, 200, 15, n_taste_groups=3, concentration=1.0, seed=0)
        full = pairwise_jaccard_dense(m)
        np.fill_diagonal(full, 0.0)
        assert full.max() > 0.3


class TestCorpus:
    def test_build_tiny_corpus(self):
        entries = build_corpus("tiny", repeats=1)
        assert len(entries) >= 20
        names = [e.name for e in entries]
        assert len(set(names)) == len(names)
        for e in entries:
            e.matrix.validate()
            assert e.matrix.nnz > 0

    def test_categories_filter(self):
        entries = build_corpus("tiny", repeats=1, categories=("hidden",))
        assert all(e.category == "hidden" for e in entries)
        assert len(entries) >= 3

    def test_unknown_scale(self):
        with pytest.raises(DatasetError):
            build_corpus("gigantic")

    def test_unknown_category(self):
        with pytest.raises(DatasetError):
            build_corpus("tiny", categories=("nope",))

    def test_bad_repeats(self):
        with pytest.raises(DatasetError):
            build_corpus("tiny", repeats=0)

    def test_deterministic(self):
        a = build_corpus("tiny", repeats=1, categories=("uniform",))
        b = build_corpus("tiny", repeats=1, categories=("uniform",))
        for x, y in zip(a, b):
            assert x.name == y.name
            assert x.matrix.allclose(y.matrix)

    def test_summary(self):
        entries = build_corpus("tiny", repeats=1, categories=("diagonal", "hidden"))
        rows = corpus_summary(entries)
        assert len(rows) == len(entries)
        assert all("nnz" in r and "category" in r for r in rows)

    def test_expected_benefit_classes_present(self):
        entries = build_corpus("tiny", repeats=1)
        benefits = {e.expected_benefit for e in entries}
        assert {"none", "high"} <= benefits


class TestRegistry:
    def test_list_generators(self):
        names = list_generators()
        assert "rmat" in names and names == sorted(names)
