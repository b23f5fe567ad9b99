"""Unit tests for repro.baselines."""

import numpy as np
import pytest

from repro.baselines import (
    apply_symmetric_order,
    bisection_order,
    symmetrized_adjacency,
)
from repro.errors import ValidationError
from repro.sparse import CSRMatrix

from conftest import random_csr


class TestSymmetrizedAdjacency:
    def test_symmetric_no_diagonal(self, rng):
        m = random_csr(rng, 15, 15, 0.2)
        adj = symmetrized_adjacency(m)
        dense = adj.to_dense()
        np.testing.assert_allclose(dense, dense.T)
        assert np.diag(dense).sum() == 0.0

    def test_rectangular_rejected(self, rng):
        with pytest.raises(ValidationError):
            symmetrized_adjacency(random_csr(rng, 5, 6, 0.2))

    def test_pattern_values_are_one(self, rng):
        adj = symmetrized_adjacency(random_csr(rng, 10, 10, 0.3))
        assert set(np.unique(adj.values)) <= {1.0}


class TestBisection:
    def test_is_permutation(self, rng):
        m = random_csr(rng, 40, 40, 0.08)
        order = bisection_order(m, leaf_size=8)
        assert sorted(order.tolist()) == list(range(40))

    def test_leaf_size_one(self, rng):
        m = random_csr(rng, 20, 20, 0.15)
        order = bisection_order(m, leaf_size=1)
        assert sorted(order.tolist()) == list(range(20))

    def test_groups_connected_blocks(self):
        # Two disjoint cliques: bisection must label each contiguously.
        dense = np.zeros((8, 8))
        dense[:4, :4] = 1.0
        dense[4:, 4:] = 1.0
        np.fill_diagonal(dense, 0.0)
        order = bisection_order(CSRMatrix.from_dense(dense), leaf_size=4)
        first_half = set(order[:4].tolist())
        assert first_half in ({0, 1, 2, 3}, {4, 5, 6, 7})

    def test_invalid_leaf_size(self, rng):
        with pytest.raises(ValidationError):
            bisection_order(random_csr(rng, 10, 10, 0.2), leaf_size=0)


class TestApplySymmetricOrder:
    def test_matches_dense_relabelling(self, rng):
        m = random_csr(rng, 12, 12, 0.25)
        order = rng.permutation(12).astype(np.int64)
        got = apply_symmetric_order(m, order)
        dense = m.to_dense()
        expected = dense[np.ix_(order, order)]
        np.testing.assert_allclose(got.to_dense(), expected)

    def test_identity(self, rng):
        m = random_csr(rng, 10, 10, 0.3)
        got = apply_symmetric_order(m, np.arange(10))
        assert got.allclose(m)

    def test_preserves_spectrum_symmetric(self, rng):
        # Vertex relabelling is a similarity transform: eigenvalues of a
        # symmetric matrix are invariant.
        m = symmetrized_adjacency(random_csr(rng, 12, 12, 0.3))
        order = rng.permutation(12).astype(np.int64)
        a = np.sort(np.linalg.eigvalsh(m.to_dense()))
        b = np.sort(np.linalg.eigvalsh(apply_symmetric_order(m, order).to_dense()))
        np.testing.assert_allclose(a, b, atol=1e-9)
