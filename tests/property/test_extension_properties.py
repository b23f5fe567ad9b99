"""Hypothesis property tests for the extension modules (measures, SpMV)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import spmm, spmv
from repro.similarity import MEASURES, jaccard_for_pairs, similarity_for_pairs

from test_sparse_properties import csr_matrices


class TestMeasureProperties:
    @given(csr_matrices(), st.sampled_from(MEASURES))
    @settings(max_examples=40)
    def test_bounded_and_symmetric(self, csr, measure):
        n = csr.n_rows
        pairs = np.array([[i, j] for i in range(n) for j in range(n)], dtype=np.int64)
        out = similarity_for_pairs(csr, pairs, measure).reshape(n, n)
        assert (out >= -1e-12).all() and (out <= 1.0 + 1e-12).all()
        np.testing.assert_allclose(out, out.T, atol=1e-12)

    @given(csr_matrices())
    @settings(max_examples=40)
    def test_measure_ordering(self, csr):
        # For any pair: jaccard <= dice <= cosine... actually the provable
        # chain is jaccard <= dice <= min(cosine, overlap) <= 1.
        n = csr.n_rows
        pairs = np.array(
            [[i, j] for i in range(n) for j in range(i + 1, n)], dtype=np.int64
        )
        if pairs.size == 0:
            return
        j = similarity_for_pairs(csr, pairs, "jaccard")
        d = similarity_for_pairs(csr, pairs, "dice")
        c = similarity_for_pairs(csr, pairs, "cosine")
        o = similarity_for_pairs(csr, pairs, "overlap")
        assert (j <= d + 1e-12).all()
        assert (d <= c + 1e-12).all()
        assert (c <= o + 1e-12).all()

    @given(csr_matrices())
    @settings(max_examples=30)
    def test_jaccard_consistency(self, csr):
        n = csr.n_rows
        pairs = np.array([[i, (i + 1) % n] for i in range(n)], dtype=np.int64)
        np.testing.assert_allclose(
            similarity_for_pairs(csr, pairs, "jaccard"),
            jaccard_for_pairs(csr, pairs),
        )


class TestSpmvProperties:
    @given(csr_matrices(), st.integers(0, 100))
    @settings(max_examples=50)
    def test_matches_dense(self, csr, seed):
        x = np.random.default_rng(seed).normal(size=csr.n_cols)
        np.testing.assert_allclose(
            spmv(csr, x), csr.to_dense() @ x, rtol=1e-9, atol=1e-9
        )

    @given(csr_matrices())
    @settings(max_examples=40)
    def test_equals_spmm_with_k1(self, csr):
        x = np.linspace(-1, 1, csr.n_cols)
        np.testing.assert_allclose(
            spmv(csr, x), spmm(csr, x[:, None])[:, 0], rtol=1e-9, atol=1e-9
        )

