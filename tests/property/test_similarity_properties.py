"""Hypothesis property tests for Jaccard / MinHash / LSH."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kernels.backends import load_backend

from repro.similarity import (
    average_consecutive_similarity,
    jaccard_rows,
    lsh_candidate_pairs,
    minhash_signatures,
    pairwise_jaccard_dense,
    similarity_for_pairs,
)
from repro.similarity.minhash import MERSENNE_PRIME
from repro.sparse import COOMatrix, CSRMatrix

from test_sparse_properties import csr_matrices


class TestJaccardProperties:
    @given(csr_matrices())
    @settings(max_examples=50)
    def test_bounds(self, csr):
        full = pairwise_jaccard_dense(csr)
        assert (full >= 0.0).all() and (full <= 1.0).all()

    @given(csr_matrices())
    @settings(max_examples=50)
    def test_symmetry(self, csr):
        full = pairwise_jaccard_dense(csr)
        np.testing.assert_allclose(full, full.T)

    @given(csr_matrices())
    @settings(max_examples=50)
    def test_self_similarity_one_iff_nonempty(self, csr):
        lengths = csr.row_lengths()
        for i in range(csr.n_rows):
            expected = 1.0 if lengths[i] else 0.0
            assert jaccard_rows(csr, i, i) == expected

    @given(csr_matrices())
    @settings(max_examples=40)
    def test_batch_matches_scalar(self, csr):
        n = csr.n_rows
        pairs = np.array(
            [[i, j] for i in range(n) for j in range(n)], dtype=np.int64
        )
        batch = similarity_for_pairs(csr, pairs, "jaccard")
        for (i, j), s in zip(pairs, batch):
            assert abs(s - jaccard_rows(csr, int(i), int(j))) < 1e-12

    @given(csr_matrices())
    @settings(max_examples=40)
    def test_average_consecutive_in_unit_interval(self, csr):
        avg = average_consecutive_similarity(csr)
        assert 0.0 <= avg <= 1.0

    @given(csr_matrices(), st.randoms())
    @settings(max_examples=40)
    def test_jaccard_invariant_to_values(self, csr, rnd):
        # Jaccard is purely structural: replacing stored values (even
        # explicit zeros) must not change any similarity.
        scaled = csr.with_values(
            np.array([rnd.uniform(0.1, 9) for _ in range(csr.nnz)])
        )
        np.testing.assert_allclose(
            pairwise_jaccard_dense(csr), pairwise_jaccard_dense(scaled)
        )


class TestMinHashProperties:
    @given(csr_matrices(), st.integers(0, 1000))
    @settings(max_examples=40)
    def test_identical_rows_identical_signatures(self, csr, seed):
        # "Identical" means identical *stored support* — explicit zeros are
        # stored entries and participate in reuse, exactly like the paper's
        # structural view of a row.
        sig = minhash_signatures(csr, 16, seed=seed)
        for i in range(csr.n_rows):
            for j in range(i + 1, csr.n_rows):
                if np.array_equal(csr.row_cols(i), csr.row_cols(j)):
                    np.testing.assert_array_equal(sig[i], sig[j])

    @given(csr_matrices(), st.integers(0, 1000))
    @settings(max_examples=40)
    def test_signature_deterministic(self, csr, seed):
        a = minhash_signatures(csr, 8, seed=seed)
        b = minhash_signatures(csr, 8, seed=seed)
        np.testing.assert_array_equal(a, b)


@st.composite
def wide_csr_matrices(draw):
    """CSR patterns over up to ``2**40`` columns: zero rows, empty rows, and
    column ids on both sides of the MinHash modulus ``2**31 - 1``."""
    p = int(MERSENNE_PRIME)
    n_cols = draw(st.sampled_from([1, 7, p, p + 1, 2**33, 2**40]))
    edges = [c for c in (0, 1, p - 1, p, p + 1, 2 * p, n_cols - 1) if c < n_cols]
    column = st.one_of(st.sampled_from(edges), st.integers(0, n_cols - 1))
    rows = draw(st.lists(st.lists(column, max_size=6, unique=True), max_size=10))
    colidx = np.array([c for row in rows for c in sorted(row)], dtype=np.int64)
    rowptr = np.concatenate([[0], np.cumsum([len(row) for row in rows])])
    return CSRMatrix.from_arrays((len(rows), n_cols), rowptr, colidx)


class TestCompiledMinHashProperties:
    @given(
        csr=wide_csr_matrices(),
        siglen=st.sampled_from([1, 7, 128]),
        seed=st.integers(0, 2**32),
    )
    @settings(
        max_examples=60,
        deadline=None,
        # compiled_backend only empties the in-process library cache, so
        # sharing it across examples is fine.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_cc_bit_identical_to_numpy(self, compiled_backend, csr, siglen, seed):
        assert load_backend(compiled_backend).minhash is not None
        np.testing.assert_array_equal(
            minhash_signatures(csr, siglen, seed=seed, backend=compiled_backend),
            minhash_signatures(csr, siglen, seed=seed, backend="numpy"),
        )


class TestLSHProperties:
    @given(csr_matrices(), st.integers(0, 100))
    @settings(max_examples=30)
    def test_pairs_valid(self, csr, seed):
        sig = minhash_signatures(csr, 16, seed=seed)
        pairs = lsh_candidate_pairs(sig, 2, seed=seed)
        if pairs.size:
            assert (pairs[:, 0] < pairs[:, 1]).all()
            assert pairs.min() >= 0 and pairs.max() < csr.n_rows

    @given(csr_matrices())
    @settings(max_examples=30)
    def test_identical_rows_are_candidates(self, csr):
        # With bsize=1 every identical (non-empty) pair must be found.
        sig = minhash_signatures(csr, 8, seed=0)
        pairs = set(map(tuple, lsh_candidate_pairs(sig, 1, seed=0, bucket_cap=None).tolist()))
        lengths = csr.row_lengths()
        for i in range(csr.n_rows):
            for j in range(i + 1, csr.n_rows):
                if lengths[i] and np.array_equal(csr.row_cols(i), csr.row_cols(j)):
                    assert (i, j) in pairs
