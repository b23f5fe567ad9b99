"""Unit tests for repro.similarity.minhash and repro.similarity.lsh."""

import warnings

import numpy as np
import pytest

from repro.errors import ConfigError, DegradedExecution, ValidationError
from repro.kernels.backends import load_backend
from repro.sparse import CSRMatrix
from repro.similarity import LSHIndex, lsh_candidate_pairs, minhash_signatures
from repro.similarity.jaccard import jaccard_rows, pairwise_jaccard_dense
from repro.similarity.minhash import EMPTY_ROW_SENTINEL

from conftest import random_csr


class TestMinhashSignatures:
    def test_shape_and_dtype(self, paper_matrix):
        sig = minhash_signatures(paper_matrix, 16, seed=0)
        assert sig.shape == (6, 16)
        assert sig.dtype == np.int64

    def test_deterministic_for_seed(self, paper_matrix):
        a = minhash_signatures(paper_matrix, 8, seed=3)
        b = minhash_signatures(paper_matrix, 8, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, paper_matrix):
        a = minhash_signatures(paper_matrix, 8, seed=1)
        b = minhash_signatures(paper_matrix, 8, seed=2)
        assert not np.array_equal(a, b)

    def test_identical_rows_identical_signatures(self):
        dense = np.zeros((2, 10))
        dense[:, [1, 4, 7]] = 1.0
        sig = minhash_signatures(CSRMatrix.from_dense(dense), 32, seed=0)
        np.testing.assert_array_equal(sig[0], sig[1])

    def test_empty_row_sentinel(self):
        m = CSRMatrix.from_dense([[0.0, 0.0], [1.0, 0.0]])
        sig = minhash_signatures(m, 4, seed=0)
        assert (sig[0] == EMPTY_ROW_SENTINEL).all()
        assert (sig[1] != EMPTY_ROW_SENTINEL).all()

    def test_agreement_estimates_jaccard(self, rng):
        # Statistical property: fraction of agreeing positions ~ Jaccard.
        m = random_csr(rng, 12, 40, 0.25)
        sig = minhash_signatures(m, 512, seed=7)
        truth = pairwise_jaccard_dense(m)
        for i in range(0, 12, 3):
            for j in range(i + 1, 12, 3):
                est = float((sig[i] == sig[j]).mean())
                assert est == pytest.approx(truth[i, j], abs=0.12)

    def test_invalid_siglen(self, paper_matrix):
        with pytest.raises(ValidationError):
            minhash_signatures(paper_matrix, 0)

    def test_zero_rows(self):
        sig = minhash_signatures(CSRMatrix.empty((0, 5)), 4)
        assert sig.shape == (0, 4)


class TestLshCandidatePairs:
    def test_identical_rows_always_candidates(self):
        dense = np.zeros((4, 20))
        dense[0, [1, 5, 9]] = 1.0
        dense[2, [1, 5, 9]] = 1.0  # row 2 identical to row 0
        dense[1, [0]] = 1.0
        dense[3, [13]] = 1.0
        m = CSRMatrix.from_dense(dense)
        sig = minhash_signatures(m, 32, seed=0)
        pairs = lsh_candidate_pairs(sig, 2, seed=0)
        assert [0, 2] in pairs.tolist()

    def test_pairs_canonical_and_unique(self, rng):
        m = random_csr(rng, 40, 25, 0.2)
        sig = minhash_signatures(m, 32, seed=1)
        pairs = lsh_candidate_pairs(sig, 2, seed=1)
        assert (pairs[:, 0] < pairs[:, 1]).all()
        keys = pairs[:, 0] * 40 + pairs[:, 1]
        assert np.unique(keys).size == keys.size

    def test_bsize_must_divide_siglen(self, paper_matrix):
        sig = minhash_signatures(paper_matrix, 8, seed=0)
        with pytest.raises(ValidationError):
            lsh_candidate_pairs(sig, 3)

    def test_smaller_bsize_more_candidates(self, rng):
        m = random_csr(rng, 60, 30, 0.15)
        sig = minhash_signatures(m, 32, seed=2)
        few = lsh_candidate_pairs(sig, 8, seed=2, bucket_cap=None)
        many = lsh_candidate_pairs(sig, 1, seed=2, bucket_cap=None)
        assert many.shape[0] >= few.shape[0]

    def test_empty_rows_skipped(self):
        m = CSRMatrix.from_dense(np.zeros((5, 5)))
        sig = minhash_signatures(m, 8, seed=0)
        pairs = lsh_candidate_pairs(sig, 2, seed=0)
        assert pairs.shape[0] == 0

    def test_bucket_cap_limits_pairs(self):
        # 100 identical rows: uncapped -> 4950 pairs; capped -> far fewer.
        dense = np.zeros((100, 10))
        dense[:, [2, 5]] = 1.0
        m = CSRMatrix.from_dense(dense)
        sig = minhash_signatures(m, 8, seed=0)
        uncapped = lsh_candidate_pairs(sig, 2, seed=0, bucket_cap=None)
        capped = lsh_candidate_pairs(sig, 2, seed=0, bucket_cap=5)
        assert uncapped.shape[0] == 100 * 99 // 2
        assert 0 < capped.shape[0] < uncapped.shape[0]

    def test_single_row_no_pairs(self):
        m = CSRMatrix.from_dense([[1.0, 0.0]])
        sig = minhash_signatures(m, 8, seed=0)
        assert lsh_candidate_pairs(sig, 2).shape[0] == 0

    def test_non_2d_signatures_rejected(self):
        with pytest.raises(ValidationError):
            lsh_candidate_pairs(np.zeros(8, dtype=np.int64), 2)


class TestLSHIndex:
    def test_paper_matrix_finds_most_similar_pair(self, paper_matrix):
        index = LSHIndex(siglen=128, bsize=2, seed=0)
        pairs, sims = index.candidate_pairs(paper_matrix)
        pair_list = pairs.tolist()
        # (0, 4) with J = 2/3 is by far the most similar pair; with
        # bsize=2 the per-band hit probability is (2/3)^2 = 4/9 and there
        # are 64 bands, so the probability of missing it is ~1e-17.
        assert [0, 4] in pair_list
        idx = pair_list.index([0, 4])
        assert sims[idx] == pytest.approx(2 / 3)

    def test_similarities_are_exact(self, rng):
        m = random_csr(rng, 30, 20, 0.2)
        pairs, sims = LSHIndex(siglen=64, bsize=2, seed=1).candidate_pairs(m)
        for (i, j), s in zip(pairs.tolist(), sims):
            assert s == pytest.approx(jaccard_rows(m, i, j))

    def test_zero_similarity_pairs_dropped(self, rng):
        m = random_csr(rng, 30, 20, 0.2)
        _, sims = LSHIndex(siglen=64, bsize=1, seed=1).candidate_pairs(m)
        assert (sims > 0).all()

    def test_recall_on_similar_pairs(self, rng):
        # LSH with paper parameters should find nearly all pairs with
        # similarity >= 0.5 (per-band prob 0.25, 64 bands -> miss ~1e-8).
        dense = np.zeros((30, 50))
        base = rng.random(50) < 0.3
        for i in range(30):
            row = base.copy()
            flips = rng.integers(0, 50, size=3)
            row[flips] = ~row[flips]
            dense[i] = row
        m = CSRMatrix.from_dense(dense.astype(float))
        truth = pairwise_jaccard_dense(m)
        want = {
            (i, j)
            for i in range(30)
            for j in range(i + 1, 30)
            if truth[i, j] >= 0.5
        }
        pairs, _ = LSHIndex(siglen=128, bsize=2, seed=0, bucket_cap=None).candidate_pairs(m)
        got = {tuple(p) for p in pairs.tolist()}
        assert want <= got

    def test_diagonal_matrix_produces_no_candidates(self):
        # Paper §4: for a scattered matrix LSH generates few or no pairs,
        # which automatically disables reordering.
        m = CSRMatrix.from_dense(np.eye(64))
        pairs, _ = LSHIndex(siglen=32, bsize=2, seed=0).candidate_pairs(m)
        assert pairs.shape[0] == 0


class TestPairsInBucketsBatching:
    """The size-batched bucket expansion must match a naive reference."""

    @staticmethod
    def _naive(order, starts, ends, bucket_cap):
        pairs = []
        for s, e in zip(starts.tolist(), ends.tolist()):
            members = order[s:e].tolist()
            size = len(members)
            if size < 2:
                continue
            if bucket_cap is None or size <= bucket_cap:
                for a in range(size):
                    for b in range(a + 1, size):
                        pairs.append((members[a], members[b]))
            else:
                for d in range(1, bucket_cap + 1):
                    for a in range(size - d):
                        pairs.append((members[a], members[a + d]))
        return sorted(pairs)

    @pytest.mark.parametrize("bucket_cap", [None, 3, 64])
    def test_matches_naive(self, rng, bucket_cap):
        from repro.similarity.lsh import _pairs_in_buckets

        order = rng.permutation(200).astype(np.int64)
        # Random bucket boundaries, including empty and size-1 buckets.
        cuts = np.sort(rng.choice(200, size=40, replace=False)).astype(np.int64)
        starts = np.concatenate([[0], cuts])
        ends = np.concatenate([cuts, [200]])
        chunks = _pairs_in_buckets(order, starts, ends, bucket_cap)
        got = sorted(
            map(tuple, np.concatenate(chunks).tolist() if chunks else [])
        )
        assert got == self._naive(order, starts, ends, bucket_cap)


class TestMinhashBackends:
    def test_none_and_numpy_are_the_reference(self, paper_matrix):
        reference = minhash_signatures(paper_matrix, 16, seed=3)
        for backend in (None, "numpy"):
            np.testing.assert_array_equal(
                minhash_signatures(paper_matrix, 16, seed=3, backend=backend),
                reference,
            )

    def test_unknown_backend_raises_config_error(self, paper_matrix):
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            minhash_signatures(paper_matrix, 16, backend="cuda")

    def test_cc_matches_the_reference(self, compiled_backend, rng):
        # Empty rows, column ids past the modulus and an odd siglen.
        cols = np.sort(rng.choice(2**33, size=40, replace=False))
        rowptr = np.concatenate([[0], np.sort(rng.integers(0, 41, size=29)), [40]])
        m = CSRMatrix.from_arrays((30, 2**33), rowptr, cols)
        assert (m.row_lengths() == 0).any()
        assert load_backend(compiled_backend).minhash is not None
        for siglen in (1, 7, 128):
            np.testing.assert_array_equal(
                minhash_signatures(m, siglen, seed=siglen, backend=compiled_backend),
                minhash_signatures(m, siglen, seed=siglen),
            )

    def test_cc_without_compiler_degrades_to_the_reference(
        self, paper_matrix, no_compiler
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = minhash_signatures(paper_matrix, 16, seed=1, backend="cc")
        assert [w.category for w in caught] == [DegradedExecution]
        np.testing.assert_array_equal(got, minhash_signatures(paper_matrix, 16, seed=1))

    def test_candidate_pairs_same_on_every_backend(self, rng, backend_name):
        m = random_csr(rng, 60, 40, density=0.15)
        index = LSHIndex(siglen=32, bsize=2, seed=5)
        want_pairs, want_sims = index.candidate_pairs(m)
        pairs, sims = index.candidate_pairs(m, backend=backend_name)
        np.testing.assert_array_equal(pairs, want_pairs)
        np.testing.assert_array_equal(sims, want_sims)


def _intersection_reference(csr, left, right):
    return np.array(
        [np.intersect1d(csr.row_cols(a), csr.row_cols(b)).size
         for a, b in zip(left.tolist(), right.tolist())],
        dtype=np.int64,
    )


class TestIntersectionSizes:
    """``_intersection_sizes``: one key sort, lexsort where keys overflow."""

    def test_sort_path_equals_lexsort_path(self, rng, monkeypatch):
        from repro.similarity import jaccard

        m = random_csr(rng, 50, 30, density=0.3)
        left = rng.integers(0, 50, size=400).astype(np.int64)
        right = rng.integers(0, 50, size=400).astype(np.int64)
        by_key = jaccard._intersection_sizes(m, left, right)
        monkeypatch.setattr(jaccard, "_KEY_LIMIT", 0)  # every input overflows
        by_lexsort = jaccard._intersection_sizes(m, left, right)
        np.testing.assert_array_equal(by_key, by_lexsort)
        np.testing.assert_array_equal(by_key, _intersection_reference(m, left, right))

    def test_huge_n_cols_takes_the_lexsort_fallback(self, monkeypatch):
        from repro.similarity import jaccard

        n_cols = 2**62 - 1
        # Under wrapping int64 keys, pair 4's column c would land on pair
        # 0's column c - 4: the columns are chosen so that it would.
        rows = [[0, 10], [10, 20], [2**61, n_cols - 1], [14, n_cols - 1],
                [7, 14], [3, 7]]
        colidx = np.array([c for row in rows for c in row], dtype=np.int64)
        rowptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
        m = CSRMatrix.from_arrays((len(rows), n_cols), rowptr, colidx)
        left = np.array([0, 1, 2, 3, 4, 3], dtype=np.int64)
        right = np.array([1, 0, 3, 4, 5, 2], dtype=np.int64)
        calls = []
        real = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or real(keys))
        got = jaccard._intersection_sizes(m, left, right)
        assert calls  # the (pair, column) lexsort ran
        np.testing.assert_array_equal(got, _intersection_reference(m, left, right))
        np.testing.assert_array_equal(got, [1, 1, 1, 1, 1, 1])

    def test_no_pairs_and_empty_rows(self):
        from repro.similarity.jaccard import _intersection_sizes

        m = CSRMatrix.from_dense(np.array([[0.0, 0.0], [1.0, 0.0]]))
        empty = np.zeros(0, dtype=np.int64)
        assert _intersection_sizes(m, empty, empty).shape == (0,)
        np.testing.assert_array_equal(
            _intersection_sizes(m, np.array([0, 1]), np.array([0, 1])), [0, 1]
        )


def _pairs_per_band(keys, rows, n_rows, bucket_cap):
    """The per-band banding loop ``pairs_from_band_keys`` replaced, kept as
    its reference: a stable argsort per band, expansion per band, then a
    global dedupe."""
    from repro.similarity.lsh import _pairs_in_buckets

    chunks = []
    for band in range(keys.shape[1]):
        order = np.argsort(keys[:, band], kind="stable")
        sorted_keys = keys[:, band][order]
        boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [sorted_keys.size]])
        chunks.extend(_pairs_in_buckets(order, starts, ends, bucket_cap))
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    pairs = rows[np.concatenate(chunks, axis=0)]
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    uniq = np.unique(lo * np.int64(n_rows) + hi)
    return np.stack([uniq // n_rows, uniq % n_rows], axis=1)


class TestPairsFromBandKeys:
    """All bands in one pass give the per-band loop's pairs exactly."""

    @pytest.mark.parametrize("bucket_cap", [None, 2, 3, 64])
    def test_matches_per_band_reference(self, rng, bucket_cap):
        from repro.similarity.lsh import pairs_from_band_keys

        for _ in range(30):
            m = int(rng.integers(0, 150))
            nbands = int(rng.integers(1, 9))
            # Few distinct keys: heavy collisions, so buckets outgrow the
            # cap and take the ascending-order path.
            keys = rng.integers(-3, int(rng.integers(-2, 8)), size=(m, nbands))
            n_rows = m + int(rng.integers(0, 20))
            rows = np.sort(rng.choice(n_rows, size=m, replace=False)).astype(np.int64)
            got = pairs_from_band_keys(keys, rows, n_rows, bucket_cap=bucket_cap)
            want = _pairs_per_band(keys, rows, n_rows, bucket_cap)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    def test_band_keys_match_a_per_band_sum(self, rng):
        from repro.similarity.lsh import band_keys_matrix, band_mixers

        signatures = rng.integers(0, 2**31 - 1, size=(20, 24))
        for bsize in (1, 2, 3, 8):
            mixers = band_mixers(24, bsize, seed=9)
            banded = signatures.reshape(20, 24 // bsize, bsize)
            with np.errstate(over="ignore"):
                want = (banded * mixers[None, :, :]).sum(axis=2, dtype=np.int64)
            np.testing.assert_array_equal(band_keys_matrix(signatures, mixers), want)

    @pytest.mark.parametrize("bsize", [1, 2, 4, 128])
    def test_mixers_match_the_per_band_draw(self, bsize):
        from repro.similarity.lsh import band_mixers

        for seed in range(20):
            draws = np.random.default_rng(seed)
            want = np.stack([
                draws.integers(1, 2**61, size=bsize, dtype=np.int64)
                for _ in range(128 // bsize)
            ])
            np.testing.assert_array_equal(band_mixers(128, bsize, seed), want)
