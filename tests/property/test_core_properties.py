"""Hypothesis property tests for clustering, tiling, cache and the pipeline."""

import heapq

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.aspt import tile_matrix
from repro.clustering import cluster_rows
from repro.gpu.cache import approx_lru_hits, lru_hits
from repro.kernels import sddmm, spmm
from repro.reorder import ReorderConfig, build_plan
from repro.similarity import similarity_for_pairs

from test_sparse_properties import csr_matrices


def alg3_oracle(csr, pairs, sims, threshold_size, measure):
    """Paper Alg. 3 as written: one heap of every candidate, each requeued
    pair scored on its own, and a dict epilogue."""
    n = csr.n_rows
    heap = [(-s, i, j) for (i, j), s in zip(pairs.tolist(), sims.tolist())]
    heapq.heapify(heap)
    seen = {(min(i, j), max(i, j)) for i, j in pairs.tolist()}
    parent, size, deleted = list(range(n)), [1] * n, [False] * n
    live, merges, retired, requeued = n, 0, 0, 0

    def root(r):
        while parent[r] != r:
            r = parent[r]
        return r

    while heap and live:
        _, i, j = heapq.heappop(heap)
        if parent[i] == i and parent[j] == j:
            if deleted[i] or deleted[j] or i == j:
                continue
            # The smaller cluster joins the larger; a tie keeps the smaller row.
            smaller_i = size[i] < size[j] or (size[i] == size[j] and j < i)
            child, rep = (i, j) if smaller_i else (j, i)
            parent[child] = rep
            size[rep] += size[child]
            live, merges = live - 1, merges + 1
            if size[rep] >= threshold_size:
                deleted[rep] = True
                live, retired = live - 1, retired + 1
            continue
        a, b = sorted((root(i), root(j)))
        if deleted[a] or deleted[b] or a == b or (a, b) in seen:
            continue
        seen.add((a, b))
        s = similarity_for_pairs(csr, np.array([[a, b]]), measure)[0]
        heapq.heappush(heap, (-s, a, b))
        requeued += 1
    clusters = {}
    for r in range(n):
        clusters.setdefault(root(r), []).append(r)
    order = [r for members in sorted(clusters.values()) for r in members]
    cluster_of = [root(r) for r in range(n)]
    return order, cluster_of, len(clusters), merges, retired, requeued


class TestAlg3Oracle:
    @given(
        csr_matrices(),
        st.sampled_from(["jaccard", "cosine", "overlap", "dice"]),
        st.sampled_from([1, 2, 4, 256]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_cluster_rows_matches_the_oracle(self, csr, measure, threshold_size, seed):
        # A random subset of all row pairs, some reversed and some repeated,
        # so that merges leave representative pairs to requeue.
        rng = np.random.default_rng(seed)
        n = csr.n_rows
        pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)], dtype=np.int64)
        pairs = pairs.reshape(-1, 2)[rng.random(len(pairs)) < 0.5]
        pairs = np.where(rng.random((len(pairs), 1)) < 0.5, pairs[:, ::-1], pairs)
        pairs = np.concatenate([pairs, pairs[: rng.integers(0, len(pairs) + 1)]])
        sims = similarity_for_pairs(csr, pairs, measure)
        got = cluster_rows(csr, pairs, sims, threshold_size=threshold_size, measure=measure)
        assert (
            got.order.tolist(), got.cluster_of.tolist(), got.n_clusters,
            got.n_merges, got.n_retired, got.n_requeued,
        ) == alg3_oracle(csr, pairs, sims, threshold_size, measure)


class TestCacheProperties:
    streams = hnp.arrays(np.int64, st.integers(0, 200), elements=st.integers(0, 25))

    @given(streams, st.integers(1, 30))
    def test_hits_bounded(self, stream, cap):
        stats = lru_hits(stream, cap)
        assert 0 <= stats.hits <= max(0, stream.size - 1)

    @given(streams, st.integers(1, 15))
    def test_capacity_monotonicity(self, stream, cap):
        small = lru_hits(stream, cap).hits
        large = lru_hits(stream, cap + 5).hits
        assert large >= small

    @given(streams, st.integers(1, 30))
    def test_approx_is_lower_bound(self, stream, cap):
        assert approx_lru_hits(stream, cap, slack=1.0).hits <= lru_hits(stream, cap).hits

    @given(streams)
    def test_infinite_capacity_only_cold_misses(self, stream):
        stats = lru_hits(stream, 10**6)
        distinct = np.unique(stream).size
        assert stats.misses == distinct


class TestTilingProperties:
    @given(csr_matrices(), st.integers(1, 6), st.integers(1, 4))
    @settings(max_examples=60)
    def test_partition_exact(self, csr, panel_height, threshold):
        tiled = tile_matrix(csr, panel_height, threshold)
        assert tiled.nnz_dense + tiled.nnz_sparse == csr.nnz
        np.testing.assert_allclose(
            tiled.dense_part.to_dense() + tiled.sparse_part.to_dense(),
            csr.to_dense(),
        )

    @given(csr_matrices(), st.integers(1, 6))
    @settings(max_examples=60)
    def test_dense_columns_meet_threshold(self, csr, panel_height):
        tiled = tile_matrix(csr, panel_height, 2)
        # Every dense column instance has >= 2 nnz within its panel.
        dense = tiled.dense_part
        if dense.nnz == 0:
            return
        panel_ids = dense.row_ids() // panel_height
        keys = panel_ids * csr.n_cols + dense.colidx
        _, counts = np.unique(keys, return_counts=True)
        assert counts.min() >= 2

    @given(csr_matrices(), st.integers(1, 6), st.integers(1, 3))
    @settings(max_examples=40)
    def test_max_dense_cols_respected(self, csr, panel_height, cap):
        tiled = tile_matrix(csr, panel_height, 2, max_dense_cols=cap)
        for cols in tiled.panel_dense_cols:
            assert cols.size <= cap


class TestPipelineProperties:
    @given(csr_matrices(max_dim=10, max_nnz=30), st.integers(1, 4), st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_plan_preserves_spmm(self, csr, panel_height, seed):
        config = ReorderConfig(
            siglen=16, panel_height=panel_height, lsh_seed=seed,
            force_round1=True, force_round2=True, threshold_size=max(2, panel_height),
        )
        plan = build_plan(csr, config)
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(csr.n_cols, 3))
        # Reordered rows keep their contents: bit-equal, not just close.
        np.testing.assert_array_equal(plan.spmm(X), spmm(csr, X))
        np.testing.assert_array_equal(plan.session().run(X), spmm(csr, X))

    @given(csr_matrices(max_dim=10, max_nnz=30), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_plan_preserves_sddmm(self, csr, panel_height):
        config = ReorderConfig(
            siglen=16, panel_height=panel_height,
            force_round1=True, force_round2=True,
        )
        plan = build_plan(csr, config)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(csr.n_cols, 3))
        Y = rng.normal(size=(csr.n_rows, 3))
        got = plan.sddmm(X, Y)
        want = sddmm(csr, X, Y)
        assert got.same_pattern(want)
        np.testing.assert_allclose(got.values, want.values, rtol=1e-9, atol=1e-9)

    @given(csr_matrices(max_dim=10, max_nnz=30))
    @settings(max_examples=25, deadline=None)
    def test_row_order_is_permutation(self, csr):
        plan = build_plan(csr, ReorderConfig(siglen=16, panel_height=3, force_round1=True))
        assert sorted(plan.row_order.tolist()) == list(range(csr.n_rows))

    @given(csr_matrices(max_dim=10, max_nnz=30))
    @settings(max_examples=25, deadline=None)
    def test_clustering_order_always_permutation(self, csr):
        from repro.similarity import LSHIndex

        pairs, sims = LSHIndex(siglen=16, bsize=2, seed=1).candidate_pairs(csr)
        result = cluster_rows(csr, pairs, sims, threshold_size=4)
        assert sorted(result.order.tolist()) == list(range(csr.n_rows))
