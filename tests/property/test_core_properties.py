"""Hypothesis property tests for clustering, tiling, cache and the pipeline."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.aspt import tile_matrix
from repro.clustering import MaxHeap, UnionFind, cluster_rows
from repro.gpu.cache import approx_lru_hits, lru_hits, set_associative_hits
from repro.kernels import sddmm, spmm
from repro.reorder import ReorderConfig, build_plan

from test_sparse_properties import csr_matrices


class TestUnionFindProperties:
    @given(st.integers(1, 40), st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60))
    def test_sizes_partition(self, n, unions):
        uf = UnionFind(n)
        for i, j in unions:
            if i < n and j < n:
                uf.union_by_size(i, j)
        roots = {uf.root(i) for i in range(n)}
        assert sum(int(uf.size[r]) for r in roots) == n
        assert len(roots) == uf.n_sets

    @given(st.integers(1, 40), st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60))
    def test_root_is_idempotent(self, n, unions):
        uf = UnionFind(n)
        for i, j in unions:
            if i < n and j < n:
                uf.union_by_size(i, j)
        for i in range(n):
            r = uf.root(i)
            assert uf.root(r) == r


class TestHeapProperties:
    @given(st.lists(st.floats(0, 1, allow_nan=False), max_size=200))
    def test_pops_sorted_descending(self, sims):
        h = MaxHeap()
        for k, s in enumerate(sims):
            h.push(s, k, k + 1)
        out = [h.pop()[0] for _ in range(len(sims))]
        assert out == sorted(sims, reverse=True)

    @given(
        hnp.arrays(np.float64, st.integers(0, 100), elements=st.floats(0, 1)),
    )
    def test_bulk_build_equals_incremental(self, sims):
        bulk = MaxHeap.from_arrays(sims, np.arange(sims.size), np.arange(sims.size))
        inc = MaxHeap()
        for k, s in enumerate(sims):
            inc.push(float(s), k, k)
        a = [bulk.pop()[0] for _ in range(sims.size)]
        b = [inc.pop()[0] for _ in range(sims.size)]
        assert a == b


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

    @given(streams, st.integers(1, 8))
    def test_single_set_equals_fully_associative(self, stream, ways):
        assert set_associative_hits(stream, 1, ways).hits == lru_hits(stream, ways).hits

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
