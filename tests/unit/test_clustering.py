"""Unit tests for repro.clustering (paper Alg. 3): the reference loop and
the compiled ``repro_cluster`` of the ``cc`` library."""

import warnings

import numpy as np
import pytest

import repro.kernels.backends as backends_mod
from repro.clustering import ClusteringResult, cluster_rows
from repro.datasets import hidden_clusters
from repro.errors import DegradedExecution, TimeoutExceeded, ValidationError
from repro.kernels.backends import cc_backend, load_backend
from repro.observability.metrics import METRICS
from repro.reorder import ReorderConfig, build_plan
from repro.resilience import Deadline, ResiliencePolicy
from repro.similarity import LSHIndex, similarity_for_pairs
from repro.sparse import CSRMatrix


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
        np.testing.assert_array_equal(result.order, np.arange(6))
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
        with pytest.raises(ValidationError):
            cluster_rows(paper_matrix, np.empty((0, 0)), np.zeros(0))

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

    @pytest.mark.parametrize("backend", [None, "cc"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sims_rejected(self, paper_matrix, backend, bad):
        # NaN has no place in the heap order: Python's tuple comparison
        # would order it one way and no C heap can match that.
        pairs = np.array([[0, 4], [2, 4], [1, 5], [3, 5], [0, 2]])
        sims = np.array([0.5, 0.1, 0.9, 0.3, 0.2])
        sims[1] = bad
        with pytest.raises(ValidationError, match="finite"):
            cluster_rows(paper_matrix, pairs, sims, backend=backend)


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


def _fields(result):
    return (
        result.order.tolist(), result.cluster_of.tolist(), result.n_clusters,
        result.n_merges, result.n_retired, result.n_requeued,
    )


class TestCompiledLoop:
    """``cluster_rows(backend=...)``: ``None``/``"numpy"`` run the reference
    loop, ``"cc"`` the compiled ``repro_cluster`` with the same decisions."""

    @staticmethod
    def _case(rng, n_rows=60, n_cols=48):
        dense = (rng.random((n_rows, n_cols)) < 0.12).astype(float)
        dense[n_rows // 2 :] = dense[: n_rows - n_rows // 2]  # near-duplicates
        dense[rng.random((n_rows, n_cols)) < 0.03] = 1.0
        dense[3] = 0.0  # an empty row
        csr = CSRMatrix.from_dense(dense)
        pairs, _ = LSHIndex(siglen=16, bsize=2, seed=1).candidate_pairs(csr)
        # Reversed, repeated and self pairs on top of the LSH candidates.
        pairs = np.concatenate([pairs, pairs[:10, ::-1], pairs[:5], [[7, 7]]])
        return csr, pairs

    def test_none_and_numpy_are_the_reference(self, rng):
        csr, pairs = self._case(rng)
        sims = similarity_for_pairs(csr, pairs)
        reference = _fields(cluster_rows(csr, pairs, sims, threshold_size=4))
        for backend in (None, "numpy"):
            got = cluster_rows(csr, pairs, sims, threshold_size=4, backend=backend)
            assert _fields(got) == reference

    @pytest.mark.parametrize("measure", ["jaccard", "cosine", "overlap", "dice"])
    def test_cc_matches_the_reference(self, compiled_backend, rng, measure):
        assert load_backend(compiled_backend).cluster is not None
        csr, pairs = self._case(rng)
        sims = similarity_for_pairs(csr, pairs, measure)
        sims[::7] = 0.0  # zero similarities, ties among them
        for threshold_size in (1, 2, 4, 256, 10**30):
            want = cluster_rows(
                csr, pairs, sims, threshold_size=threshold_size, measure=measure
            )
            got = cluster_rows(
                csr, pairs, sims, threshold_size=threshold_size, measure=measure,
                backend=compiled_backend,
            )
            assert _fields(got) == _fields(want)
        assert want.n_requeued > 0  # the scoring path ran

    def test_cc_without_compiler_degrades_to_the_reference(self, no_compiler, rng):
        csr, pairs = self._case(rng)
        sims = similarity_for_pairs(csr, pairs)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = cluster_rows(csr, pairs, sims, backend="cc")
        assert [w.category for w in caught] == [DegradedExecution]
        assert _fields(got) == _fields(cluster_rows(csr, pairs, sims))

    def test_counters_count_the_compiled_requeues(self, compiled_backend, rng):
        csr, pairs = self._case(rng)
        sims = similarity_for_pairs(csr, pairs)
        requeues = METRICS.counter("clustering.heap_requeues")
        before = requeues.value
        got = cluster_rows(csr, pairs, sims, backend=compiled_backend)
        assert requeues.value - before == got.n_requeued > 0

    def test_deadline_checked_before_and_after_the_call(
        self, compiled_backend, rng, monkeypatch
    ):
        csr, pairs = self._case(rng)
        sims = similarity_for_pairs(csr, pairs)
        now = [0.0]
        calls = []
        loaded = load_backend(compiled_backend)

        def slow(*args):
            calls.append(1)
            now[0] += 10.0  # the budget runs out inside the call
            return loaded.cluster(*args)

        monkeypatch.setitem(
            backends_mod._LOADED, compiled_backend, loaded._replace(cluster=slow)
        )
        with pytest.raises(TimeoutExceeded):
            cluster_rows(
                csr, pairs, sims, backend=compiled_backend,
                deadline=Deadline.after(1.0, clock=lambda: now[0]),
            )
        assert calls == [1]  # raised after the call
        with pytest.raises(TimeoutExceeded):
            cluster_rows(
                csr, pairs, sims, backend=compiled_backend,
                deadline=Deadline.after(0.0, clock=lambda: now[0]),
            )
        assert calls == [1]  # raised before the call

    def test_allocation_failure_raises_memory_error_and_drops_a_rung(
        self, compiled_backend, monkeypatch
    ):
        out_of_memory = cc_backend._cluster_fn(lambda *args: cc_backend._CLUSTER_NOMEM)
        m = hidden_clusters(16, 4, 256, 8, noise=0.1, seed=4)
        pairs = np.array([[0, 1], [1, 2]])
        with pytest.raises(MemoryError):
            out_of_memory(m, np.array([-0.5, -0.2]), pairs[:, 0], pairs[:, 1], 4, "jaccard")
        loaded = load_backend(compiled_backend)
        monkeypatch.setitem(
            backends_mod._LOADED, compiled_backend, loaded._replace(cluster=out_of_memory)
        )
        config = ReorderConfig(siglen=16, panel_height=8, force_round1=True)
        with pytest.warns(DegradedExecution, match="identity"):
            plan = build_plan(m, config, resilience=ResiliencePolicy())
        assert plan.provenance[0].startswith("full: MemoryError")
        assert plan.provenance[-1] == "identity: ok"
        assert not plan.stats.round1_applied

    def test_wrapper_refuses_pairs_out_of_range(self, compiled_backend, paper_matrix):
        fn = load_backend(compiled_backend).cluster
        with pytest.raises(ValidationError):
            fn(paper_matrix, np.array([-0.5]), np.array([0]), np.array([6]), 4, "jaccard")
