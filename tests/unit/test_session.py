"""Unit tests for repro.kernels.KernelSession (steady-state SpMM)."""

import threading

import numpy as np
import pytest

from repro.aspt import tile_matrix
from repro.datasets import hidden_clusters
from repro.errors import ShapeError
from repro.kernels import KernelSession, spmm, spmm_tiled
from repro.kernels.state import stage_transposed
from repro.reorder import ReorderConfig, build_plan
from repro.util.workspace import DirectWorkspace, WorkspacePool

from conftest import random_csr


@pytest.fixture(scope="module")
def matrix():
    return hidden_clusters(40, 4, 256, 10, noise=0.1, seed=3)


@pytest.fixture(scope="module")
def X(matrix):
    return np.random.default_rng(11).normal(size=(matrix.n_cols, 24))


class TestCsrSession:
    def test_bitwise_matches_oneshot(self, matrix, X):
        session = KernelSession(matrix)
        np.testing.assert_array_equal(session.run(X), spmm(matrix, X))

    def test_bitwise_on_random_matrices(self, rng):
        for _ in range(3):
            csr = random_csr(rng, 30, 17, density=0.2)
            X = rng.normal(size=(17, 9))
            np.testing.assert_array_equal(KernelSession(csr).run(X), spmm(csr, X))

    def test_float32_operand(self, matrix):
        X32 = np.random.default_rng(5).normal(size=(matrix.n_cols, 8))
        X32 = X32.astype(np.float32)
        got = KernelSession(matrix).run(X32)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, spmm(matrix, X32))

    def test_chunk_smaller_than_k(self, matrix, X):
        session = KernelSession(matrix, chunk_k=5)  # forces several chunks
        np.testing.assert_array_equal(session.run(X), spmm(matrix, X))

    def test_empty_rows_zeroed(self, rng):
        csr = random_csr(rng, 20, 10, density=0.05)  # sparse enough for gaps
        X = rng.normal(size=(10, 4))
        np.testing.assert_array_equal(KernelSession(csr).run(X), spmm(csr, X))

    def test_out_parameter_is_used_and_returned(self, matrix, X):
        session = KernelSession(matrix)
        out = np.empty((matrix.n_rows, X.shape[1]))
        got = session.run(X, out=out)
        assert got is out
        np.testing.assert_array_equal(out, spmm(matrix, X))

    def test_default_output_is_reused_per_thread(self, matrix, X):
        session = KernelSession(matrix)
        first = session.run(X)
        second = session.run(X)
        assert first is second  # pinned thread-local buffer

    def test_steady_state_stops_allocating(self, matrix, X):
        session = KernelSession(matrix)
        session.run(X)
        misses_after_warmup = session.stats()["misses"]
        for _ in range(4):
            session.run(X)
        stats = session.stats()
        assert stats["misses"] == misses_after_warmup
        assert stats["hits"] > 0

    def test_run_many_returns_owned_arrays(self, matrix, X):
        session = KernelSession(matrix)
        results = session.run_many([X, X * 2.0])
        assert results[0] is not results[1]
        np.testing.assert_array_equal(results[0], spmm(matrix, X))
        np.testing.assert_array_equal(results[1], spmm(matrix, X * 2.0))

    def test_shared_pool(self, matrix, X):
        pool = WorkspacePool()
        session = KernelSession(matrix, pool=pool)
        session.run(X)
        assert pool.stats()["misses"] > 0

    def test_close_clears_pool(self, matrix, X):
        session = KernelSession(matrix)
        session.run(X)
        session.close()
        assert session.pool.held_bytes == 0
        np.testing.assert_array_equal(session.run(X), spmm(matrix, X))

    def test_concurrent_runs_are_bitwise_correct(self, matrix):
        session = KernelSession(matrix)
        rng = np.random.default_rng(17)
        operands = [rng.normal(size=(matrix.n_cols, 16)) for _ in range(6)]
        expected = [spmm(matrix, X) for X in operands]
        results = [None] * len(operands)
        errors = []

        def worker(idx):
            try:
                for _ in range(5):
                    results[idx] = session.run(operands[idx]).copy()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(len(operands))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got, want)

    def test_dimensions(self, matrix):
        session = KernelSession(matrix)
        assert session.n_rows == matrix.n_rows
        assert session.n_cols == matrix.n_cols

    def test_shape_mismatch_rejected(self, matrix):
        session = KernelSession(matrix)
        bad = np.zeros((matrix.n_cols + 1, 4))
        with pytest.raises(Exception):
            session.run(bad)


class TestTiledSession:
    def test_bitwise_matches_spmm_of_tiled_original(self, matrix, X):
        tiled = tile_matrix(matrix, 8, 2)
        assert tiled.dense_part.nnz  # the split is non-trivial
        session = KernelSession(tiled)
        got = session.run(X)
        np.testing.assert_array_equal(got, spmm(tiled.original, X))
        # The paper's two-phase kernel sums the split in another order.
        np.testing.assert_allclose(got, spmm_tiled(tiled, X), rtol=1e-10, atol=1e-9)

    def test_all_sparse_panels(self, rng):
        csr = random_csr(rng, 24, 12, density=0.05)  # nothing promotes to dense
        tiled = tile_matrix(csr, 8, 4)
        X = rng.normal(size=(12, 6))
        np.testing.assert_array_equal(
            KernelSession(tiled).run(X), spmm(tiled.original, X)
        )


#: Round-1 (and round-2) reordering forced on, so the row scatter is real.
REORDERED = ReorderConfig(siglen=32, panel_height=8, force_round1=True, force_round2=True)


class TestPlanSession:
    def test_bitwise_matches_plan_spmm(self, matrix, X):
        plan = build_plan(matrix, ReorderConfig())
        session = KernelSession(plan)
        got = session.run(X)
        np.testing.assert_array_equal(got, plan.spmm(X))
        np.testing.assert_array_equal(got, spmm(matrix, X))

    def test_plan_session_accessor(self, matrix, X):
        plan = build_plan(matrix, REORDERED)
        assert plan.stats.round1_applied
        session = plan.session()
        assert isinstance(session, KernelSession)
        np.testing.assert_array_equal(session.run(X), plan.spmm(X))
        np.testing.assert_array_equal(session.run(X), spmm(matrix, X))

    def test_k512_steady_state_takes_no_pool_misses(self):
        # A dense-tile-heavy plan at K=512: one pass needs X.T, one gather
        # chunk and the scatter buffer, which fit this pool, so every
        # lease after the first run is a hit.
        matrix = hidden_clusters(16, 16, 2048, 24, noise=0.05, seed=5)
        plan = build_plan(matrix, ReorderConfig(panel_height=16))
        assert plan.tiled.dense_ratio > 0.5
        X = np.random.default_rng(2).normal(size=(matrix.n_cols, 512))
        session = plan.session(pool=WorkspacePool(max_bytes=16 << 20))
        session.run(X)
        warm = session.stats()
        for _ in range(3):
            got = session.run(X)
        stats = session.stats()
        assert stats["misses"] == warm["misses"]
        assert stats["evictions"] == warm["evictions"]
        assert session.fallbacks == 0
        np.testing.assert_array_equal(got, spmm(matrix, X))


class TestStagedTranspose:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_blocked_copy_equals_transpose(self, dtype):
        # 5000-wide rows: several rows per block and a ragged last block.
        X = np.random.default_rng(4).normal(size=(37, 5000)).astype(dtype)
        XT = stage_transposed(X, DirectWorkspace())
        assert XT.dtype == np.float64
        np.testing.assert_array_equal(XT, X.T)

    def test_zero_width_operand(self):
        assert stage_transposed(np.empty((3, 0)), DirectWorkspace()).shape == (0, 3)


class TestValidation:
    def test_bad_target_type(self):
        with pytest.raises(TypeError):
            KernelSession(np.zeros((3, 3)))

    def test_bad_chunk_k(self, matrix):
        with pytest.raises(ValueError):
            KernelSession(matrix, chunk_k=0)

    def test_run_many_rejects_1d_operand_like_run(self, matrix):
        session = KernelSession(matrix)
        x = np.ones(matrix.n_cols)
        with pytest.raises(ShapeError):
            session.run(x)
        with pytest.raises(ShapeError):
            session.run_many([x])
