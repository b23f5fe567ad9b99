"""Unit tests for repro.kernels.KernelSession (steady-state SpMM)."""

import threading

import numpy as np
import pytest

from repro.aspt import tile_matrix
from repro.datasets import hidden_clusters, power_law_rows
from repro.errors import FormatError, ShapeError, ValidationError
from repro.kernels import KernelSession, spmm, spmm_tiled
from repro.kernels.state import _BLOCK_BYTES, DEFAULT_CHUNK_K, CsrState
from repro.reorder import ReorderConfig, build_plan
from repro.sparse import CSRMatrix
from repro.util import workspace
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

    def test_chunk_smaller_than_k(self, matrix):
        # No executor reads chunk_k; a K=512 operand makes the numpy
        # executor walk its length groups in several row blocks.
        X = np.random.default_rng(12).normal(size=(matrix.n_cols, 512))
        state = CsrState(matrix)
        groups, _ = state._grouped()
        assert max(rows.size * L for L, rows, *_ in groups) * 512 * 8 > _BLOCK_BYTES
        session = KernelSession(matrix, chunk_k=5, backend="numpy")
        np.testing.assert_array_equal(session.run(X), spmm(matrix, X))

    def test_zero_width_operand(self, matrix):
        got = KernelSession(matrix).run(np.empty((matrix.n_cols, 0)))
        assert got.shape == (matrix.n_rows, 0)

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
        # The numpy executor leases its block buffers on every call; the
        # default cc loop leases nothing for a float64 operand.
        session = KernelSession(matrix, backend="numpy")
        session.run(X)
        misses_after_warmup = session.stats()["misses"]
        for _ in range(4):
            session.run(X)
        stats = session.stats()
        assert stats["misses"] == misses_after_warmup
        assert stats["hits"] > 0

    def test_shared_pool(self, matrix, X):
        pool = WorkspacePool()
        session = KernelSession(matrix, pool=pool, backend="numpy")
        session.run(X)
        assert pool.stats()["misses"] > 0

    def test_close_clears_pool(self, matrix, X):
        session = KernelSession(matrix)
        session.run(X)
        session.close()
        assert session.stats()["held_bytes"] == 0
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

    def test_k512_steady_state_takes_no_pool_misses(self, monkeypatch):
        # A dense-tile-heavy plan at K=512: one pass needs the executor's
        # block buffer and the scatter buffer, which fit this pool, so
        # every lease after the first run is a hit.
        monkeypatch.setattr(workspace, "MAX_BYTES", 16 << 20)
        matrix = hidden_clusters(16, 16, 2048, 24, noise=0.05, seed=5)
        plan = build_plan(matrix, ReorderConfig(panel_height=16))
        assert plan.tiled.dense_ratio > 0.5
        X = np.random.default_rng(2).normal(size=(matrix.n_cols, 512))
        session = plan.session(pool=WorkspacePool())
        session.run(X)
        warm = session.stats()
        for _ in range(3):
            got = session.run(X)
        stats = session.stats()
        assert stats["misses"] == warm["misses"]
        assert stats["evictions"] == warm["evictions"]
        np.testing.assert_array_equal(got, spmm(matrix, X))


def assert_same_bits(got, want):
    """Equal bit patterns: unlike ``==``, this tells ``-0.0`` from ``0.0``."""
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


#: Row lengths reaching every branch of numpy's pairwise summation: the
#: sequential branch (< 8 terms after the first), the eight-accumulator
#: branch with and without a tail, and the recursion above 128 terms.
ORDER_LENGTHS = (0, 1, 2, 3, 8, 9, 10, 16, 17, 128, 129, 130, 137, 257, 300)
#: Operand rows that are strictly positive: a row whose values are all
#: ``-0.0`` and whose columns fall here has only ``-0.0`` products, and
#: sums to ``-0.0`` only when the reduction starts from the first term.
POSITIVE_ROWS = 320
#: Rows of the one large group: at K >= 64 it spans several row blocks.
BIG_GROUP = (10, 160)


def order_matrix(seed=0, n_cols=1024):
    """Rows of every :data:`ORDER_LENGTHS` length in shuffled order, with
    values from 1e-8 to 1e8 in magnitude, explicit signed zeros, and one
    all-``-0.0`` row per length."""
    rng = np.random.default_rng(seed)
    lengths = [L for L in ORDER_LENGTHS for _ in range(3)]
    lengths += [BIG_GROUP[0]] * BIG_GROUP[1]
    signed_zero_rows = [L for L in ORDER_LENGTHS if L]
    lengths += signed_zero_rows
    n_regular = len(lengths) - len(signed_zero_rows)
    cols, vals = [], []
    for i, L in enumerate(lengths):
        if i < n_regular:
            c = rng.choice(n_cols, size=L, replace=False)
            v = rng.normal(size=L) * 10.0 ** rng.uniform(-8, 8, size=L)
            zeros = rng.random(L) < 0.15
            v[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
        else:
            c = rng.choice(POSITIVE_ROWS, size=L, replace=False)
            v = np.full(L, -0.0)
        cols.append(np.sort(c))
        vals.append(v[np.argsort(c)])
    perm = rng.permutation(len(lengths))
    lengths = np.asarray(lengths)[perm]
    rowptr = np.concatenate(([0], np.cumsum(lengths)))
    return CSRMatrix.from_arrays(
        (len(lengths), n_cols),
        rowptr,
        np.concatenate([cols[i] for i in perm]),
        np.concatenate([vals[i] for i in perm]),
    )


def order_operand(n_cols, k, dtype, seed=1):
    """Magnitudes from 1e-8 to 1e8, signed zeros, positive leading rows."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_cols, k)) * 10.0 ** rng.uniform(-8, 8, size=(n_cols, k))
    zeros = rng.random(X.shape) < 0.1
    X[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    X[:POSITIVE_ROWS] = np.abs(X[:POSITIVE_ROWS]) + 1.0
    return X.astype(dtype)


class TestSummationOrder:
    """The executor adds in ``np.add.reduceat``'s order, bit for bit."""

    @pytest.fixture(scope="class")
    def matrix(self):
        return order_matrix()

    def test_fixture_covers_every_branch(self, matrix):
        lengths = matrix.row_lengths()
        assert set(ORDER_LENGTHS) <= set(lengths.tolist())
        L, rows = BIG_GROUP
        assert (lengths == L).sum() >= rows
        assert rows * L * 64 * 8 > _BLOCK_BYTES  # several row blocks at K=64

    def test_fixture_tells_orders_apart(self, matrix):
        # A left-to-right sum of the same products rounds differently,
        # so the bit-pattern checks below would catch a wrong order.
        X = order_operand(matrix.n_cols, 64, np.float64)
        products = matrix.values[:, None] * X[matrix.colidx]
        left_to_right = np.zeros((matrix.n_rows, 64))
        for i, (lo, hi) in enumerate(zip(matrix.rowptr[:-1], matrix.rowptr[1:])):
            if hi > lo:
                left_to_right[i] = np.add.accumulate(products[lo:hi])[-1]
        assert not np.array_equal(left_to_right, spmm(matrix, X))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k", [1, 3, 64, 513])
    def test_state_and_session_match_spmm_bits(self, matrix, k, dtype):
        X = order_operand(matrix.n_cols, k, dtype)
        want = spmm(matrix, X)
        out = np.empty_like(want)
        CsrState(matrix).multiply(X, out, DirectWorkspace(), DEFAULT_CHUNK_K)
        assert_same_bits(out, want)
        assert_same_bits(KernelSession(matrix).run(X), want)
        # The all -0.0 rows sum to -0.0, which the bit patterns compare.
        assert ((want == 0) & np.signbit(want)).any()

    @pytest.mark.parametrize("k", [3, 64])
    def test_power_law_rows(self, k):
        m = power_law_rows(4096, 4096, 16, seed=0)
        X = np.random.default_rng(k).normal(size=(m.n_cols, k))
        assert_same_bits(KernelSession(m).run(X), spmm(m, X))

    def test_float32_plan_session(self, matrix):
        plan = build_plan(matrix, REORDERED)
        assert plan.stats.round1_applied
        X32 = order_operand(matrix.n_cols, 64, np.float32)
        got = plan.session().run(X32)
        assert_same_bits(got, spmm(matrix, X32))
        assert_same_bits(got, plan.spmm(X32))


class TestValidation:
    @pytest.mark.parametrize(
        "rowptr, colidx",
        [([0, 1, 2], [0, 7]), ([0, 2, 1], [0, 1])],
        ids=["column-out-of-range", "decreasing-rowptr"],
    )
    def test_pinning_checks_the_index_arrays(self, rowptr, colidx):
        # spmm raises FormatError on these; a pinned state must too, not
        # clip the index or let the compiled loop read out of bounds.
        bad = CSRMatrix((2, 3), np.array(rowptr), np.array(colidx), np.ones(2))
        with pytest.raises(FormatError):
            spmm(bad, np.ones((3, 4)))
        with pytest.raises(FormatError):
            KernelSession(bad)
        with pytest.raises(FormatError):
            CsrState(bad)

    @pytest.mark.parametrize("row_order", [[0, 0, 1], [0, 1, 3], [0, 1]])
    def test_pinning_checks_the_row_order(self, row_order):
        csr = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(ValidationError):
            CsrState(csr, row_order)

    def test_bad_target_type(self):
        with pytest.raises(TypeError):
            KernelSession(np.zeros((3, 3)))

    def test_bad_chunk_k(self, matrix):
        with pytest.raises(ValueError):
            KernelSession(matrix, chunk_k=0)

    @pytest.mark.parametrize("chunk_k", [True, 1.5, 0])
    def test_chunk_k_refuses_booleans_fractions_and_zero(self, matrix, chunk_k):
        # Not stored as int(chunk_k): True would become 1, 1.5 would be cut.
        with pytest.raises(ValidationError, match="chunk_k"):
            KernelSession(matrix, chunk_k=chunk_k)

    def test_state_rejects_operand_of_wrong_height(self, matrix):
        X = np.ones((matrix.n_cols - 1, 4))
        with pytest.raises(ShapeError):
            CsrState(matrix).multiply(X, np.empty((matrix.n_rows, 4)), DirectWorkspace(), 64)

    def test_run_rejects_1d_operand(self, matrix):
        with pytest.raises(ShapeError):
            KernelSession(matrix).run(np.ones(matrix.n_cols))
