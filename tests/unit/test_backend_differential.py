"""Cross-backend differential test matrix.

Every (kernel x backend x dtype x degenerate shape) cell is held bitwise
equal to the one-shot numpy reference: the ``numpy`` backend's sessions
run ``CsrState.multiply``, the ``cc`` backend's its compiled loop, and
both sum in ``np.add.reduceat``'s order.  SDDMM has only its numpy
reference, so its rows hold each backend's SpMM to it: an SDDMM result
is a sparse operand like any other.  The matrix is the lockdown for the
backend subsystem: any backend that changes a bit on any cell fails
here, not in a downstream experiment.
"""

import numpy as np
import pytest

from conftest import random_csr
from repro.kernels import (
    KernelSession,
    sddmm,
    spmm,
)
from repro.sparse import COOMatrix, CSRMatrix
from repro.util.workspace import WorkspacePool

#: (n_rows, n_cols) corners: empty matrix, single cell, single row,
#: single column, zero-dim edges.
DEGENERATE_SHAPES = [(0, 5), (5, 0), (0, 0), (1, 1), (1, 8), (8, 1)]

#: Operand dtypes the backends must be polymorphic over.
DTYPES = [np.float32, np.float64]


def _shaped_csr(rng, m, n, density=0.5):
    """A random CSR at a possibly degenerate shape (nnz may be 0)."""
    if m == 0 or n == 0:
        return CSRMatrix.empty((m, n))
    nnz = max(1, int(m * n * density))
    rows = rng.integers(0, m, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = rng.normal(size=nnz)
    return COOMatrix.from_arrays((m, n), rows, cols, vals).to_csr()


class TestSpmmMatrix:
    @pytest.mark.parametrize("shape", DEGENERATE_SHAPES)
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    def test_degenerate_shapes(self, rng, backend_name, shape, dtype):
        m, n = shape
        csr = _shaped_csr(rng, m, n)
        X = rng.normal(size=(n, 4)).astype(dtype)
        reference = spmm(csr, X)
        np.testing.assert_array_equal(spmm(csr, X, backend=backend_name), reference)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_degenerate_operand_widths(self, rng, backend_name, k):
        csr = random_csr(rng, 12, 10, density=0.3)
        X = rng.normal(size=(10, k))
        reference = spmm(csr, X)
        np.testing.assert_array_equal(spmm(csr, X, backend=backend_name), reference)

    def test_all_dense_panel(self, rng, backend_name):
        # Every row full: no empty row to zero.
        dense = rng.normal(size=(8, 6))
        csr = CSRMatrix.from_dense(dense)
        X = rng.normal(size=(6, 5))
        reference = spmm(csr, X)
        np.testing.assert_array_equal(spmm(csr, X, backend=backend_name), reference)

    def test_empty_rows_are_zeroed(self, rng, backend_name):
        # Rows with no non-zeros must come back exactly 0.0, even when
        # the caller's out buffer arrives full of garbage.
        dense = np.zeros((6, 5))
        dense[1] = rng.normal(size=5)
        dense[4] = rng.normal(size=5)
        csr = CSRMatrix.from_dense(dense)
        X = rng.normal(size=(5, 3))
        out = np.full((6, 3), np.nan, dtype=np.float64)
        got = spmm(csr, X, out=out, backend=backend_name)
        np.testing.assert_array_equal(got, spmm(csr, X))
        assert np.all(got[[0, 2, 3, 5]] == 0.0)


class TestSddmmMatrix:
    @pytest.mark.parametrize("shape", DEGENERATE_SHAPES)
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    def test_degenerate_shapes(self, rng, backend_name, shape, dtype):
        # Sampled scores, then an aggregation over them (an attention or
        # GNN layer): the SDDMM result feeds each backend's SpMM.
        m, n = shape
        csr = _shaped_csr(rng, m, n)
        X = rng.normal(size=(n, 4)).astype(dtype)
        Y = rng.normal(size=(m, 4)).astype(dtype)
        scores = sddmm(csr, X, Y)
        assert scores.same_pattern(csr)
        V = rng.normal(size=(n, 3)).astype(dtype)
        reference = spmm(scores, V)
        np.testing.assert_array_equal(spmm(scores, V, backend=backend_name), reference)


class TestSessionMatrix:
    @pytest.mark.parametrize("shape", DEGENERATE_SHAPES)
    def test_session_degenerate_shapes(self, rng, backend_name, shape):
        m, n = shape
        csr = _shaped_csr(rng, m, n)
        X = rng.normal(size=(n, 4))
        reference = spmm(csr, X)
        session = KernelSession(csr, backend=backend_name)
        np.testing.assert_array_equal(session.run(X), reference)

    def test_pooled_session_is_bitwise_stable_per_backend(
        self, rng, backend_name
    ):
        # Within one backend, the pooled and direct paths must agree
        # bitwise — pooling is an allocation strategy, never a numeric one.
        csr = random_csr(rng, 30, 25, density=0.2)
        X = rng.normal(size=(25, 16))
        pooled = KernelSession(csr, backend=backend_name, pool=WorkspacePool())
        direct = KernelSession(csr, backend=backend_name, pool=None)
        np.testing.assert_array_equal(pooled.run(X), direct.run(X))
        # And repeated runs are bitwise-idempotent.
        np.testing.assert_array_equal(pooled.run(X), pooled.run(X))
