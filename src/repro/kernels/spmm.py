"""SpMM: multiply a sparse matrix by a dense matrix (paper Alg. 1).

``Y[i, k] = sum_j S.value[j] * X[S.colidx[j], k]`` over the non-zeros ``j``
of row ``i``.

Two implementations with one contract:

* :func:`spmm_rowwise_reference` — the paper's Alg. 1 verbatim, Python
  loops; the oracle for everything else (use only on small matrices).
* :func:`spmm` — vectorised: one gather of ``X`` rows, one broadcast
  multiply, one ``reduceat`` segment sum.  Peak scratch memory is
  ``nnz * K`` floats.  It is the independent reference that
  :meth:`repro.kernels.state.CsrState.multiply` — the length-grouped,
  row-blocked executor behind every session — is held bitwise equal to.

:func:`spmm` accepts ``workspace=`` (a
:class:`~repro.util.workspace.WorkspacePool` or leased
:class:`~repro.util.workspace.Workspace`): scratch buffers are then leased
from the pool instead of allocated per call, and the gather / multiply /
segment-sum run through the ``out=`` forms of the same ufuncs in the same
operand order — results are bitwise identical to the allocating path
(asserted in the test suite).  For the repeated-multiply serving case,
whose row blocks also bound scratch to a fixed byte budget, see
:class:`repro.kernels.KernelSession`.
"""

from __future__ import annotations

import numpy as np

from repro.contracts import checked, validates
from repro.sparse.csr import CSRMatrix
from repro.util.validation import check_dense, check_out
from repro.util.workspace import Workspace, as_workspace

__all__ = ["spmm", "spmm_rowwise_reference"]


@checked(validates("csr"))
def spmm_rowwise_reference(csr: CSRMatrix, X: np.ndarray) -> np.ndarray:
    """Paper Alg. 1, literal loops.  O(nnz * K) scalar operations."""
    X = check_dense("X", X, rows=csr.n_cols)
    K = X.shape[1]
    Y = np.zeros((csr.n_rows, K), dtype=np.float64)
    for i in range(csr.n_rows):
        for j in range(csr.rowptr[i], csr.rowptr[i + 1]):
            c = csr.colidx[j]
            v = csr.values[j]
            for k in range(K):
                Y[i, k] += v * X[c, k]
    return Y


def _gathered_products(
    values: np.ndarray, X: np.ndarray, cols: np.ndarray, ws: Workspace | None
) -> np.ndarray:
    """``values[:, None] * X[cols]`` — through leased scratch when pooled.

    The pooled path gathers with ``np.take(out=)`` and multiplies with
    ``np.multiply(out=)`` using the same operand order as the allocating
    expression, so both paths round identically.
    """
    if ws is None:
        return values[:, None] * X[cols]
    K = X.shape[1]
    if X.dtype == np.float64:
        products = ws.scratch((cols.size, K))
        np.take(X, cols, axis=0, out=products)
    else:
        # dtype-preserving gather, then a widening multiply into float64
        # scratch (float32 -> float64 casts are exact, so the product is
        # bit-for-bit the promoted multiply of the allocating path).
        products = ws.scratch((cols.size, K), dtype=X.dtype)
        np.take(X, cols, axis=0, out=products)
        widened = ws.scratch((cols.size, K))
        np.multiply(values[:, None], products, out=widened)
        return widened
    np.multiply(values[:, None], products, out=products)
    return products


def _segment_rows(
    products: np.ndarray,
    starts: np.ndarray,
    nonempty: np.ndarray,
    out_rows: np.ndarray,
    ws: Workspace | None,
) -> None:
    """``out_rows[nonempty] = reduceat(products, starts)`` without allocating."""
    if ws is None:
        out_rows[nonempty] = np.add.reduceat(products, starts, axis=0)
        return
    sums = ws.scratch((nonempty.size, products.shape[1]))
    np.add.reduceat(products, starts, axis=0, out=sums)
    out_rows[nonempty] = sums


@checked(validates("csr"))
def spmm(
    csr: CSRMatrix,
    X: np.ndarray,
    out: np.ndarray | None = None,
    *,
    workspace=None,
    backend: str | None = None,
) -> np.ndarray:
    """Vectorised SpMM.

    Parameters
    ----------
    csr:
        Sparse operand, shape ``(M, N)``.
    X:
        Dense operand, shape ``(N, K)``.  A ``float32`` operand is used
        as-is (dtype-preserving validation) — no up-cast copy; the
        accumulation still runs in ``float64`` via the values array.
    out:
        Optional preallocated ``(M, K)`` output (overwritten, not
        accumulated).  Must be writable in place: a float64 C-contiguous
        ndarray of exactly that shape
        (:func:`~repro.util.validation.check_out`).
    workspace:
        Optional :class:`~repro.util.workspace.WorkspacePool` or
        :class:`~repro.util.workspace.Workspace`; the ``nnz * K``
        products scratch is leased from it instead of allocated.
    backend:
        Optional backend name (see :mod:`repro.kernels.backends`).
        ``None``/``"numpy"`` run this reference path — one-shot ``spmm``
        stays the independent reference every backend is held to; other
        names dispatch to the backend's compiled SpMM (bit-equal to this
        path), degrading back here when the backend is unavailable.

    Returns
    -------
    numpy.ndarray
        ``Y`` of shape ``(M, K)``.
    """
    if backend is not None and backend != "numpy":
        from repro.kernels.backends import resolve_backend

        resolved, _ = resolve_backend(backend)
        if resolved.name != "numpy":
            return resolved.spmm(csr, X, out, workspace=workspace)
    X = check_dense("X", X, rows=csr.n_cols, dtype=None)
    K = X.shape[1]
    if out is None:
        out = np.zeros((csr.n_rows, K), dtype=np.float64)  # reprolint: disable=RD501 -- out= buffers are float64 by contract (check_out rejects anything else), so both branches agree
    else:
        out = check_out("out", out, rows=csr.n_rows, cols=K)
        out[:] = 0.0
    if csr.nnz == 0:
        return out
    ws, owned = as_workspace(workspace)
    try:
        # Gather + scale: products[p] = value[p] * X[col[p]], then
        # segment-sum into rows (reduceat needs non-empty segments).
        products = _gathered_products(csr.values, X, csr.colidx, ws)
        lengths = csr.row_lengths()
        nonempty = np.flatnonzero(lengths > 0)
        starts = csr.rowptr[:-1][nonempty]
        _segment_rows(products, starts, nonempty, out, ws)
    finally:
        if owned:
            ws.release()
    return out
