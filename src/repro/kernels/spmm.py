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

One-shot :func:`spmm` allocates its scratch on every call.  For the
repeated-multiply serving case, whose row blocks lease a fixed byte budget
of scratch from the session's pool, see :class:`repro.kernels.KernelSession`.
"""

from __future__ import annotations

import numpy as np

from repro.contracts import checked, validates
from repro.kernels.state import CsrState
from repro.sparse.csr import CSRMatrix
from repro.util.validation import check_dense, check_out
from repro.util.workspace import DirectWorkspace

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


@checked(validates("csr"))
def spmm(
    csr: CSRMatrix,
    X: np.ndarray,
    out: np.ndarray | None = None,
    *,
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
    backend:
        Optional backend name (see :mod:`repro.kernels.backends`).
        ``None``/``"numpy"`` run this reference path — one-shot ``spmm``
        stays the independent reference every backend is held to;
        ``"cc"`` runs the compiled SpMM (bit-equal to this path),
        degrading back here when it cannot load.

    Returns
    -------
    numpy.ndarray
        ``Y`` of shape ``(M, K)``.
    """
    compiled = None
    if backend is not None and backend != "numpy":
        from repro.kernels.backends import load_backend

        compiled = load_backend(backend).spmm
    X = check_dense("X", X, rows=csr.n_cols, dtype=None)
    K = X.shape[1]
    if out is None:
        out = np.zeros((csr.n_rows, K), dtype=np.float64)  # reprolint: disable=RD501 -- out= buffers are float64 by contract (check_out rejects anything else), so both branches agree
    else:
        out = check_out("out", out, rows=csr.n_rows, cols=K)
        out[:] = 0.0
    if csr.nnz == 0:
        return out
    if compiled is not None:
        compiled(CsrState(csr), X, out, DirectWorkspace())
    else:
        # Gather + scale: products[p] = value[p] * X[col[p]], then
        # segment-sum into rows (reduceat needs non-empty segments).
        products = csr.values[:, None] * X[csr.colidx]
        lengths = csr.row_lengths()
        nonempty = np.flatnonzero(lengths > 0)
        starts = csr.rowptr[:-1][nonempty]
        out[nonempty] = np.add.reduceat(products, starts, axis=0)
    return out
