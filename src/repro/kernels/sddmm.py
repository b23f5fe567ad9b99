"""SDDMM: sampled dense–dense matrix multiplication (paper Alg. 2).

For each stored entry ``(i, c)`` of the sparse matrix ``S``,

``O.value[j] = (sum_k Y[i, k] * X[c, k]) * S.value[j]``

i.e. the output has ``S``'s sparsity pattern, each entry being the inner
product of a row of ``Y`` and a row of ``X`` scaled by the sampling value.
(With ``X`` stored row-major this is the ``Y @ X.T`` product sampled at
``S``'s non-zeros — the formulation used in ALS/collaborative filtering.)
"""

from __future__ import annotations

import numpy as np

from repro.contracts import checked, validates
from repro.sparse.csr import CSRMatrix
from repro.util.validation import check_dense
from repro.util.workspace import as_workspace

__all__ = ["sddmm", "sddmm_rowwise_reference"]


@checked(validates("csr"))
def sddmm_rowwise_reference(csr: CSRMatrix, X: np.ndarray, Y: np.ndarray) -> CSRMatrix:
    """Paper Alg. 2, literal loops.  The oracle for :func:`sddmm`."""
    X = check_dense("X", X, rows=csr.n_cols)
    Y = check_dense("Y", Y, rows=csr.n_rows, cols=X.shape[1])
    K = X.shape[1]
    out = np.zeros(csr.nnz, dtype=np.float64)  # reprolint: disable=RD105 -- reference oracle: mirrors the paper's pseudocode verbatim, allocation behaviour is part of what it checks
    for i in range(csr.n_rows):
        for j in range(csr.rowptr[i], csr.rowptr[i + 1]):
            acc = 0.0
            c = csr.colidx[j]
            for k in range(K):
                acc += Y[i, k] * X[c, k]
            out[j] = acc * csr.values[j]
    return csr.with_values(out)


@checked(validates("csr"))
def sddmm(
    csr: CSRMatrix,
    X: np.ndarray,
    Y: np.ndarray,
    *,
    workspace=None,
    backend: str | None = None,
) -> CSRMatrix:
    """Vectorised SDDMM.

    Parameters
    ----------
    csr:
        Sampling matrix ``S`` of shape ``(M, N)``.
    X:
        Dense operand of shape ``(N, K)`` (indexed by ``S``'s columns).
        Floating dtypes are preserved (no up-cast copy).
    Y:
        Dense operand of shape ``(M, K)`` (indexed by ``S``'s rows).
    workspace:
        Optional :class:`~repro.util.workspace.WorkspacePool` or
        :class:`~repro.util.workspace.Workspace`; the two ``nnz * K``
        gather buffers are leased from it instead of allocated.  The dot
        products themselves are computed by the same ``einsum`` in the
        same dtype, so results are bitwise identical either way.
    backend:
        Optional registered backend name (:mod:`repro.kernels.backends`);
        this reference path runs for every name, because only SpMM is
        compiled.

    Returns
    -------
    CSRMatrix
        Same pattern as ``csr`` with values
        ``(Y[i] . X[c]) * csr.value`` per stored entry.
    """
    if backend is not None:
        from repro.kernels.backends import get_backend

        get_backend(backend)  # a typo fails loudly; no backend compiles SDDMM
    X = check_dense("X", X, rows=csr.n_cols, dtype=None)
    Y = check_dense("Y", Y, rows=csr.n_rows, cols=X.shape[1], dtype=None)
    if csr.nnz == 0:
        return csr.copy()
    rows = csr.row_ids()
    ws, owned = as_workspace(workspace)
    try:
        if ws is None:
            dots = np.einsum("pk,pk->p", Y[rows], X[csr.colidx])
        else:
            K = X.shape[1]
            y_gathered = ws.scratch((csr.nnz, K), dtype=Y.dtype)
            np.take(Y, rows, axis=0, out=y_gathered)
            x_gathered = ws.scratch((csr.nnz, K), dtype=X.dtype)
            np.take(X, csr.colidx, axis=0, out=x_gathered)
            # No out= here: einsum's accumulation dtype must stay the
            # operands' common dtype for bitwise identity, and the (nnz,)
            # result escapes into the returned matrix anyway.
            dots = np.einsum("pk,pk->p", y_gathered, x_gathered)
    finally:
        if owned:
            ws.release()
    return csr.with_values(dots * csr.values)
