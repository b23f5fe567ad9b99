"""SpMV: sparse matrix–vector multiplication.

SpMV is not one of the paper's target kernels, but it anchors the paper's
central *argument*: vertex reordering improves SpMV — where the dense
operand is a vector and consecutive accesses to it enjoy spatial locality
within cache lines — yet does not help SpMM, where each "element" is a
whole K-wide row and only temporal locality matters.  This module provides
the functional kernel; :meth:`repro.gpu.executor.GPUExecutor.spmv_cost`
provides the matching performance model, and
``benchmarks/bench_spmv_vs_spmm_reordering.py`` reproduces the argument.
"""

from __future__ import annotations

import numpy as np

from repro.contracts import checked, validates
from repro.sparse.csr import CSRMatrix
from repro.util.arrayops import segment_sum
from repro.util.workspace import as_workspace

__all__ = ["spmv", "spmv_rowwise_reference"]


@checked(validates("csr"))
def spmv_rowwise_reference(csr: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """Scalar-loop SpMV (the K=1 specialisation of the paper's Alg. 1)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != csr.n_cols:
        raise ValueError(f"x must be 1-D of length {csr.n_cols}, got shape {x.shape}")
    y = np.zeros(csr.n_rows, dtype=np.float64)
    for i in range(csr.n_rows):
        acc = 0.0
        for j in range(csr.rowptr[i], csr.rowptr[i + 1]):
            acc += csr.values[j] * x[csr.colidx[j]]
        y[i] = acc
    return y


@checked(validates("csr"))
def spmv(
    csr: CSRMatrix, x: np.ndarray, *, workspace=None, backend: str | None = None
) -> np.ndarray:
    """Vectorised SpMV: gather, multiply, segment-sum.

    ``workspace`` optionally leases the ``nnz``-long products scratch from
    a :class:`~repro.util.workspace.WorkspacePool` /
    :class:`~repro.util.workspace.Workspace` instead of allocating it;
    the gather and multiply then run through ``out=`` forms with the same
    operand order, so the result is bitwise identical.  ``backend``
    accepts any registered backend name (:mod:`repro.kernels.backends`)
    and runs this reference path: only SpMM is compiled.
    """
    if backend is not None:
        from repro.kernels.backends import get_backend

        get_backend(backend)  # a typo fails loudly; no backend compiles SpMV
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != csr.n_cols:
        raise ValueError(f"x must be 1-D of length {csr.n_cols}, got shape {x.shape}")
    if csr.nnz == 0:
        return np.zeros(csr.n_rows, dtype=np.float64)
    ws, owned = as_workspace(workspace)
    try:
        if ws is None:
            products = csr.values * x[csr.colidx]
        else:
            products = ws.scratch(csr.nnz)
            np.take(x, csr.colidx, out=products)
            np.multiply(csr.values, products, out=products)
        return segment_sum(products, csr.rowptr)
    finally:
        if owned:
            ws.release()
