"""Pinned per-matrix CSR state for the transposed K-chunked multiply.

:class:`CsrState` hoists everything about a CSR matrix that the
steady-state SpMM recomputes per call in the one-shot kernels — the
non-empty row set, the segment starts, contiguous copies of the index and
value arrays.  It is shared by :class:`repro.kernels.KernelSession` and
by the compiled kernel backends (:mod:`repro.kernels.backends`), whose
generated kernels take a ``CsrState`` so one artifact serves both the
one-shot and the session path.

The reference algorithm lives in :meth:`CsrState.multiply`: stage the
dense operand transposed (:func:`stage_transposed`), then gather / scale /
segment-sum one K-chunk at a time along the contiguous axis.  Despite the
different loop structure the result is **bitwise identical** to
:func:`repro.kernels.spmm` — per output element the same products are
accumulated left-to-right in the same order, and float32 operands are
widened by an exact cast before the same float64 multiply.  The
compiled ``numba`` backend is held to within 1 ULP of it by the
cross-backend differential tests.

Staging is cache-blocked: ``X.T`` is written one block of operand rows at
a time, the block height derived from ``K`` so each block's source rows
fit a fixed byte budget that stays cache resident.  A one-shot
``np.copyto(XT, X.T)`` instead walks ``X`` with a stride of a whole row
per element and misses cache on nearly every read once ``X`` outgrows the
cache; the blocked copy writes the same values (the copy is exact), so
the multiply's bits are unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.util.workspace import Workspace

__all__ = ["DEFAULT_CHUNK_K", "CsrState", "stage_transposed"]

#: Default K-chunk width.  64 float64 columns x a few tens of thousands of
#: non-zeros keeps the active gather chunk inside the last-level cache on
#: typical hardware while amortising the per-chunk Python overhead.
DEFAULT_CHUNK_K = 64

#: Source bytes per staging block: small enough that a block of operand
#: rows stays in a per-core L2 while its columns are scattered into
#: ``X.T``.
_STAGE_BLOCK_BYTES = 256 * 1024


def stage_transposed(X: np.ndarray, ws: Workspace) -> np.ndarray:
    """``X.T`` as leased float64 scratch, copied one cache block at a time.

    Bitwise identical to ``np.copyto(XT, X.T)`` (float32 operands are
    widened by the same exact cast); only the traversal order differs.
    """
    n, K = X.shape
    XT = ws.scratch((K, n))
    rows = max(1, _STAGE_BLOCK_BYTES // max(1, K * X.itemsize))
    for r0 in range(0, n, rows):
        np.copyto(XT[:, r0 : r0 + rows], X[r0 : r0 + rows].T)
    return XT


class CsrState:
    """Pinned per-matrix state for the transposed K-chunked CSR multiply."""

    __slots__ = (
        "csr",
        "colidx",
        "values",
        "values_row",
        "starts",
        "nonempty",
        "empty",
        "any_empty",
    )

    def __init__(self, csr: CSRMatrix) -> None:
        self.csr = csr
        self.colidx = np.ascontiguousarray(csr.colidx)
        #: 1-D contiguous values (what row-wise compiled kernels index).
        self.values = np.ascontiguousarray(csr.values)
        #: The same values broadcast-shaped for the chunked multiply.
        self.values_row = self.values[None, :]
        lengths = csr.row_lengths()
        self.empty = lengths == 0
        self.any_empty = bool(self.empty.any())
        self.nonempty = np.flatnonzero(lengths > 0)
        self.starts = np.ascontiguousarray(csr.rowptr[:-1][self.nonempty])

    def multiply(self, X: np.ndarray, out: np.ndarray, ws: Workspace, chunk_k: int) -> None:
        """``out = csr @ X``, bitwise identical to :func:`repro.kernels.spmm`."""
        csr = self.csr
        K = X.shape[1]
        if csr.nnz == 0 or K == 0:
            out[:] = 0.0
            return
        # Stage the operand transposed (an exact-cast copy), after which
        # every access pattern below streams along contiguous memory.
        XT = stage_transposed(X, ws)
        chunk = max(1, min(chunk_k, K))
        gathered = ws.scratch((chunk, csr.nnz))
        sums = ws.scratch((chunk, self.nonempty.size))
        for k0 in range(0, K, chunk):
            k1 = min(k0 + chunk, K)
            g = gathered[: k1 - k0]
            s = sums[: k1 - k0]
            np.take(XT[k0:k1], self.colidx, axis=1, out=g)
            np.multiply(self.values_row, g, out=g)
            np.add.reduceat(g, self.starts, axis=1, out=s)
            out[self.nonempty, k0:k1] = s.T
        if self.any_empty:
            out[self.empty] = 0.0
