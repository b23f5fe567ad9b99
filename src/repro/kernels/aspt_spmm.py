"""SpMM over an ASpT :class:`~repro.aspt.TiledMatrix`.

The dense tiles are computed the way the GPU kernel computes them: per
panel, the dense columns' rows of ``X`` are first gathered into a compact
*panel buffer* (the functional analogue of staging into shared memory) and
the panel's tile non-zeros index that buffer through remapped local column
ids.  The sparse remainder goes through the row-wise kernel.  Because the
tiler partitions the non-zeros exactly, the sum of the two phases equals
plain SpMM on the original matrix — asserted in the test suite against the
Alg. 1 oracle.

This is the paper's reference kernel, not the CPU executor:
:class:`repro.kernels.KernelSession` and
:meth:`repro.reorder.ExecutionPlan.spmm` multiply the whole tiled or
reordered matrix in one row-wise pass, which is faster on CPU.
"""

from __future__ import annotations

import numpy as np

from repro.aspt.tiles import TiledMatrix
from repro.contracts import checked, invokes
from repro.kernels.spmm import spmm
from repro.sparse.csr import CSRMatrix
from repro.util.validation import check_dense, check_out

__all__ = ["spmm_tiled"]


def _panel_dense_spmm(
    dense_part: CSRMatrix,
    X: np.ndarray,
    panel_dense_cols: list[np.ndarray],
    panel_height: int,
    out: np.ndarray,
) -> None:
    """Accumulate the dense-tile contribution into ``out``.

    Mirrors the shared-memory kernel: gather, remap, multiply per panel.
    ``local`` remaps the panel's column ids into the gathered buffer and
    ``starts``/``nonempty`` drive the segment sum.
    """
    rowptr = dense_part.rowptr
    for p, cols in enumerate(panel_dense_cols):
        if cols.size == 0:
            continue
        lo = p * panel_height
        hi = min(lo + panel_height, dense_part.n_rows)
        p0, p1 = rowptr[lo], rowptr[hi]
        if p0 == p1:
            continue
        local = np.searchsorted(cols, dense_part.colidx[p0:p1])
        vals = dense_part.values[p0:p1]
        lengths = np.diff(rowptr[lo : hi + 1])
        nonempty = np.flatnonzero(lengths > 0)
        starts = (rowptr[lo:hi][nonempty] - p0).astype(np.int64)
        buffer = X[cols]  # "shared memory" stage: one load per dense column
        products = vals[:, None] * buffer[local]
        out[lo + nonempty] += np.add.reduceat(products, starts, axis=0)


@checked(invokes("validate_structure", "tiled"))
def spmm_tiled(
    tiled: TiledMatrix,
    X: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Two-phase ASpT SpMM: dense tiles through panel buffers, remainder
    row-wise.

    Parameters
    ----------
    tiled:
        Output of :func:`repro.aspt.tile_matrix`.
    X:
        Dense operand of shape ``(n_cols, K)``.  Floating dtypes are
        preserved (no up-cast copy of a large ``K``-wide operand).
    out:
        Optional preallocated ``(n_rows, K)`` float64 output
        (overwritten, not accumulated).  Must be writable in place
        (float64, C-contiguous) — see
        :func:`~repro.util.validation.check_out`.

    Returns
    -------
    numpy.ndarray
        ``Y = tiled.original @ X`` of shape ``(n_rows, K)``.
    """
    X = check_dense("X", X, rows=tiled.original.n_cols, dtype=None)
    K = X.shape[1]
    if out is None:
        Y = np.zeros((tiled.original.n_rows, K), dtype=np.float64)  # reprolint: disable=RD501 -- out= buffers are float64 by contract (check_out rejects anything else), so both branches agree
    else:
        Y = check_out("out", out, rows=tiled.original.n_rows, cols=K)
        Y[:] = 0.0
    _panel_dense_spmm(
        tiled.dense_part,
        X,
        tiled.panel_dense_cols,
        tiled.spec.panel_height,
        Y,
    )
    if tiled.sparse_part.nnz:
        Y += spmm(tiled.sparse_part, X)
    return Y
