"""SpMM over an ASpT :class:`~repro.aspt.TiledMatrix`.

The dense tiles are computed the way the GPU kernel computes them: per
panel, the dense columns' rows of ``X`` are first gathered into a compact
*panel buffer* (the functional analogue of staging into shared memory) and
the panel's tile non-zeros index that buffer through remapped local column
ids.  The sparse remainder goes through the row-wise kernel.  Because the
tiler partitions the non-zeros exactly, the sum of the two phases equals
plain SpMM on the original matrix — asserted in the test suite against the
Alg. 1 oracle.

Like the row-wise kernels, ``spmm_tiled`` accepts ``workspace=`` so the
panel gather buffers and products scratch are leased from a
:class:`~repro.util.workspace.WorkspacePool` instead of allocated per
panel.  This is the paper's reference kernel, not the CPU executor:
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
from repro.util.workspace import Workspace, as_workspace

__all__ = ["spmm_tiled", "panel_plan"]


def panel_plan(
    dense_part: CSRMatrix,
    panel_dense_cols: list[np.ndarray],
    panel_height: int,
) -> list[tuple]:
    """Precompute the per-panel gather metadata of the dense phase.

    For every non-trivial panel: ``(cols, lo, vals, local, starts,
    nonempty)`` where ``local`` remaps the panel's column ids into the
    gathered buffer and ``starts``/``nonempty`` drive the segment sum.
    """
    rowptr = dense_part.rowptr
    plan: list[tuple] = []
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
        plan.append((cols, int(lo), vals, local, starts, nonempty))
    return plan


def _panel_dense_spmm(
    dense_part: CSRMatrix,
    X: np.ndarray,
    panel_dense_cols: list[np.ndarray],
    panel_height: int,
    out: np.ndarray,
    *,
    workspace: Workspace | None = None,
) -> None:
    """Accumulate the dense-tile contribution into ``out``.

    Mirrors the shared-memory kernel: gather, remap, multiply per panel.
    With ``workspace`` the buffers are leased; both paths produce
    bitwise-identical accumulations.
    """
    ws = workspace
    K = X.shape[1]
    for cols, lo, vals, local, starts, nonempty in panel_plan(
        dense_part, panel_dense_cols, panel_height
    ):
        if ws is None:
            buffer = X[cols]  # "shared memory" stage: one load per dense column
            products = vals[:, None] * buffer[local]
            out[lo + nonempty] += np.add.reduceat(products, starts, axis=0)
            continue
        buffer = ws.scratch((cols.size, K), dtype=X.dtype)
        np.take(X, cols, axis=0, out=buffer)
        gathered = ws.scratch((local.size, K), dtype=X.dtype)
        np.take(buffer, local, axis=0, out=gathered)
        products = ws.scratch((local.size, K))
        np.multiply(vals[:, None], gathered, out=products)
        sums = ws.scratch((nonempty.size, K))
        np.add.reduceat(products, starts, axis=0, out=sums)
        out[lo + nonempty] += sums


@checked(invokes("validate_structure", "tiled"))
def spmm_tiled(
    tiled: TiledMatrix,
    X: np.ndarray,
    out: np.ndarray | None = None,
    *,
    workspace=None,
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
    workspace:
        Optional pool/workspace for the panel buffers, products scratch
        and the remainder kernel's scratch (bitwise-identical results).

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
    ws, owned = as_workspace(workspace)
    try:
        _panel_dense_spmm(
            tiled.dense_part,
            X,
            tiled.panel_dense_cols,
            tiled.spec.panel_height,
            Y,
            workspace=ws,
        )
        if tiled.sparse_part.nnz:
            if ws is None:
                Y += spmm(tiled.sparse_part, X)
            else:
                remainder = ws.scratch((tiled.original.n_rows, K))
                spmm(tiled.sparse_part, X, out=remainder, workspace=ws)
                np.add(Y, remainder, out=Y)
    finally:
        if owned:
            ws.release()
    return Y
