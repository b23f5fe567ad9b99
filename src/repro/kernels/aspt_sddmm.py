"""SDDMM over an ASpT :class:`~repro.aspt.TiledMatrix`.

Same two-phase structure as :mod:`repro.kernels.aspt_spmm`: the dense-tile
entries read their ``X`` rows through a per-panel gathered buffer (shared
memory analogue), the remainder goes through the row-wise kernel, and the
two partial value arrays are scattered back into the original non-zero
positions so the result has exactly the original pattern.
"""

from __future__ import annotations

import numpy as np

from repro.aspt.tiles import TiledMatrix
from repro.contracts import checked, invokes
from repro.kernels.sddmm import sddmm
from repro.sparse.csr import CSRMatrix
from repro.util.validation import check_dense

__all__ = ["sddmm_tiled"]


def _nnz_positions_in_original(original: CSRMatrix, part: CSRMatrix) -> np.ndarray:
    """For each stored entry of ``part``, its index in ``original``'s arrays.

    Both matrices are canonical CSR over the same shape and ``part``'s
    entries are a subset of ``original``'s, so a per-row ``searchsorted``
    on the column arrays locates every entry; vectorised via global search
    on (row, col) composite keys.
    """
    n = original.n_cols
    orig_keys = original.row_ids() * np.int64(n) + original.colidx
    part_keys = part.row_ids() * np.int64(n) + part.colidx
    pos = np.searchsorted(orig_keys, part_keys)
    return pos.astype(np.int64)


@checked(invokes("validate_structure", "tiled"))
def sddmm_tiled(
    tiled: TiledMatrix, X: np.ndarray, Y: np.ndarray
) -> CSRMatrix:
    """Two-phase ASpT SDDMM.

    Parameters
    ----------
    tiled:
        Output of :func:`repro.aspt.tile_matrix`.
    X:
        Dense operand of shape ``(n_cols, K)``.  Floating dtypes are
        preserved (no up-cast copy).
    Y:
        Dense operand of shape ``(n_rows, K)``.

    Returns
    -------
    CSRMatrix
        Same pattern as ``tiled.original`` with SDDMM values.
    """
    original = tiled.original
    X = check_dense("X", X, rows=original.n_cols, dtype=None)
    Y = check_dense("Y", Y, rows=original.n_rows, cols=X.shape[1], dtype=None)
    out_values = np.zeros(original.nnz, dtype=np.float64)  # reprolint: disable=RD105 -- the returned matrix's values, not scratch: they escape into the result, so no pool may lease them

    # Dense tiles: per-panel staged buffer.
    dense = tiled.dense_part
    if dense.nnz:
        rowptr = dense.rowptr
        ph = tiled.spec.panel_height
        row_ids = dense.row_ids()
        positions = _nnz_positions_in_original(original, dense)
        for p, cols in enumerate(tiled.panel_dense_cols):
            lo = p * ph
            hi = min(lo + ph, dense.n_rows)
            p0, p1 = int(rowptr[lo]), int(rowptr[hi])
            if cols.size and p0 != p1:
                local = np.searchsorted(cols, dense.colidx[p0:p1])
                rows = row_ids[p0:p1]
                buffer = X[cols]
                dots = np.einsum("pk,pk->p", Y[rows], buffer[local])
                out_values[positions[p0:p1]] = dots * dense.values[p0:p1]

    # Sparse remainder: row-wise kernel.
    sparse = tiled.sparse_part
    if sparse.nnz:
        sparse_result = sddmm(sparse, X, Y)
        out_values[_nnz_positions_in_original(original, sparse)] = (
            sparse_result.values
        )
    return original.with_values(out_values)
