"""Conversions between sparse formats.

All conversions are fully vectorised: the COO->CSR path is a stable lexsort
followed by a duplicate-collapsing ``reduceat``, and CSR<->CSC is a
transpose-style counting sort.  Everything returns *canonical* containers
(rows/columns sorted, duplicates summed).
"""

from __future__ import annotations

import numpy as np

from repro.contracts import checked, validates
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix
from repro.util.arrayops import offsets_to_row_ids

__all__ = [
    "coo_to_csr",
    "csr_to_coo",
    "csr_to_csc",
    "csc_to_csr",
]


@checked(validates("coo"))
def coo_to_csr(coo: COOMatrix) -> CSRMatrix:
    """Convert COO to canonical CSR, summing duplicate coordinates."""
    m, n = coo.shape
    if coo.nnz == 0:
        return CSRMatrix.empty((m, n))
    order = np.lexsort((coo.cols, coo.rows))
    r = coo.rows[order]
    c = coo.cols[order]
    v = coo.values[order]
    keep = np.empty(c.size, dtype=bool)
    keep[0] = True
    keep[1:] = (c[1:] != c[:-1]) | (r[1:] != r[:-1])
    starts = np.flatnonzero(keep)
    v = np.add.reduceat(v, starts)
    c = c[starts]
    r = r[starts]
    counts = np.bincount(r, minlength=m)
    rowptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=rowptr[1:])
    return CSRMatrix((m, n), rowptr, c, v)


@checked(validates("csr"))
def csr_to_coo(csr: CSRMatrix) -> COOMatrix:
    """Expand CSR into COO (entries remain in canonical row-major order)."""
    return COOMatrix(
        csr.shape, csr.row_ids(), csr.colidx.copy(), csr.values.copy()
    )


@checked(validates("csr"))
def csr_to_csc(csr: CSRMatrix) -> CSCMatrix:
    """CSR -> CSC via a stable counting sort on column index.

    Stability of the sort preserves ascending row order within each column,
    so the result is canonical without a second pass.
    """
    m, n = csr.shape
    if csr.nnz == 0:
        return CSCMatrix.empty((m, n))
    row_ids = csr.row_ids()
    order = np.argsort(csr.colidx, kind="stable")
    rowidx = row_ids[order]
    values = csr.values[order]
    counts = np.bincount(csr.colidx, minlength=n)
    colptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=colptr[1:])
    return CSCMatrix((m, n), colptr, rowidx, values)


@checked(validates("csc"))
def csc_to_csr(csc: CSCMatrix) -> CSRMatrix:
    """CSC -> CSR via the mirror-image stable counting sort."""
    m, n = csc.shape
    if csc.nnz == 0:
        return CSRMatrix.empty((m, n))
    col_ids = offsets_to_row_ids(csc.colptr)
    order = np.argsort(csc.rowidx, kind="stable")
    colidx = col_ids[order]
    values = csc.values[order]
    counts = np.bincount(csc.rowidx, minlength=m)
    rowptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=rowptr[1:])
    return CSRMatrix((m, n), rowptr, colidx, values)
