"""Structural operations on CSR matrices.

The row-reordering pipeline is built on :func:`permute_csr_rows`.  All
operations return new canonical CSR matrices and never mutate inputs.
"""

from __future__ import annotations

import numpy as np

from repro.contracts import checked, validates
from repro.sparse.csr import CSRMatrix
from repro.util.arrayops import counts_to_offsets, gather_ranges
from repro.util.validation import check_permutation

__all__ = [
    "permute_csr_rows",
    "permute_csr_columns",
    "transpose_csr",
]


@checked(validates("csr"))
def permute_csr_rows(csr: CSRMatrix, order: np.ndarray) -> CSRMatrix:
    """Reorder rows so that new row ``k`` is old row ``order[k]``.

    This is the core data transformation of the paper: a row permutation of
    the *sparse* matrix that leaves the dense operand's indexing untouched.
    Fully vectorised: gathers each old row's slice via repeated-range
    indexing rather than a Python loop.
    """
    order = check_permutation("order", order, csr.n_rows)
    lengths = csr.row_lengths()[order]
    # New row k is the contiguous slice of old row order[k].
    gather = gather_ranges(csr.rowptr[:-1][order], lengths)
    # Rows keep their internal sorted order, so the result is canonical.
    return CSRMatrix(
        csr.shape, counts_to_offsets(lengths), csr.colidx[gather], csr.values[gather]
    )


@checked(validates("csr"))
def permute_csr_columns(csr: CSRMatrix, col_map: np.ndarray) -> CSRMatrix:
    """Relabel columns: new column of an entry is ``col_map[old_column]``.

    ``col_map`` must be a permutation of ``range(n_cols)``.  Rows are
    re-sorted to restore canonical form (column relabelling generally breaks
    the sorted-row invariant).
    """
    col_map = check_permutation("col_map", col_map, csr.n_cols)
    new_cols = col_map[csr.colidx] if csr.nnz else csr.colidx.copy()
    return CSRMatrix.from_arrays(csr.shape, csr.rowptr.copy(), new_cols, csr.values.copy())


@checked(validates("csr"))
def transpose_csr(csr: CSRMatrix) -> CSRMatrix:
    """Transpose via CSC reinterpretation (counting sort, no Python loop)."""
    from repro.sparse.conversions import csr_to_csc

    csc = csr_to_csc(csr)
    # A CSC matrix of shape (m, n) has exactly the CSR arrays of the
    # transpose, shape (n, m).
    return CSRMatrix((csr.n_cols, csr.n_rows), csc.colptr, csc.rowidx, csc.values)
