"""Compressed Sparse Column (CSC) container.

CSC is used by the column-density analysis in the ASpT tiler and by the
vertex-reordering baselines (which need fast column access).  Invariants
mirror :class:`repro.sparse.CSRMatrix` with rows and columns swapped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FormatError
from repro.util.arrayops import offsets_to_row_ids

__all__ = ["CSCMatrix"]


@dataclass(frozen=True)
class CSCMatrix:
    """A sparse matrix in canonical CSC form.

    ``rowidx[colptr[j]:colptr[j+1]]`` holds the row indices of column ``j``,
    sorted ascending with no duplicates.
    """

    shape: tuple[int, int]
    colptr: np.ndarray
    rowidx: np.ndarray
    values: np.ndarray

    @classmethod
    def from_arrays(cls, shape, colptr, rowidx, values=None) -> "CSCMatrix":
        """Build a CSC matrix via the (already canonicalising) CSR constructor
        on the transposed interpretation."""
        from repro.sparse.csr import CSRMatrix

        m, n = int(shape[0]), int(shape[1])
        # A CSC matrix of shape (m, n) is structurally a CSR matrix of the
        # transpose, shape (n, m): reuse CSR's canonicalisation then rewrap.
        as_csr_t = CSRMatrix.from_arrays((n, m), colptr, rowidx, values)
        return cls((m, n), as_csr_t.rowptr, as_csr_t.colidx, as_csr_t.values)

    @classmethod
    def empty(cls, shape) -> "CSCMatrix":
        """An all-zero matrix of the given shape."""
        m, n = int(shape[0]), int(shape[1])
        return cls(
            (m, n),
            np.zeros(n + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )

    def validate(self) -> None:
        """Check invariants, raising :class:`FormatError` on violation."""
        m, n = self.shape
        if self.colptr.size != n + 1 or self.colptr[0] != 0:
            raise FormatError("colptr must have length n_cols+1 and start at 0")
        if np.any(np.diff(self.colptr) < 0):
            raise FormatError("colptr must be non-decreasing")
        if self.colptr[-1] != self.rowidx.size or self.rowidx.size != self.values.size:
            raise FormatError("colptr/rowidx/values size mismatch")
        if self.rowidx.size and (self.rowidx.min() < 0 or self.rowidx.max() >= m):
            raise FormatError(f"row index out of range for {m} rows")

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.rowidx.size)

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        """Number of columns."""
        return self.shape[1]

    def col(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the row indices and values of column ``j``."""
        if not 0 <= j < self.shape[1]:
            raise IndexError(f"column {j} out of range for {self.shape[1]} columns")
        lo, hi = self.colptr[j], self.colptr[j + 1]
        return self.rowidx[lo:hi], self.values[lo:hi]

    def col_ids(self) -> np.ndarray:
        """Per-non-zero column index."""
        return offsets_to_row_ids(self.colptr)

    def to_csr(self):
        """Convert to canonical CSR."""
        from repro.sparse.conversions import csc_to_csr

        return csc_to_csr(self)

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense ``float64`` array."""
        out = np.zeros(self.shape, dtype=np.float64)
        if self.nnz:
            out[self.rowidx, self.col_ids()] = self.values
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSCMatrix(shape={self.shape}, nnz={self.nnz})"
