"""Coordinate (COO) sparse matrix container.

COO is the construction format: generators and the MatrixMarket reader emit
COO, which is then converted once to CSR for all computation.  The container
is an immutable-by-convention triple of parallel arrays ``(rows, cols,
values)`` plus a ``shape``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FormatError
from repro.util.validation import check_integer_array

__all__ = ["COOMatrix"]


@dataclass(frozen=True)
class COOMatrix:
    """A sparse matrix in coordinate format.

    Attributes
    ----------
    shape:
        ``(n_rows, n_cols)``.
    rows, cols:
        ``int64`` arrays of length ``nnz`` with the coordinates of each
        stored entry.
    values:
        ``float64`` array of length ``nnz``.

    Duplicates are permitted in COO; they are summed on conversion to CSR.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(cls, shape, rows, cols, values=None) -> "COOMatrix":
        """Build and validate a COO matrix from raw arrays.

        ``values=None`` fills ones (pattern matrices — the common case for
        graph adjacency inputs).
        """
        m, n = int(shape[0]), int(shape[1])
        if m < 0 or n < 0:
            raise FormatError(f"shape must be non-negative, got {(m, n)}")
        rows = check_integer_array("rows", rows)
        cols = check_integer_array("cols", cols)
        if rows.size != cols.size:
            raise FormatError(
                f"rows and cols must have equal length, got {rows.size} != {cols.size}"
            )
        if values is None:
            values = np.ones(rows.size, dtype=np.float64)
        else:
            values = np.asarray(values, dtype=np.float64)
            if values.ndim != 1 or values.size != rows.size:
                raise FormatError(
                    f"values must be 1-D of length {rows.size}, got shape {values.shape}"
                )
        out = cls((m, n), rows, cols, values)
        out.validate()
        return out

    @classmethod
    def empty(cls, shape) -> "COOMatrix":
        """An all-zero matrix of the given shape."""
        z = np.empty(0, dtype=np.int64)
        return cls.from_arrays(shape, z, z.copy(), np.empty(0, dtype=np.float64))

    # ------------------------------------------------------------------
    # invariants / basic accessors
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the format invariants, raising :class:`FormatError` on violation."""
        m, n = self.shape
        if self.rows.size != self.cols.size or self.rows.size != self.values.size:
            raise FormatError("rows/cols/values length mismatch")
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= m:
                raise FormatError(f"row index out of range for {m} rows")
            if self.cols.min() < 0 or self.cols.max() >= n:
                raise FormatError(f"column index out of range for {n} columns")

    @property
    def nnz(self) -> int:
        """Number of stored entries (including explicit zeros/duplicates)."""
        return int(self.rows.size)

    def copy(self) -> "COOMatrix":
        """Deep copy (fresh arrays)."""
        return COOMatrix(
            self.shape, self.rows.copy(), self.cols.copy(), self.values.copy()
        )

    # ------------------------------------------------------------------
    # conversion helpers (thin wrappers; full logic in conversions.py)
    # ------------------------------------------------------------------
    def to_csr(self):
        """Convert to :class:`repro.sparse.CSRMatrix` (duplicates summed)."""
        from repro.sparse.conversions import coo_to_csr

        return coo_to_csr(self)

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense ``float64`` array (duplicates summed)."""
        out = np.zeros(self.shape, dtype=np.float64)
        np.add.at(out, (self.rows, self.cols), self.values)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz})"
