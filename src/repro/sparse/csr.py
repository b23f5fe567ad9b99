"""Compressed Sparse Row (CSR) container — the paper's Fig. 1 format.

The invariants maintained by every constructor in this module:

* ``rowptr`` is a non-decreasing ``int64`` array of length ``n_rows + 1``
  with ``rowptr[0] == 0`` and ``rowptr[-1] == nnz``;
* ``colidx[rowptr[i]:rowptr[i+1]]`` holds the column indices of row ``i``
  **sorted ascending with no duplicates** (canonical form);
* ``values`` is ``float64`` and parallel to ``colidx``.

Canonical (sorted, deduplicated) rows are required by the Jaccard merge
routines and the ASpT tiler, so unlike scipy we make canonical form an
invariant rather than a flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FormatError, ShapeError
from repro.util.arrayops import lengths_from_offsets, offsets_to_row_ids

__all__ = ["CSRMatrix"]


@dataclass(frozen=True)
class CSRMatrix:
    """A sparse matrix in canonical CSR form (see module docstring)."""

    shape: tuple[int, int]
    rowptr: np.ndarray
    colidx: np.ndarray
    values: np.ndarray

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(cls, shape, rowptr, colidx, values=None) -> "CSRMatrix":
        """Build a CSR matrix, canonicalising rows if necessary.

        Rows with unsorted or duplicate column indices are sorted and
        deduplicated (duplicate values summed).  ``values=None`` fills ones.
        """
        m, n = int(shape[0]), int(shape[1])
        rowptr = np.ascontiguousarray(rowptr, dtype=np.int64)
        colidx = np.ascontiguousarray(colidx, dtype=np.int64)
        if values is None:
            values = np.ones(colidx.size, dtype=np.float64)
        else:
            values = np.ascontiguousarray(values, dtype=np.float64)
        mat = cls((m, n), rowptr, colidx, values)
        mat._check_structure()
        if not mat._rows_canonical():
            mat = mat._canonicalise()
        return mat

    @classmethod
    def from_dense(cls, dense) -> "CSRMatrix":
        """Compress a dense array, dropping exact zeros."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ShapeError(f"dense input must be 2-D, got shape {dense.shape}")
        rows, cols = np.nonzero(dense)
        counts = np.bincount(rows, minlength=dense.shape[0])
        rowptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=rowptr[1:])
        return cls(
            (dense.shape[0], dense.shape[1]),
            rowptr,
            cols.astype(np.int64),
            dense[rows, cols],
        )

    @classmethod
    def empty(cls, shape) -> "CSRMatrix":
        """An all-zero matrix of the given shape."""
        m, n = int(shape[0]), int(shape[1])
        return cls(
            (m, n),
            np.zeros(m + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def _check_structure(self) -> None:
        m, n = self.shape
        if m < 0 or n < 0:
            raise FormatError(f"shape must be non-negative, got {self.shape}")
        if self.rowptr.ndim != 1 or self.rowptr.size != m + 1:
            raise FormatError(
                f"rowptr must have length n_rows+1={m + 1}, got {self.rowptr.size}"
            )
        if self.rowptr[0] != 0:
            raise FormatError(f"rowptr[0] must be 0, got {self.rowptr[0]}")
        if np.any(np.diff(self.rowptr) < 0):
            raise FormatError("rowptr must be non-decreasing")
        if self.rowptr[-1] != self.colidx.size:
            raise FormatError(
                f"rowptr[-1]={self.rowptr[-1]} must equal nnz={self.colidx.size}"
            )
        if self.colidx.size != self.values.size:
            raise FormatError("colidx and values length mismatch")
        if self.colidx.size:
            if self.colidx.min() < 0 or self.colidx.max() >= n:
                raise FormatError(f"column index out of range for {n} columns")

    def _rows_canonical(self) -> bool:
        """True when every row is strictly increasing in column index."""
        if self.colidx.size <= 1:
            return True
        increasing = self.colidx[1:] > self.colidx[:-1]
        # Positions where a new row starts are allowed to decrease.
        row_starts = np.zeros(self.colidx.size, dtype=bool)
        starts = self.rowptr[1:-1]
        row_starts[starts[starts < self.colidx.size]] = True
        return bool(np.all(increasing | row_starts[1:]))

    def _canonicalise(self) -> "CSRMatrix":
        """Sort each row by column and sum duplicates (returns new matrix)."""
        row_ids = offsets_to_row_ids(self.rowptr)
        order = np.lexsort((self.colidx, row_ids))
        r = row_ids[order]
        c = self.colidx[order]
        v = self.values[order]
        if c.size:
            keep = np.empty(c.size, dtype=bool)
            keep[0] = True
            keep[1:] = (c[1:] != c[:-1]) | (r[1:] != r[:-1])
            starts = np.flatnonzero(keep)
            v = np.add.reduceat(v, starts)
            c = c[starts]
            r = r[starts]
        counts = np.bincount(r, minlength=self.shape[0]) if r.size else np.zeros(
            self.shape[0], dtype=np.int64
        )
        rowptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=rowptr[1:])
        return CSRMatrix(self.shape, rowptr, c, v)

    def validate(self) -> None:
        """Check *all* invariants including canonical row form."""
        self._check_structure()
        if not self._rows_canonical():
            raise FormatError("rows are not in canonical (sorted, unique) form")

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.colidx.size)

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        """Number of columns."""
        return self.shape[1]

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the column indices and values of row ``i``.

        Returned arrays are views into the underlying storage — do not
        mutate them.
        """
        if not 0 <= i < self.shape[0]:
            raise IndexError(f"row {i} out of range for {self.shape[0]} rows")
        lo, hi = self.rowptr[i], self.rowptr[i + 1]
        return self.colidx[lo:hi], self.values[lo:hi]

    def row_cols(self, i: int) -> np.ndarray:
        """View of the column indices of row ``i`` (the row's *support set*)."""
        return self.row(i)[0]

    def row_lengths(self) -> np.ndarray:
        """Number of non-zeros in each row (length ``n_rows``)."""
        return lengths_from_offsets(self.rowptr)

    def row_ids(self) -> np.ndarray:
        """Per-non-zero row index (CSR -> COO row expansion)."""
        return offsets_to_row_ids(self.rowptr)

    # ------------------------------------------------------------------
    # conversions / derivations
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialise as a dense ``float64`` array."""
        out = np.zeros(self.shape, dtype=np.float64)
        if self.nnz:
            out[self.row_ids(), self.colidx] = self.values
        return out

    def to_coo(self):
        """Convert to :class:`repro.sparse.COOMatrix`."""
        from repro.sparse.conversions import csr_to_coo

        return csr_to_coo(self)

    def copy(self) -> "CSRMatrix":
        """Deep copy (fresh arrays)."""
        return CSRMatrix(
            self.shape, self.rowptr.copy(), self.colidx.copy(), self.values.copy()
        )

    def with_values(self, values: np.ndarray) -> "CSRMatrix":
        """Same sparsity pattern, different values (no copy of structure)."""
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.size != self.nnz:
            raise ShapeError(f"expected {self.nnz} values, got {values.size}")
        return CSRMatrix(self.shape, self.rowptr, self.colidx, values)

    def pattern(self) -> "CSRMatrix":
        """Same sparsity with all values set to one."""
        return CSRMatrix(
            self.shape, self.rowptr, self.colidx, np.ones(self.nnz, dtype=np.float64)
        )

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------
    def same_pattern(self, other: "CSRMatrix") -> bool:
        """Structural equality of the sparsity patterns."""
        return (
            self.shape == other.shape
            and np.array_equal(self.rowptr, other.rowptr)
            and np.array_equal(self.colidx, other.colidx)
        )

    def allclose(self, other: "CSRMatrix", rtol=1e-10, atol=1e-12) -> bool:
        """Numerical equality (requires identical canonical patterns)."""
        return self.same_pattern(other) and np.allclose(
            self.values, other.values, rtol=rtol, atol=atol
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
