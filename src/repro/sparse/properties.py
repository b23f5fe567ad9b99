"""Structural statistics of sparse matrices.

These feed three places: the dataset corpus metadata (matrix selection
criteria mirror the paper's "at least 10K rows / 10K columns / 100K nnz"),
the §4 reordering heuristics, and the experiment reports.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.contracts import checked, validates
from repro.sparse.csr import CSRMatrix

__all__ = [
    "nnz_per_row",
    "column_counts",
    "density",
    "bandwidth",
    "structural_summary",
    "StructuralSummary",
]


@checked(validates("csr"))
def nnz_per_row(csr: CSRMatrix) -> np.ndarray:
    """Non-zeros per row."""
    return csr.row_lengths()


@checked(validates("csr"))
def column_counts(csr: CSRMatrix) -> np.ndarray:
    """Non-zeros per column (length ``n_cols``)."""
    if csr.nnz == 0:
        return np.zeros(csr.n_cols, dtype=np.int64)
    return np.bincount(csr.colidx, minlength=csr.n_cols).astype(np.int64)


@checked(validates("csr"))
def density(csr: CSRMatrix) -> float:
    """Fraction of stored entries: ``nnz / (n_rows * n_cols)``."""
    cells = csr.n_rows * csr.n_cols
    return csr.nnz / cells if cells else 0.0


@checked(validates("csr"))
def bandwidth(csr: CSRMatrix) -> int:
    """Maximum ``|i - j|`` over stored entries (0 for empty matrices).

    Used to characterise banded matrices (the class where vertex-style
    orderings like RCM do well but row-reordering has nothing to add).
    """
    if csr.nnz == 0:
        return 0
    return int(np.abs(csr.row_ids() - csr.colidx).max())


@dataclass(frozen=True)
class StructuralSummary:
    """A compact structural fingerprint of a sparse matrix."""

    n_rows: int
    n_cols: int
    nnz: int
    density: float
    bandwidth: int
    row_nnz_min: int
    row_nnz_max: int
    row_nnz_mean: float
    row_nnz_std: float
    col_nnz_max: int
    empty_rows: int

    def as_dict(self) -> dict:
        """Plain-dict form for JSON serialisation."""
        return asdict(self)


@checked(validates("csr"))
def structural_summary(csr: CSRMatrix) -> StructuralSummary:
    """Compute a :class:`StructuralSummary` in one pass."""
    lengths = csr.row_lengths()
    ccounts = column_counts(csr)
    return StructuralSummary(
        n_rows=csr.n_rows,
        n_cols=csr.n_cols,
        nnz=csr.nnz,
        density=density(csr),
        bandwidth=bandwidth(csr),
        row_nnz_min=int(lengths.min()) if lengths.size else 0,
        row_nnz_max=int(lengths.max()) if lengths.size else 0,
        row_nnz_mean=float(lengths.mean()) if lengths.size else 0.0,
        row_nnz_std=float(lengths.std()) if lengths.size else 0.0,
        col_nnz_max=int(ccounts.max()) if ccounts.size else 0,
        empty_rows=int(np.count_nonzero(lengths == 0)),
    )
