"""The ASpT dense/sparse split (paper Fig. 3b-c).

Within each row panel, a column holding at least ``dense_threshold``
non-zeros is *dense*: its non-zeros join the panel's dense tiles, whose
dense-operand rows the GPU kernel stages through shared memory.  Everything
else is the *sparse remainder*, processed row-wise.

The split is represented as two CSR matrices over the **original** shape
plus per-panel dense-column lists.  Keeping original coordinates makes
functional correctness trivial (``A @ X == dense_part @ X + sparse_part @ X``
by construction) while giving the performance model exactly the structures
it needs: dense-column counts per panel (shared-memory preload traffic) and
the remainder's access stream (L2-modelled traffic).

An optional ``max_dense_cols`` mirrors the shared-memory capacity limit of
real ASpT: when a panel has more dense columns than fit, only the densest
``max_dense_cols`` stay dense and the rest are demoted to the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.aspt.panels import PanelSpec
from repro.contracts import checked, validates
from repro.sparse.csr import CSRMatrix
from repro.util.arrayops import counts_to_offsets
from repro.util.validation import check_positive

__all__ = ["TiledMatrix", "tile_matrix"]


@dataclass(frozen=True)
class TiledMatrix:
    """Result of the ASpT split.

    Attributes
    ----------
    original:
        The input matrix (post any row reordering).
    dense_part:
        CSR holding exactly the non-zeros inside dense tiles.
    sparse_part:
        CSR holding the remainder; ``dense_part + sparse_part`` is a
        disjoint partition of ``original``'s non-zeros.
    spec:
        The panel decomposition.
    dense_threshold:
        Minimum per-panel column count for a dense column.
    panel_dense_cols:
        ``panel_dense_cols[p]`` is the sorted array of dense columns of
        panel ``p`` (empty array when the panel has none).
    max_dense_cols:
        The per-panel dense-column cap the split was made under
        (``None`` = uncapped).
    """

    original: CSRMatrix
    dense_part: CSRMatrix
    sparse_part: CSRMatrix
    spec: PanelSpec
    dense_threshold: int
    panel_dense_cols: list = field(repr=False)
    max_dense_cols: int | None = None

    @property
    def nnz_dense(self) -> int:
        """Non-zeros captured in dense tiles."""
        return self.dense_part.nnz

    @property
    def nnz_sparse(self) -> int:
        """Non-zeros in the sparse remainder."""
        return self.sparse_part.nnz

    @property
    def dense_ratio(self) -> float:
        """Fraction of non-zeros in dense tiles — the §4 round-1 indicator."""
        total = self.original.nnz
        return self.nnz_dense / total if total else 0.0

    @property
    def n_dense_columns_total(self) -> int:
        """Total dense-column instances across panels (with multiplicity:
        the same matrix column counted once per panel it is dense in).
        Equals the number of shared-memory row preloads per K-chunk."""
        return int(sum(cols.size for cols in self.panel_dense_cols))

    def validate_structure(self) -> None:
        """Cheap invariant check: shapes, canonical parts, nnz accounting.

        Unlike :meth:`validate` this never materialises dense arrays, so it
        is safe as a per-call contract (:mod:`repro.contracts`).
        """
        from repro.errors import FormatError

        if self.dense_part.shape != self.original.shape:
            raise FormatError("dense_part shape differs from original")
        if self.sparse_part.shape != self.original.shape:
            raise FormatError("sparse_part shape differs from original")
        if self.nnz_dense + self.nnz_sparse != self.original.nnz:
            raise FormatError(
                f"tile partition loses non-zeros: {self.nnz_dense} dense + "
                f"{self.nnz_sparse} sparse != {self.original.nnz}"
            )
        if len(self.panel_dense_cols) != self.spec.n_panels:
            raise FormatError(
                f"panel_dense_cols has {len(self.panel_dense_cols)} entries "
                f"for {self.spec.n_panels} panels"
            )
        self.dense_part.validate()
        self.sparse_part.validate()

    def validate(self) -> None:
        """Cross-check the partition invariants (test/diagnostic helper)."""
        self.validate_structure()
        recombined = self.dense_part.to_dense() + self.sparse_part.to_dense()
        np.testing.assert_allclose(recombined, self.original.to_dense())


def _split_by_mask(csr: CSRMatrix, keep: np.ndarray) -> CSRMatrix:
    """New CSR with only the non-zeros where ``keep`` is true."""
    row_ids = csr.row_ids()[keep]
    counts = (
        np.bincount(row_ids, minlength=csr.n_rows)
        if row_ids.size
        else np.zeros(csr.n_rows, dtype=np.int64)
    )
    rowptr = counts_to_offsets(counts)
    return CSRMatrix(csr.shape, rowptr, csr.colidx[keep], csr.values[keep])


@checked(validates("csr"))
def tile_matrix(
    csr: CSRMatrix,
    panel_height: int,
    dense_threshold: int = 2,
    *,
    max_dense_cols: int | None = None,
) -> TiledMatrix:
    """Apply the ASpT dense/sparse split.

    Parameters
    ----------
    csr:
        Input matrix (already row-reordered if the pipeline chose to).
    panel_height:
        Rows per panel (the paper's illustrative example uses 3; the GPU
        configuration uses panels sized to thread-block row coverage).
    dense_threshold:
        Per-panel column count at or above which a column is dense.  The
        paper's example uses 2.
    max_dense_cols:
        Optional shared-memory capacity cap per panel (see module
        docstring).

    Returns
    -------
    TiledMatrix
    """
    check_positive("panel_height", panel_height)
    check_positive("dense_threshold", dense_threshold)
    if max_dense_cols is not None:
        check_positive("max_dense_cols", max_dense_cols)

    spec = PanelSpec(csr.n_rows, panel_height)
    n = csr.n_cols
    if csr.nnz == 0 or spec.n_panels == 0:
        empty = CSRMatrix.empty(csr.shape)
        return TiledMatrix(
            original=csr,
            dense_part=empty,
            sparse_part=csr.copy(),
            spec=spec,
            dense_threshold=dense_threshold,
            panel_dense_cols=[np.empty(0, dtype=np.int64) for _ in range(spec.n_panels)],
            max_dense_cols=max_dense_cols,
        )

    row_ids = csr.row_ids()
    panel_ids = row_ids // panel_height
    # Per-(panel, column) non-zero counts via a composite key.
    key = panel_ids * np.int64(n) + csr.colidx
    uniq, inverse, counts = np.unique(key, return_inverse=True, return_counts=True)
    dense_key_mask = counts >= dense_threshold

    if max_dense_cols is not None and dense_key_mask.any():
        # Demote overflow columns per panel, keeping the densest.
        dense_keys = uniq[dense_key_mask]
        dense_counts = counts[dense_key_mask]
        panels = dense_keys // n
        # Sort by (panel, -count, column) and keep the first max_dense_cols
        # of each panel.
        order = np.lexsort((dense_keys % n, -dense_counts, panels))
        panels_sorted = panels[order]
        # Rank within panel = position - first position of that panel.
        first_of_panel = np.concatenate(
            [[0], np.flatnonzero(panels_sorted[1:] != panels_sorted[:-1]) + 1]
        )
        panel_start = np.zeros(panels_sorted.size, dtype=np.int64)
        panel_start[first_of_panel] = first_of_panel
        np.maximum.accumulate(panel_start, out=panel_start)
        rank = np.arange(panels_sorted.size, dtype=np.int64) - panel_start
        keep_sorted = rank < max_dense_cols
        kept = np.zeros(dense_keys.size, dtype=bool)
        kept[order] = keep_sorted
        new_mask = np.zeros(uniq.size, dtype=bool)
        new_mask[np.flatnonzero(dense_key_mask)[kept]] = True
        dense_key_mask = new_mask

    nnz_is_dense = dense_key_mask[inverse]

    dense_part = _split_by_mask(csr, nnz_is_dense)
    sparse_part = _split_by_mask(csr, ~nnz_is_dense)

    dense_keys = uniq[dense_key_mask]
    # uniq is sorted, so dense_keys is sorted by (panel, column) already:
    # slice per panel with searchsorted instead of a quadratic scan.
    panels = (dense_keys // n).astype(np.int64)
    cols = (dense_keys % n).astype(np.int64)
    cuts = np.searchsorted(panels, np.arange(spec.n_panels + 1, dtype=np.int64))
    panel_dense_cols: list[np.ndarray] = [
        cols[cuts[p] : cuts[p + 1]] for p in range(spec.n_panels)
    ]

    return TiledMatrix(
        original=csr,
        dense_part=dense_part,
        sparse_part=sparse_part,
        spec=spec,
        dense_threshold=dense_threshold,
        panel_dense_cols=panel_dense_cols,
        max_dense_cols=max_dense_cols,
    )
