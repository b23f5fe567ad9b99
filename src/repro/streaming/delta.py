"""Delta batches: the unit of change for streaming matrices.

The ROADMAP north-star is a service whose matrices drift under live
traffic — ratings matrices gain rows, graphs gain edges, edge weights
get corrected.  A :class:`DeltaBatch` captures one such update as a COO
fragment plus an optional count of appended rows, with two modes:

``add``
    Insert new non-zeros and/or accumulate onto existing ones (sparse
    addition).  Entries may target appended rows.
``set``
    Overwrite the values of entries that already exist; the sparsity
    pattern is preserved and no rows may be appended.

Applying a delta never mutates the input matrix — :meth:`DeltaBatch.apply_to`
returns a new canonical :class:`~repro.sparse.CSRMatrix`, so an
interrupted streaming update can always fall back to the old matrix.

:func:`split_into_deltas` is the inverse operation used by the test
battery and the stream corpus: it decomposes a matrix into a replayable
delta sequence with an *exact-replay* guarantee — every non-zero is
emitted by exactly one delta, all deltas are ``add``, and no two deltas
touch the same entry, so replaying them reproduces the source matrix
bit-for-bit (no float re-accumulation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.sparse.csr import CSRMatrix
from repro.util.arrayops import counts_to_offsets, gather_ranges
from repro.util.rng import as_generator
from repro.util.validation import check_positive

__all__ = ["DeltaBatch", "split_into_deltas"]

#: ``row * (n_cols + 1) + col`` keys of a ``set`` delta stay below this
#: (2**63, the int64 range); wider matrices key on column ranks.
_KEY_LIMIT = 2**63


@dataclass(frozen=True)
class DeltaBatch:
    """One batch of matrix mutations (see module docstring).

    Attributes
    ----------
    rows, cols, values:
        Parallel COO arrays of the touched entries.  Row indices refer to
        the matrix *after* appending :attr:`new_rows` rows, so an entry
        may populate a row this same batch creates.
    new_rows:
        Rows appended to the bottom of the matrix (0 = same height).
    mode:
        ``"add"`` (sparse addition, may create entries) or ``"set"``
        (overwrite values of existing entries only).
    timestamp:
        Event time of the batch (seconds, caller-defined epoch).  Carried
        through to update reports; never interpreted by the library.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    new_rows: int = 0
    mode: str = "add"
    timestamp: float = 0.0

    def __post_init__(self):
        rows = np.ascontiguousarray(self.rows, dtype=np.int64)
        cols = np.ascontiguousarray(self.cols, dtype=np.int64)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if not (rows.ndim == cols.ndim == values.ndim == 1):
            raise ValidationError("delta rows/cols/values must be 1-D arrays")
        if not (rows.size == cols.size == values.size):
            raise ValidationError(
                f"delta arrays must have equal length, got "
                f"{rows.size}/{cols.size}/{values.size}"
            )
        if rows.size and (rows.min() < 0 or cols.min() < 0):
            raise ValidationError("delta indices must be non-negative")
        if self.new_rows < 0:
            raise ValidationError(f"new_rows must be >= 0, got {self.new_rows}")
        if self.mode not in ("add", "set"):
            raise ValidationError(f"mode must be 'add' or 'set', got {self.mode!r}")
        if self.mode == "set" and self.new_rows:
            raise ValidationError("mode='set' cannot append rows (pattern-preserving)")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "new_rows", int(self.new_rows))
        object.__setattr__(self, "timestamp", float(self.timestamp))

    # ------------------------------------------------------------------
    @property
    def n_entries(self) -> int:
        """Number of COO entries in the batch."""
        return int(self.rows.size)

    def touched_rows(self) -> np.ndarray:
        """Sorted unique row indices receiving entries."""
        return np.unique(self.rows)

    def dirty_existing_rows(self, n_rows_before: int) -> np.ndarray:
        """Sorted unique *pre-existing* rows this batch modifies.

        Appended rows (index ``>= n_rows_before``) are excluded — they
        are new, not dirty; an update report counts the two apart.
        """
        touched = self.touched_rows()
        return touched[touched < n_rows_before]

    # ------------------------------------------------------------------
    def apply_to(self, csr: CSRMatrix) -> CSRMatrix:
        """The matrix after this batch — a new canonical CSR.

        ``add`` builds the sparse sum of ``csr`` and the batch (duplicate
        batch entries and collisions with existing entries are summed, as
        in COO construction); ``set`` overwrites existing values in place
        of a structural change.  Raises
        :class:`~repro.errors.ValidationError` on out-of-range indices,
        and for ``set`` on entries that do not exist in ``csr`` or appear
        twice in the batch.
        """
        m, n = csr.shape
        m_new = m + self.new_rows
        if self.rows.size:
            if self.rows.max() >= m_new:
                raise ValidationError(
                    f"delta row {int(self.rows.max())} out of range for "
                    f"{m} + {self.new_rows} rows"
                )
            if self.cols.max() >= n:
                raise ValidationError(
                    f"delta column {int(self.cols.max())} out of range for "
                    f"{n} columns"
                )
        if self.mode == "set":
            return self._apply_set(csr)
        return self._apply_add(csr, m_new)

    def _apply_add(self, csr: CSRMatrix, m_new: int) -> CSRMatrix:
        # Only the rows the batch touches change.  Each is rebuilt from its
        # old entries followed by its batch entries in batch order, and
        # ``from_arrays`` canonicalises them: the order a stable sort of
        # all entries by row gives, so duplicates sum as they always did.
        # The untouched rows are spliced in around them unchanged.
        m, n = csr.shape
        starts = np.zeros(m_new, dtype=np.int64)  # appended rows: empty
        lengths = np.zeros(m_new, dtype=np.int64)
        starts[:m] = csr.rowptr[:-1]
        lengths[:m] = csr.row_lengths()
        touched, n_added = np.unique(self.rows, return_counts=True)
        # Sources: the old entries, then the batch entries grouped by row.
        by_row = np.argsort(self.rows, kind="stable")
        cols = np.concatenate([csr.colidx, self.cols[by_row]])
        vals = np.concatenate([csr.values, self.values[by_row]])
        added_starts = csr.nnz + counts_to_offsets(n_added)[:-1]
        pick = gather_ranges(
            np.column_stack([starts[touched], added_starts]).ravel(),
            np.column_stack([lengths[touched], n_added]).ravel(),
        )
        rebuilt = CSRMatrix.from_arrays(
            (touched.size, n),
            counts_to_offsets(lengths[touched] + n_added),
            cols[pick],
            vals[pick],
        )
        # Splice: the untouched rows from the old matrix, the touched ones
        # from ``rebuilt`` (stacked after the old entries).
        starts[touched] = csr.nnz + rebuilt.rowptr[:-1]
        lengths[touched] = rebuilt.row_lengths()
        pick = gather_ranges(starts, lengths)
        return CSRMatrix(
            (m_new, n),
            counts_to_offsets(lengths),
            np.concatenate([csr.colidx, rebuilt.colidx])[pick],
            np.concatenate([csr.values, rebuilt.values])[pick],
        )

    def _apply_set(self, csr: CSRMatrix) -> CSRMatrix:
        # Locate each entry by its (row, col) key; canonical CSR makes the
        # key stream strictly increasing, so one searchsorted finds all.
        mat_cols, ent_cols, width = csr.colidx, self.cols, csr.n_cols
        if csr.n_rows * (width + 1) >= _KEY_LIMIT:
            # ``row * (n_cols + 1) + col`` could overflow: key on column
            # ranks instead, which keep each row's column order and number
            # at most nnz + n_entries.
            cols, ranks = np.unique(
                np.concatenate([mat_cols, ent_cols]), return_inverse=True
            )
            mat_cols, ent_cols, width = ranks[: csr.nnz], ranks[csr.nnz :], cols.size
        stride = np.int64(width + 1)
        mat_keys = csr.row_ids() * stride + mat_cols
        ent_keys = self.rows * stride + ent_cols
        if np.unique(ent_keys).size != ent_keys.size:
            raise ValidationError("mode='set' batch targets an entry twice")
        pos = np.searchsorted(mat_keys, ent_keys)
        missing = (pos >= mat_keys.size) | (
            mat_keys[np.minimum(pos, max(mat_keys.size - 1, 0))] != ent_keys
        )
        if ent_keys.size and missing.any():
            bad = int(np.flatnonzero(missing)[0])
            raise ValidationError(
                f"mode='set' targets missing entry "
                f"({int(self.rows[bad])}, {int(self.cols[bad])})"
            )
        values = csr.values.copy()
        values[pos] = self.values
        return csr.with_values(values)


def split_into_deltas(
    csr: CSRMatrix, n_batches: int, *, seed=0, grow_rows: bool = False
) -> tuple[CSRMatrix, list[DeltaBatch]]:
    """Decompose ``csr`` into ``(base, deltas)`` with exact replay.

    Replaying the returned ``add`` deltas on ``base`` (in order)
    reconstructs ``csr`` bit-for-bit: each non-zero is emitted by exactly
    one delta, so no float accumulation differs from whole-matrix
    construction.  This is the workhorse of the ``streamed`` test fixture
    and the edge-stream corpus.

    Parameters
    ----------
    csr:
        Matrix to decompose.
    n_batches:
        Number of deltas (each may be empty for tiny matrices).
    seed:
        Assignment of entries to batches is seeded and deterministic.
    grow_rows:
        When false, ``base`` has the full shape and every delta only
        inserts non-zeros.  When true, ``base`` is the empty
        ``(0, n_cols)`` matrix and delta ``b`` appends the ``b``-th
        contiguous row block, with each entry landing in a uniformly
        random batch *at or after* the one that creates its row — so
        later deltas also insert into rows appended earlier (the
        mixed append/insert workload the streaming pipeline serves).

    Returns
    -------
    tuple
        ``(base, [delta_0, ..., delta_{n_batches-1}])``; delta ``b`` has
        ``timestamp=float(b)``.
    """
    n_batches = check_positive("n_batches", n_batches)
    m, n = csr.shape
    rng = as_generator(seed)
    row_ids = csr.row_ids()
    if grow_rows:
        bounds = (np.arange(n_batches + 1, dtype=np.int64) * m) // n_batches
        block = np.searchsorted(bounds, row_ids, side="right") - 1
        batch = rng.integers(block, n_batches) if row_ids.size else row_ids
        base = CSRMatrix.empty((0, n))
        appended = np.diff(bounds)
    else:
        batch = (
            rng.integers(0, n_batches, size=row_ids.size)
            if row_ids.size
            else row_ids
        )
        base = CSRMatrix.empty((m, n))
        appended = np.zeros(n_batches, dtype=np.int64)
    deltas = []
    for b in range(n_batches):
        sel = batch == b
        deltas.append(
            DeltaBatch(
                rows=row_ids[sel],
                cols=csr.colidx[sel],
                values=csr.values[sel],
                new_rows=int(appended[b]),
                mode="add",
                timestamp=float(b),
            )
        )
    return base, deltas
