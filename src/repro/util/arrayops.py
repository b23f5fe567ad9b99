"""Vectorised array primitives shared by the sparse and GPU subsystems.

These are the NumPy idioms the rest of the library is built on: converting
between per-segment counts and CSR-style offset arrays, expanding offsets
back into per-element segment ids, and gathering index ranges.  Keeping
them in one place means the tricky empty-segment corner cases are
handled (and tested) exactly once.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "counts_to_offsets",
    "lengths_from_offsets",
    "offsets_to_row_ids",
    "gather_ranges",
    "rank_of_permutation",
]


def counts_to_offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: per-segment counts -> CSR offsets.

    ``offsets`` has length ``len(counts) + 1`` with ``offsets[0] == 0`` and
    ``offsets[-1] == counts.sum()``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.empty(counts.size + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(counts, out=offsets[1:])
    return offsets


def lengths_from_offsets(offsets: np.ndarray) -> np.ndarray:
    """Inverse of :func:`counts_to_offsets`."""
    offsets = np.asarray(offsets, dtype=np.int64)
    return np.diff(offsets)


def offsets_to_row_ids(offsets: np.ndarray) -> np.ndarray:
    """Expand CSR offsets into a per-element segment-id array.

    For ``offsets = [0, 2, 2, 5]`` returns ``[0, 0, 2, 2, 2]``.  This is the
    standard CSR->COO row expansion and is fully vectorised (no Python loop),
    which matters because it sits on the hot path of every kernel trace.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    n = int(offsets[-1]) if offsets.size else 0
    nseg = offsets.size - 1
    out = np.zeros(n, dtype=np.int64)
    if n == 0 or nseg == 0:
        return out
    starts = offsets[:-1]
    # Mark segment starts; empty segments contribute multiple marks at the
    # same position, handled by np.add.at accumulation.
    marks = np.zeros(n + 1, dtype=np.int64)
    np.add.at(marks, starts, 1)
    out = np.cumsum(marks[:-1]) - 1
    return out.astype(np.int64, copy=False)


def gather_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices of the ranges ``[starts[k], starts[k] + lengths[k])``,
    concatenated in order: the gather map that copies whole CSR rows.

    For ``starts = [5, 0]`` and ``lengths = [2, 3]`` returns
    ``[5, 6, 0, 1, 2]``.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(
        total, dtype=np.int64
    )


def rank_of_permutation(perm: np.ndarray) -> np.ndarray:
    """Return the inverse permutation (``rank[perm[i]] == i``).

    For a row ordering ``perm`` (new position -> old row), the inverse maps
    an old row id to its new position, which is what column relabelling and
    scatter operations need.
    """
    perm = np.asarray(perm, dtype=np.int64)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size, dtype=np.int64)
    return inv
