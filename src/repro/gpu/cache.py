"""Cache simulators.

The cost model treats the L2 as a cache of *dense-operand rows* (each row of
``X`` is ``K * 4`` bytes and is always touched in its entirety by a warp, so
the natural cache block is one row).  Two simulators are provided:

* :func:`lru_hits` — exact fully-associative LRU.  A classical result makes
  this cheap to evaluate offline: an access hits in an LRU cache of
  capacity ``C`` iff its *reuse (stack) distance* — the number of distinct
  blocks touched since the previous access to the same block — is at most
  ``C``.  Stack distances are computed in ``O(n log n)`` with a Fenwick
  tree over last-occurrence positions.
* :func:`approx_lru_hits` — vectorised approximation using *time* distance
  (number of accesses, rather than distinct blocks, since the last touch).
  Since stack distance <= time distance, ``time_distance <= C`` implies a
  true LRU hit: with ``slack = 1.0`` the approximation is a guaranteed
  **lower bound** on hits.  ``slack > 1`` trades that guarantee for
  accuracy on streams with heavy short-range repetition.  This is the
  simulator used for corpus-scale sweeps (pure NumPy, no Python loop).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_positive

__all__ = ["CacheStats", "lru_hits", "approx_lru_hits"]


@dataclass(frozen=True)
class CacheStats:
    """Outcome of a cache simulation."""

    accesses: int
    hits: int

    @property
    def misses(self) -> int:
        """Accesses that were not hits."""
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        """``hits / accesses`` (0 for an empty stream)."""
        return self.hits / self.accesses if self.accesses else 0.0


class _FenwickTree:
    """Binary indexed tree over positions, supporting point update and
    prefix sum — the textbook structure for offline stack distances."""

    __slots__ = ("_tree",)

    def __init__(self, n: int):
        self._tree = np.zeros(n + 1, dtype=np.int64)

    def add(self, i: int, delta: int) -> None:
        tree = self._tree
        i += 1
        n = tree.size
        while i < n:
            tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, i: int) -> int:
        """Sum of elements at positions ``0 .. i`` inclusive."""
        tree = self._tree
        total = 0
        i += 1
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return int(total)


def _compact_ids(stream: np.ndarray) -> np.ndarray:
    """Relabel arbitrary block ids to 0..u-1 (keeps equality structure)."""
    _, inverse = np.unique(stream, return_inverse=True)
    return inverse.astype(np.int64)


def _previous_occurrence(stream: np.ndarray) -> np.ndarray:
    """For each position, the index of the previous access to the same
    block, or -1.  Fully vectorised via a stable sort by (block, position).
    """
    n = stream.size
    order = np.argsort(stream, kind="stable")
    sorted_ids = stream[order]
    prev = np.full(n, -1, dtype=np.int64)
    same = sorted_ids[1:] == sorted_ids[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def lru_hits(stream: np.ndarray, capacity: int) -> CacheStats:
    """Exact fully-associative LRU via offline stack distances.

    Parameters
    ----------
    stream:
        1-D integer array of block ids in access order.
    capacity:
        Cache capacity in blocks.

    Notes
    -----
    ``O(n log n)``; the per-access Fenwick operations are a Python loop, so
    prefer :func:`approx_lru_hits` for corpus-scale streams.
    """
    capacity = check_positive("capacity", capacity)
    stream = np.asarray(stream, dtype=np.int64).ravel()
    n = stream.size
    if n == 0:
        return CacheStats(0, 0)
    ids = _compact_ids(stream)
    prev = _previous_occurrence(ids)

    # marker[p] == 1 iff position p is the *most recent* access (so far) to
    # its block.  The stack distance of access t with previous occurrence
    # p is then (# markers in (p, t)) + 1... minus the block itself; the
    # count of markers strictly between p and t equals the number of
    # distinct other blocks touched since p.
    tree = _FenwickTree(n)
    hits = 0
    for t in range(n):
        p = prev[t]
        if p >= 0:
            distinct_between = tree.prefix_sum(t - 1) - tree.prefix_sum(int(p))
            # Stack distance counts the block itself as distance 1; the
            # access hits iff distance <= capacity.
            if distinct_between + 1 <= capacity:
                hits += 1
            tree.add(int(p), -1)  # p is no longer the latest access
        tree.add(t, 1)
    return CacheStats(n, hits)


def approx_lru_hits(stream: np.ndarray, capacity: int, *, slack: float = 1.0) -> CacheStats:
    """Vectorised LRU approximation via time distance (see module docstring).

    Parameters
    ----------
    stream:
        1-D integer array of block ids in access order.
    capacity:
        Cache capacity in blocks.
    slack:
        A hit is counted when ``time_distance <= capacity * slack``.
        ``slack = 1`` makes the result a lower bound on true LRU hits.
    """
    capacity = check_positive("capacity", capacity)
    if slack <= 0:
        raise ValueError(f"slack must be > 0, got {slack}")
    stream = np.asarray(stream, dtype=np.int64).ravel()
    n = stream.size
    if n == 0:
        return CacheStats(0, 0)
    prev = _previous_occurrence(_compact_ids(stream))
    positions = np.arange(n, dtype=np.int64)
    time_dist = positions - prev
    hits = int(np.count_nonzero((prev >= 0) & (time_dist <= capacity * slack)))
    return CacheStats(n, hits)

