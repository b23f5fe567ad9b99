"""Exact Jaccard similarity between sparse-matrix rows.

A row :math:`i` is viewed as the set :math:`S_i` of its column indices; the
paper defines

.. math:: J(S_i, S_j) = \\frac{|S_i \\cap S_j|}{|S_i \\cup S_j|}.

Three access patterns are needed by the rest of the library and each gets a
dedicated, fully vectorised implementation:

* a single pair (:func:`jaccard_rows`) — merge of two sorted views;
* a batch of pairs (:func:`jaccard_for_pairs`) — used on LSH candidate
  pairs; one sort of ``pair * n_cols + column`` keys over the
  concatenated supports, no Python loop over pairs;
* all consecutive pairs (:func:`consecutive_similarities`) — the §4
  "is this matrix already clustered?" indicator.

The convention for empty sets follows the natural limit: two empty rows have
similarity 0 (there is no data reuse between them either way, so treating
them as dissimilar is both safe and what the heuristics expect).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.util.validation import check_integer_array

__all__ = [
    "jaccard_rows",
    "jaccard_for_pairs",
    "consecutive_similarities",
    "average_consecutive_similarity",
    "pairwise_jaccard_dense",
]


def jaccard_rows(csr: CSRMatrix, i: int, j: int) -> float:
    """Exact Jaccard similarity between rows ``i`` and ``j``."""
    a = csr.row_cols(i)
    b = csr.row_cols(j)
    if a.size == 0 and b.size == 0:
        return 0.0
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return inter / union


#: Above this, ``pair * n_cols + column`` keys could overflow int64, so
#: :func:`_intersection_sizes` sorts (pair, column) with a lexsort instead.
_KEY_LIMIT = 2**62


def _intersection_sizes(csr: CSRMatrix, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Vectorised ``|S_left[k] ∩ S_right[k]|`` for parallel index arrays.

    Strategy: tag every column index of every involved row with its pair
    id ``k`` as one key ``k * n_cols + column``, concatenate both sides,
    sort the keys and count adjacent equal keys per pair.  Because rows
    are canonical (no duplicate columns within a row), an adjacent
    duplicate can only arise from one column present on *both* sides of a
    pair.  Where the keys could overflow (``E * n_cols >= 2**62``) the
    (pair, column) tags are lexsorted instead, which counts the same.
    """
    n_pairs = left.size
    lengths = csr.row_lengths()
    rows = np.concatenate([left, right])
    counts = lengths[rows]
    total = int(counts.sum())
    if total == 0:
        return np.zeros(n_pairs, dtype=np.int64)

    # Gather the supports of the left rows then the right rows: entry t of
    # the gathered run of rows[s] sits at colidx[rowptr[rows[s]] + t].
    ends = np.cumsum(counts)
    shift = np.repeat(csr.rowptr[rows] - (ends - counts), counts)
    cols = csr.colidx[shift + np.arange(total, dtype=np.int64)]
    pair_ids = np.tile(np.arange(n_pairs, dtype=np.int64), 2)
    n_cols = csr.n_cols
    if n_pairs * n_cols < _KEY_LIMIT:
        keys = np.repeat(pair_ids * n_cols, counts)
        keys += cols
        keys.sort()
        dup = keys[1:] == keys[:-1]
        return np.bincount(keys[1:][dup] // n_cols, minlength=n_pairs)

    pairs = np.repeat(pair_ids, counts)
    order = np.lexsort((cols, pairs))
    p = pairs[order]
    c = cols[order]
    dup = (p[1:] == p[:-1]) & (c[1:] == c[:-1])
    return np.bincount(p[1:][dup], minlength=n_pairs)


def jaccard_for_pairs(csr: CSRMatrix, pairs: np.ndarray) -> np.ndarray:
    """Exact Jaccard similarity for each row pair in ``pairs``.

    Parameters
    ----------
    csr:
        The sparse matrix whose rows are compared.
    pairs:
        Integer array of shape ``(E, 2)``.

    Returns
    -------
    numpy.ndarray
        ``float64`` array of length ``E``.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.ndim != 2 or (pairs.size and pairs.shape[1] != 2):
        raise ValueError(f"pairs must have shape (E, 2), got {pairs.shape}")
    if pairs.size == 0:
        return np.zeros(0, dtype=np.float64)
    left = check_integer_array("pairs[:,0]", pairs[:, 0], min_value=0, max_value=csr.n_rows - 1)
    right = check_integer_array("pairs[:,1]", pairs[:, 1], min_value=0, max_value=csr.n_rows - 1)
    inter = _intersection_sizes(csr, left, right)
    lengths = csr.row_lengths()
    union = lengths[left] + lengths[right] - inter
    out = np.zeros(pairs.shape[0], dtype=np.float64)
    nonzero = union > 0
    out[nonzero] = inter[nonzero] / union[nonzero]
    return out


def consecutive_similarities(csr: CSRMatrix) -> np.ndarray:
    """Jaccard similarity of each pair of consecutive rows.

    Returns an array of length ``n_rows - 1`` (empty for matrices with fewer
    than two rows).
    """
    n = csr.n_rows
    if n < 2:
        return np.zeros(0, dtype=np.float64)
    idx = np.arange(n - 1, dtype=np.int64)
    pairs = np.stack([idx, idx + 1], axis=1)
    return jaccard_for_pairs(csr, pairs)


def average_consecutive_similarity(csr: CSRMatrix) -> float:
    """The §4 clustering indicator: mean Jaccard over consecutive row pairs.

    The paper skips the second reordering round when this exceeds 0.1
    (the rows are already well clustered).  Returns 0.0 for matrices with
    fewer than two rows.
    """
    sims = consecutive_similarities(csr)
    return float(sims.mean()) if sims.size else 0.0


def pairwise_jaccard_dense(csr: CSRMatrix) -> np.ndarray:
    """Full ``n_rows x n_rows`` Jaccard matrix.

    Quadratic in both time and memory — this exists for tests, for tiny
    matrices, and as the brute-force oracle against which LSH recall is
    measured.  The diagonal is 1 for non-empty rows and 0 for empty ones.
    """
    n = csr.n_rows
    # Structural pattern from the *stored* entries (explicit zeros are
    # stored entries and count towards the support, consistently with
    # :func:`jaccard_rows`).
    pattern = np.zeros(csr.shape, dtype=np.float64)
    if csr.nnz:
        pattern[csr.row_ids(), csr.colidx] = 1.0
    inter = pattern @ pattern.T
    sizes = pattern.sum(axis=1)
    union = sizes[:, None] + sizes[None, :] - inter
    out = np.zeros((n, n), dtype=np.float64)
    nz = union > 0
    out[nz] = inter[nz] / union[nz]
    return out
