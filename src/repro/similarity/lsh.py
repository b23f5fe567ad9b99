"""Banded locality-sensitive hashing over MinHash signatures.

The signature matrix is split into ``siglen / bsize`` bands of ``bsize``
rows each (the paper's ``bsize``; they use 2).  Rows whose signatures agree
on *all* positions of at least one band land in the same bucket of that band
and become a candidate pair.  With band size :math:`b` the probability that
two rows of Jaccard similarity :math:`s` become candidates in one band is
:math:`s^b`, so smaller ``bsize`` admits less-similar pairs — exactly the
paper's description ("the smaller the bsize, the more likely two nodes will
be hashed into the same bucket").

The expensive part — grouping equal band-slices — is vectorised: each band
slice is compressed to one ``int64`` key with a random linear hash, then
one ``argsort`` of the ``(nbands, rows)`` key matrix along its rows groups
equal keys in every band at once, and one batched expansion turns all
bands' buckets into pairs.  Linear-hash collisions can produce
false-positive candidates; that is harmless because every candidate pair is
re-scored with the *exact* similarity measure before clustering.

Buckets larger than ``bucket_cap`` are not expanded quadratically (a single
degenerate bucket — e.g. all empty rows — would otherwise produce millions
of pairs); instead each member is paired with the next ``bucket_cap``
members in bucket order, which keeps the candidate graph connected inside
the bucket while bounding the pair count.  Bucket order is ascending row
index, the order a stable sort of the keys gives.  ``bucket_cap=None``
disables the cap for exact-recall experiments.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.observability.metrics import METRICS
from repro.observability.tracing import span
from repro.similarity.minhash import EMPTY_ROW_SENTINEL, minhash_signatures
from repro.sparse.csr import CSRMatrix
from repro.util.rng import as_generator
from repro.util.validation import check_positive

__all__ = [
    "lsh_candidate_pairs",
    "LSHIndex",
    "band_mixers",
    "band_keys_matrix",
    "pairs_from_band_keys",
]


def band_mixers(siglen: int, bsize: int, seed=None) -> np.ndarray:
    """The ``(nbands, bsize)`` band-compression mix vectors for ``seed``.

    Drawn in exactly the per-band order :func:`lsh_candidate_pairs` draws
    them, so keys computed from these mixers are identical to the keys of
    a from-scratch banding pass — the contract the incremental
    :mod:`repro.streaming` state relies on.
    """
    bsize = check_positive("bsize", bsize)
    if siglen % bsize != 0:
        raise ValidationError(f"bsize={bsize} must divide siglen={siglen}")
    rng = as_generator(seed)
    # One draw, row-major.  A bounded int64 draw this wide takes one
    # generator output per accepted value and buffers nothing, so this
    # equals the historical one-draw-per-band loop value for value (and
    # every bucket key of a previously built plan stays the same).
    return rng.integers(1, 2**61, size=(siglen // bsize, bsize), dtype=np.int64)


def band_keys_matrix(signatures: np.ndarray, mixers: np.ndarray) -> np.ndarray:
    """Per-band bucket keys for every signature row.

    Returns an ``(n_rows, nbands)`` int64 matrix whose column ``b`` holds
    the band-``b`` bucket key of each row — two rows share an LSH bucket
    in band ``b`` exactly when their keys agree (modulo the harmless
    linear-hash collisions noted in the module docstring).  Row ``i``'s
    keys depend only on ``signatures[i]``, which is what makes dirty-row
    re-bucketing in :mod:`repro.streaming` exact.
    """
    signatures = np.asarray(signatures)
    nbands, bsize = mixers.shape
    banded = signatures.reshape(signatures.shape[0], nbands, bsize)
    # Overflowing multiply-add is fine: wrap-around keeps the map
    # deterministic, and modular int64 addition is order-independent so
    # the sum over band positions matches a per-band loop bit for bit.
    with np.errstate(over="ignore"):
        keys = banded[:, :, 0] * mixers[:, 0]
        for j in range(1, bsize):
            keys += banded[:, :, j] * mixers[:, j]
    return keys


def pairs_from_band_keys(
    keys: np.ndarray,
    rows: np.ndarray,
    n_rows: int,
    *,
    bucket_cap: int | None = 64,
    deadline=None,
) -> np.ndarray:
    """Expand an ``(m, nbands)`` band-key matrix into candidate pairs.

    ``keys[i]`` are the per-band bucket keys of ``rows[i]`` (an int64 map
    back to original row ids, after any empty-row filtering); ``n_rows``
    is the full matrix height used to canonicalise/deduplicate pairs.
    This is the exact tail of :func:`lsh_candidate_pairs` — bucketing all
    bands with one argsort, capped expansion, then global dedupe — so a
    caller that maintains ``keys`` incrementally gets the same pairs a
    from-scratch pass would produce.  ``deadline`` is polled between the
    whole-array steps.
    """
    m, nbands = keys.shape
    if m < 2 or nbands == 0:
        return np.empty((0, 2), dtype=np.int64)
    if deadline is not None:
        deadline.check("lsh")
    # Row b of the transposed matrix is band b; sorting each row groups
    # that band's equal keys.  The flat positions of band b are
    # [b*m, (b+1)*m), so a boundary forced at each band start keeps every
    # bucket inside one band, and the flat order holds local row indices.
    band_major = np.ascontiguousarray(keys.T)
    order = np.argsort(band_major, axis=1)
    sorted_keys = np.take_along_axis(band_major, order, axis=1).ravel()
    order = order.ravel()
    boundary = np.empty(sorted_keys.size, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    boundary[::m] = True
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], sorted_keys.size)
    if bucket_cap is not None:
        # A capped bucket pairs neighbours in bucket order, which must be
        # ascending row index as a stable sort leaves it.
        capped = ends - starts > bucket_cap
        for s, e in zip(starts[capped].tolist(), ends[capped].tolist()):
            order[s:e].sort()
    if deadline is not None:
        deadline.check("lsh")
    chunks = _pairs_in_buckets(order, starts, ends, bucket_cap)
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    if deadline is not None:
        deadline.check("lsh")
    pairs = np.concatenate(chunks, axis=0)
    # Map local (post-filter) indices back to original row ids and
    # canonicalise as (min, max).
    pairs = rows[pairs]
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    pair_keys = lo * np.int64(n_rows) + hi
    pair_keys.sort()
    keep = np.empty(pair_keys.size, dtype=bool)
    keep[0] = True
    np.not_equal(pair_keys[1:], pair_keys[:-1], out=keep[1:])
    uniq = pair_keys[keep]
    return np.stack([uniq // n_rows, uniq % n_rows], axis=1)


#: Cache of ``np.triu_indices(size, k=1)`` results.  Buckets are small and
#: sizes repeat constantly (profiling showed >170K triu_indices calls per
#: corpus matrix), so memoising removes the dominant preprocessing cost.
#: The cache is module-global and therefore shared by every thread of the
#: serving path: access is serialised by a lock, and the entry count is
#: bounded (distinct bucket sizes could otherwise grow without limit over
#: a long-lived process) — on overflow the oldest entries are dropped,
#: FIFO, which is plenty since real workloads cycle through a small set
#: of small sizes.
_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_TRIU_CACHE_LOCK = threading.Lock()
_TRIU_CACHE_MAX_ENTRIES = 512
_TRIU_CACHE_MAX_SIZE = 4096  # don't keep giant one-off buckets alive


def _triu(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Memoised upper-triangle index pairs for a ``size``-member bucket."""
    with _TRIU_CACHE_LOCK:
        cached = _TRIU_CACHE.get(size)
    if cached is None:
        cached = np.triu_indices(size, k=1)
        if size <= _TRIU_CACHE_MAX_SIZE:
            with _TRIU_CACHE_LOCK:
                while len(_TRIU_CACHE) >= _TRIU_CACHE_MAX_ENTRIES:
                    _TRIU_CACHE.pop(next(iter(_TRIU_CACHE)))
                _TRIU_CACHE[size] = cached
    return cached


def _pairs_in_buckets(order: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                      bucket_cap: int | None) -> list[np.ndarray]:
    """Expand sorted buckets ``order[starts[k]:ends[k]]`` into index pairs.

    Vectorised by *bucket size*: all buckets of size ``z`` (below the cap)
    are expanded in one batched gather — corpus matrices produce ~100K
    tiny buckets per band set, so per-bucket NumPy calls dominate if
    expanded one at a time (measured: ~5 s/matrix before batching).
    """
    sizes = ends - starts
    chunks: list[np.ndarray] = []

    small = sizes >= 2
    if bucket_cap is not None:
        small &= sizes <= bucket_cap
    small_sizes = sizes[small]
    small_starts = starts[small]
    for z in np.flatnonzero(np.bincount(small_sizes)).tolist():
        bucket_starts = small_starts[small_sizes == z]
        # One gather per triangle side, straight from ``order``: row k of
        # ``bucket_starts[:, None] + ii`` is bucket k's triangle.
        ii, jj = _triu(z)
        pairs = np.empty((bucket_starts.size * ii.size, 2), dtype=np.int64)
        pairs[:, 0] = order[(bucket_starts[:, None] + ii).ravel()]
        pairs[:, 1] = order[(bucket_starts[:, None] + jj).ravel()]
        chunks.append(pairs)

    if bucket_cap is not None:
        for s, e in zip(starts[sizes > bucket_cap].tolist(),
                        ends[sizes > bucket_cap].tolist()):
            members = order[s:e]
            # Sliding-window pairing: member k pairs with the next
            # `bucket_cap` members.  Produces O(size * cap) pairs.
            parts = []
            for d in range(1, bucket_cap + 1):
                parts.append(np.stack([members[:-d], members[d:]], axis=1))
            chunks.append(np.concatenate(parts, axis=0))
    return chunks


def lsh_candidate_pairs(
    signatures: np.ndarray,
    bsize: int,
    *,
    seed=None,
    bucket_cap: int | None = 64,
    skip_empty_sentinel: bool = True,
    deadline=None,
) -> np.ndarray:
    """Generate candidate row pairs from a MinHash signature matrix.

    Parameters
    ----------
    signatures:
        ``(n_rows, siglen)`` int64 signature matrix.
    bsize:
        Band size; must divide ``siglen``.
    seed:
        RNG for the band-compression hash.
    bucket_cap:
        Cap on quadratic bucket expansion (see module docstring).
    skip_empty_sentinel:
        Drop rows whose whole signature is the empty-row sentinel (they have
        no columns, hence zero similarity to everything).
    deadline:
        Optional :class:`repro.resilience.Deadline`, polled between the
        whole-array banding steps (each a complete unit of work, so
        cancellation is clean).

    Returns
    -------
    numpy.ndarray
        ``(E, 2)`` int64 array of unique pairs with ``i < j``, sorted
        lexicographically.
    """
    signatures = np.asarray(signatures)
    if signatures.ndim != 2:
        raise ValidationError(f"signatures must be 2-D, got shape {signatures.shape}")
    n_rows, siglen = signatures.shape
    bsize = check_positive("bsize", bsize)
    if siglen % bsize != 0:
        raise ValidationError(f"bsize={bsize} must divide siglen={siglen}")
    if n_rows < 2:
        return np.empty((0, 2), dtype=np.int64)

    rows = np.arange(n_rows, dtype=np.int64)
    if skip_empty_sentinel:
        nonempty = ~(signatures == EMPTY_ROW_SENTINEL).all(axis=1)
        rows = rows[nonempty]
        signatures = signatures[nonempty]
        if rows.size < 2:
            return np.empty((0, 2), dtype=np.int64)

    mixers = band_mixers(siglen, bsize, seed)
    keys = band_keys_matrix(signatures, mixers)
    return pairs_from_band_keys(
        keys, rows, n_rows, bucket_cap=bucket_cap, deadline=deadline
    )


@dataclass(frozen=True)
class LSHIndex:
    """Convenience wrapper bundling the paper's LSH parameters.

    Mirrors the black-box ``LSH(S, siglen, bsize)`` call of Alg. 3: given a
    CSR matrix, produce candidate pairs and their *exact* similarities
    (Jaccard by default), optionally filtered by a minimum similarity.

    Attributes
    ----------
    siglen:
        Signature length (paper default 128).
    bsize:
        Band size (paper default 2).
    seed:
        Seed for both MinHash and band hashing (deterministic preprocessing).
    bucket_cap:
        See :func:`lsh_candidate_pairs`.
    min_similarity:
        Candidates with exact similarity strictly below this are dropped.
        The default 0 keeps everything LSH returned (the paper filters only
        implicitly through the banding probability).
    measure:
        Scoring measure for candidate pairs (``"jaccard"`` — the paper's
        choice — or any of :data:`repro.similarity.MEASURES`).  MinHash
        banding always approximates *Jaccard* recall; alternative measures
        only re-rank the candidates it returns.
    """

    siglen: int = 128
    bsize: int = 2
    seed: int = 0
    bucket_cap: int | None = 64
    min_similarity: float = 0.0
    measure: str = "jaccard"

    def candidate_pairs(
        self, csr: CSRMatrix, *, deadline=None, backend: str | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(pairs, similarities)`` for ``csr``.

        ``pairs`` is ``(E, 2)`` int64 with ``i < j``; ``similarities`` the
        matching exact values under :attr:`measure`.  Pairs with zero
        similarity (pure LSH/banding false positives) are always dropped —
        they can never improve data reuse.  ``deadline`` is threaded into
        both the MinHash and banding passes (see
        :class:`repro.resilience.Deadline`).  ``backend`` selects the
        MinHash implementation as in :func:`minhash_signatures`: ``None``
        or ``"numpy"`` run the reference, ``"cc"`` the compiled pass, with
        the same signatures either way.
        """
        signatures = minhash_signatures(
            csr, self.siglen, seed=self.seed, deadline=deadline, backend=backend
        )
        with span("lsh", rows=csr.n_rows, bsize=self.bsize):
            pairs = lsh_candidate_pairs(
                signatures,
                self.bsize,
                seed=self.seed + 1,
                bucket_cap=self.bucket_cap,
                deadline=deadline,
            )
        if pairs.shape[0] == 0:
            return pairs, np.zeros(0, dtype=np.float64)
        from repro.similarity.measures import similarity_for_pairs

        with span("score_pairs", pairs=int(pairs.shape[0])):
            sims = similarity_for_pairs(csr, pairs, self.measure)
        METRICS.counter(
            "clustering.pairs_scored", "similarity evaluations during clustering"
        ).inc(int(pairs.shape[0]))
        threshold = max(self.min_similarity, np.finfo(np.float64).tiny)
        keep = sims >= threshold
        return pairs[keep], sims[keep]
