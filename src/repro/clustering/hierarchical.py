"""Hierarchical clustering of rows over LSH candidate pairs — paper Alg. 3.

The algorithm maintains a union–find forest whose roots are the
*representing rows* of the clusters, and a max-heap of candidate pairs keyed
by exact similarity (ties broken by ``(i, j)`` ascending):

1. Pop the most similar pair ``(i, j)``.
2. If both are representing rows, merge the smaller cluster into the larger
   (ties keep the smaller row index as representative).  A cluster whose
   size reaches ``threshold_size`` is *retired* (the paper's ``deleted``
   flag): its rows will be emitted but it takes no further merges —
   bounding cluster size to roughly the ASpT row-panel working set.
3. Otherwise chase both ids to their representatives (with the path
   halving of lines 7–10) and, if they belong to different live clusters
   and the pair is new, score the representatives' similarity right away
   and push it back onto the heap (line 28).
4. Stop when the heap is empty or no live cluster remains; emit rows
   cluster-by-cluster (clusters ordered by their smallest original row id,
   rows ascending within a cluster), matching the paper's Fig. 6 example
   which returns ``[0, 2, 4, 1, 3, 5]``.

One deliberate deviation from the pseudocode: Alg. 3 never updates
``cluster_sz`` after a merge, which would make the size threshold dead code
and the "merge smaller into larger" rule meaningless.  The accompanying
complexity analysis assumes maintained sizes, so the loop keeps
``size[root]`` current on every merge.

Complexity (paper §3.2): ``O(E log N + (N + E) log E + N)`` for ``N`` rows
and ``E`` candidate pairs — near ``O(N log N)`` when ``E = O(N)``.

Implementation notes.  The initial candidates arrive pre-scored from one
vectorised :func:`~repro.similarity.similarity_for_pairs` pass
(:meth:`repro.similarity.LSHIndex.candidate_pairs`); they are static, so
they are sorted once by the heap key and consumed as a stream, and only
requeued pairs live on a real heap, merged with the stream by key.  A
requeued pair is scored eagerly from the two rows' column supports
(frozensets, built once per representative) by :func:`_scalar_score`,
which computes the same correctly-rounded IEEE value as
:func:`similarity_for_pairs`.  The epilogue (lines 30–34) runs in
whole-array passes: pointer-jump the parent array to its roots, take
each cluster's smallest row from :func:`numpy.unique`, and one stable
sort on it emits the order.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import sqrt

import numpy as np

from repro.errors import ValidationError
from repro.observability.metrics import METRICS
from repro.resilience.faults import fault_point
from repro.similarity.measures import similarity_for_pairs
from repro.sparse.csr import CSRMatrix
from repro.util.validation import check_positive

__all__ = ["ClusteringResult", "cluster_rows"]


def _scalar_score(measure: str, inter: int, la: int, lb: int) -> float:
    """Scalar similarity, bitwise-equal to :func:`similarity_for_pairs`.

    All operands are exact small integers, so the float64 conversions,
    products and divisions below are the same correctly-rounded IEEE
    operations the vectorised path performs.
    """
    if measure == "jaccard":
        denom = la + lb - inter
        return inter / denom if denom else 0.0
    if measure == "cosine":
        # Match the vectorised path exactly: float64 product, then sqrt.
        denom = sqrt(float(la) * float(lb))
        return inter / denom if denom else 0.0
    if measure == "overlap":
        denom = la if la <= lb else lb
        return inter / denom if denom else 0.0
    # dice
    denom = la + lb
    return (2.0 * inter) / denom if denom else 0.0


@dataclass(frozen=True)
class ClusteringResult:
    """Outcome of one clustering pass.

    Attributes
    ----------
    order:
        Row permutation (new position -> original row id).
    cluster_of:
        For each original row, the representative row of its final cluster.
    n_clusters:
        Number of final clusters (singletons included).
    n_merges:
        Merges performed (``n_rows - n_clusters``).
    n_retired:
        Clusters retired by the ``threshold_size`` rule.
    n_requeued:
        Pairs re-inserted after representative chasing (Alg. 3 line 28).
    """

    order: np.ndarray
    cluster_of: np.ndarray
    n_clusters: int
    n_merges: int
    n_retired: int
    n_requeued: int


def cluster_rows(
    csr: CSRMatrix,
    pairs: np.ndarray,
    sims: np.ndarray,
    *,
    threshold_size: int = 256,
    measure: str = "jaccard",
    deadline=None,
) -> ClusteringResult:
    """Run Alg. 3's clustering loop on precomputed candidate pairs.

    Parameters
    ----------
    csr:
        The matrix whose rows are clustered (needed to score re-queued
        representative pairs with exact Jaccard).
    pairs:
        ``(E, 2)`` int64 candidate pairs (from :class:`repro.similarity.LSHIndex`),
        every index in ``[0, csr.n_rows)``.
    sims:
        Exact Jaccard similarity of each candidate pair.
    threshold_size:
        Retire clusters when they reach this size (paper default 256).
    measure:
        Similarity used to re-score re-queued representative pairs
        (``"jaccard"`` per the paper; see :data:`repro.similarity.MEASURES`).
    deadline:
        Optional :class:`repro.resilience.Deadline`; the merge loop polls
        it every 4096 iterations and aborts with
        :class:`repro.errors.TimeoutExceeded` when the budget is spent
        (cooperative cancellation — no partial state escapes, the caller
        simply drops the run).

    Returns
    -------
    ClusteringResult
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    sims = np.asarray(sims, dtype=np.float64)
    if pairs.ndim != 2 or (pairs.size and pairs.shape[1] != 2):
        raise ValidationError(f"pairs must have shape (E, 2), got {pairs.shape}")
    if sims.size != pairs.shape[0]:
        raise ValidationError("pairs and sims must have equal length")
    n = csr.n_rows
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ValidationError(f"pair indices must lie in [0, {n})")
    threshold_size = check_positive("threshold_size", threshold_size)
    fault_point("clustering.cluster")
    if measure not in ("jaccard", "cosine", "overlap", "dice"):
        # Fail before the loop with the standard message.
        similarity_for_pairs(csr, np.empty((0, 2), dtype=np.int64), measure)

    parent = list(range(n))
    size = [1] * n
    deleted = bytearray(n)
    live_clusters = n

    # The initial candidates are static, so instead of a heap they are
    # sorted once (ascending ``(-sim, i, j)`` — the exact heap key) and
    # consumed as a stream.  Only *requeued* pairs, which arrive while the
    # loop runs, need a real heap — and there are few of them (Alg. 3
    # requeues once per survived representative collision), so its pops
    # stay cheap.  A requeued key never equals a stream key (the seen-set
    # holds every stream pair), hence the min-merge of stream and requeue
    # heap pops in exactly the order one big heap would.
    order0 = np.lexsort((pairs[:, 1], pairs[:, 0], -sims))
    stream_s = (-sims)[order0].tolist()
    stream_i = pairs[order0, 0].tolist()
    stream_j = pairs[order0, 1].tolist()
    spos, send = 0, len(stream_s)
    rq: list[tuple[float, int, int]] = []  # heap of requeued (-sim, i, j)
    # Seen-pair set for the Alg. 3 line-27 dedup.  Keys encode (lo, hi).
    seen: set[int] = set()
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    seen.update((lo * np.int64(n) + hi).tolist())

    # Column supports of requeued representatives, built on first use.
    lens = csr.row_lengths().tolist()
    colidx = csr.colidx
    rowptr = csr.rowptr
    row_sets: dict[int, frozenset] = {}

    n_merges = 0
    n_retired = 0
    n_requeued = 0
    iters = 0

    while live_clusters > 0 and (spos < send or rq):
        # Poll the deadline between complete merge steps, amortised so the
        # common deadline-free path pays one compare per iteration.
        iters += 1
        if deadline is not None and not iters & 4095:
            deadline.check("cluster")
        # Pop the smaller of (stream head, requeue-heap top) — with all
        # keys distinct this merges into the single-heap pop sequence.
        if spos < send and (
            not rq or rq[0] >= (stream_s[spos], stream_i[spos], stream_j[spos])
        ):
            i = stream_i[spos]
            j = stream_j[spos]
            spos += 1
        else:
            _, i, j = heappop(rq)
        if parent[i] == i and parent[j] == j:
            if deleted[i] or deleted[j] or i == j:
                continue
            # Merge the smaller cluster into the larger; on ties keep the
            # smaller row index as representative.
            si, sj = size[i], size[j]
            if si < sj or (si == sj and j < i):
                child, root = i, j
            else:
                child, root = j, i
            parent[child] = root
            new_size = si + sj
            size[root] = new_size
            live_clusters -= 1
            n_merges += 1
            if new_size >= threshold_size:
                deleted[root] = 1
                n_retired += 1
                live_clusters -= 1
        else:
            # Path-halving root chase (Alg. 3 lines 7-10).
            ri = i
            while parent[ri] != ri:
                parent[ri] = parent[parent[ri]]
                ri = parent[ri]
            rj = j
            while parent[rj] != rj:
                parent[rj] = parent[parent[rj]]
                rj = parent[rj]
            if deleted[ri] or deleted[rj] or ri == rj:
                continue
            a, b = (ri, rj) if ri < rj else (rj, ri)
            key = a * n + b
            if key not in seen:
                seen.add(key)
                sa = row_sets.get(a)
                if sa is None:
                    sa = frozenset(colidx[rowptr[a] : rowptr[a + 1]].tolist())
                    row_sets[a] = sa
                sb = row_sets.get(b)
                if sb is None:
                    sb = frozenset(colidx[rowptr[b] : rowptr[b + 1]].tolist())
                    row_sets[b] = sb
                s = _scalar_score(measure, len(sa & sb), lens[a], lens[b])
                heappush(rq, (-s, a, b))
                n_requeued += 1

    # One registry update per call (not per merge) keeps the loop lock-free.
    METRICS.counter(
        "clustering.pairs_scored", "similarity evaluations during clustering"
    ).inc(n_requeued)
    METRICS.counter(
        "clustering.heap_requeues", "requeued representative pairs (Alg. 3 line 28)"
    ).inc(n_requeued)

    # Epilogue (lines 30-34) in whole-array passes.  Pointer jumping ends at
    # the roots; ``first`` is each cluster's smallest row, so a stable sort
    # on it emits clusters by smallest row with rows ascending inside each.
    roots = np.array(parent, dtype=np.int64)
    while True:
        up = roots[roots]
        if np.array_equal(up, roots):
            break
        roots = up
    _, first, inverse = np.unique(roots, return_index=True, return_inverse=True)
    order = np.argsort(first[inverse], kind="stable").astype(np.int64, copy=False)
    return ClusteringResult(
        order=order,
        cluster_of=roots,
        n_clusters=int(first.size),
        n_merges=n_merges,
        n_retired=n_retired,
        n_requeued=n_requeued,
    )
