"""The §4 skip heuristics.

Row reordering is not always useful.  The paper identifies two cases and a
cheap indicator for each:

* **Already clustered** (Fig. 7a): if ASpT on the *original* matrix already
  captures more than ``dense_ratio_skip`` (10%) of the non-zeros in dense
  tiles, skip round 1 — reordering with a small candidate set may break the
  existing clusters, and LSH on near-duplicate neighbouring rows generates
  huge candidate sets (cost without benefit).
* **Remainder already local**: if the average Jaccard similarity between
  consecutive rows of the sparse remainder exceeds ``avg_sim_skip`` (0.1),
  skip round 2 for the same reason.

(The third case — a *scattered* matrix like Fig. 7b — needs no explicit
check: LSH simply produces no candidate pairs and the clustering degenerates
to the identity.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aspt.tiles import TiledMatrix
from repro.contracts import checked, invokes
from repro.similarity.jaccard import average_consecutive_similarity
from repro.sparse.csr import CSRMatrix
from repro.util.validation import check_in_range

__all__ = ["HeuristicDecision", "should_reorder_round1", "should_reorder_round2"]


@dataclass(frozen=True)
class HeuristicDecision:
    """Outcome of a skip heuristic.

    Attributes
    ----------
    reorder:
        True when the round should run.
    indicator:
        The measured indicator value (dense ratio for round 1, average
        consecutive similarity for round 2).
    threshold:
        The threshold it was compared against.
    """

    reorder: bool
    indicator: float
    threshold: float


@checked(invokes("validate_structure", "tiled"))
def should_reorder_round1(
    tiled: TiledMatrix,
    *,
    skip_above: float = 0.10,
) -> HeuristicDecision:
    """Round-1 gate: reorder unless the original dense ratio exceeds 10%.

    ``tiled`` is the ASpT split of the *original* (unreordered) matrix.
    The paper (§5.2): "for all matrices that show slowdown after
    row-reordering, the original ratios of nonzeros in the dense tiles are
    greater than 10%. So we set the threshold to 10%."
    """
    skip_above = check_in_range("skip_above", skip_above, 0.0, 1.0)
    ratio = tiled.dense_ratio
    return HeuristicDecision(reorder=ratio <= skip_above, indicator=ratio, threshold=skip_above)


def should_reorder_round2(
    sparse_part: CSRMatrix,
    *,
    skip_above: float = 0.10,
) -> HeuristicDecision:
    """Round-2 gate: reorder unless consecutive rows are already similar.

    The paper (§5.2): "we skip the second round of row-reordering if the
    average similarity is greater than 0.1."
    """
    skip_above = check_in_range("skip_above", skip_above, 0.0, 1.0)
    avg = average_consecutive_similarity(sparse_part)
    return HeuristicDecision(reorder=avg <= skip_above, indicator=avg, threshold=skip_above)
