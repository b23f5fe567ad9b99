"""Row-similarity substrate: exact Jaccard and MinHash/LSH.

The paper (§3.2) defines row similarity as the Jaccard similarity of the
rows' column-index sets and uses MinHash + banded locality-sensitive hashing
to generate candidate pairs without computing all :math:`N^2` similarities.
This package implements both the exact measures (:mod:`repro.similarity.jaccard`)
and the approximate machinery (:mod:`repro.similarity.minhash`,
:mod:`repro.similarity.lsh`).
"""

from repro.similarity.jaccard import (
    average_consecutive_similarity,
    consecutive_similarities,
    jaccard_rows,
    pairwise_jaccard_dense,
)
from repro.similarity.measures import MEASURES, similarity_for_pairs
from repro.similarity.minhash import minhash_signatures
from repro.similarity.lsh import LSHIndex, lsh_candidate_pairs

__all__ = [
    "average_consecutive_similarity",
    "consecutive_similarities",
    "jaccard_rows",
    "pairwise_jaccard_dense",
    "MEASURES",
    "similarity_for_pairs",
    "minhash_signatures",
    "LSHIndex",
    "lsh_candidate_pairs",
]
