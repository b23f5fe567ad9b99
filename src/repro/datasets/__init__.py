"""Synthetic dataset generators and the evaluation corpus.

The paper evaluates on 1084 real matrices (SuiteSparse + Network
Repository, filtered to >= 10K rows, >= 10K columns, >= 100K non-zeros).
Without network access this package provides generators for the structure
classes those repositories contain, and :func:`repro.datasets.build_corpus`
assembles a named, seeded corpus spanning them:

* *scattered* matrices (diagonal / banded / uniform-random) where no row
  reordering can help — the paper's Fig. 7b class;
* *pre-clustered* matrices where ASpT alone already captures the reuse and
  the §4 gates must skip reordering — the Fig. 7a class;
* *hidden-cluster* matrices (clustered rows shuffled into random order) —
  the class motivating the paper;
* *power-law graphs* (R-MAT), *small-world* graphs and *bipartite
  rating-style* matrices — the typical repository population in between.

Real ``.mtx`` files can be mixed in through
:func:`repro.sparse.read_matrix_market`; the experiment runner accepts any
``(name, matrix)`` iterable.
"""

from repro.datasets.synthetic import (
    banded,
    block_diagonal,
    diagonal,
    power_law_rows,
    staircase,
    uniform_random,
)
from repro.datasets.clustered import hidden_clusters, preclustered
from repro.datasets.graphs import rmat, small_world, bipartite_ratings, stochastic_block_model
from repro.datasets.corpus import CorpusEntry, build_corpus, corpus_summary
from repro.datasets.registry import GENERATORS, list_generators
from repro.datasets.streams import MatrixStream, edge_stream, stream_corpus

__all__ = [
    "banded",
    "block_diagonal",
    "diagonal",
    "power_law_rows",
    "staircase",
    "uniform_random",
    "hidden_clusters",
    "preclustered",
    "rmat",
    "small_world",
    "bipartite_ratings",
    "stochastic_block_model",
    "CorpusEntry",
    "build_corpus",
    "corpus_summary",
    "GENERATORS",
    "list_generators",
    "MatrixStream",
    "edge_stream",
    "stream_corpus",
]
