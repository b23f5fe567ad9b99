"""Hierarchical clustering of rows for reordering (paper Alg. 3).

:func:`cluster_rows` runs the whole algorithm — the merge loop over
candidate pairs and the epilogue that turns the finished forest into a row
permutation — and returns a :class:`ClusteringResult`.
"""

from repro.clustering.hierarchical import ClusteringResult, cluster_rows

__all__ = ["ClusteringResult", "cluster_rows"]
