"""Name-based generator registry (CLI support): ``repro generators``
lists it."""

from __future__ import annotations

from typing import Callable

from repro.datasets.clustered import hidden_clusters, preclustered
from repro.datasets.graphs import bipartite_ratings, rmat, small_world, stochastic_block_model
from repro.datasets.synthetic import (
    banded,
    block_diagonal,
    diagonal,
    power_law_rows,
    staircase,
    uniform_random,
)

__all__ = ["GENERATORS", "list_generators"]

#: Public registry: name -> generator callable.
GENERATORS: dict[str, Callable] = {
    "uniform_random": uniform_random,
    "banded": banded,
    "diagonal": diagonal,
    "block_diagonal": block_diagonal,
    "power_law_rows": power_law_rows,
    "staircase": staircase,
    "hidden_clusters": hidden_clusters,
    "preclustered": preclustered,
    "rmat": rmat,
    "small_world": small_world,
    "stochastic_block_model": stochastic_block_model,
    "bipartite_ratings": bipartite_ratings,
}


def list_generators() -> list[str]:
    """Sorted generator names."""
    return sorted(GENERATORS)
