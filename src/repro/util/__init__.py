"""Shared low-level helpers used across the library.

The utilities here are deliberately tiny and dependency-free (NumPy only):
argument validation (:mod:`repro.util.validation`), deterministic RNG
handling (:mod:`repro.util.rng`), wall-clock timing (:mod:`repro.util.timing`),
lightweight logging (:mod:`repro.util.log`), vectorised array primitives
(:mod:`repro.util.arrayops`) and the reusable scratch-buffer pool behind
kernel sessions (:mod:`repro.util.workspace`).
"""

from repro.util.arrayops import (
    counts_to_offsets,
    gather_ranges,
    lengths_from_offsets,
    offsets_to_row_ids,
    rank_of_permutation,
    segment_sum,
)
from repro.util.hashing import digest_arrays, stable_digest
from repro.util.rng import as_generator, spawn_generators
from repro.util.timing import Timer, timed
from repro.util.workspace import Workspace, WorkspacePool
from repro.util.validation import (
    check_dense,
    check_in_range,
    check_integer_array,
    check_nonnegative,
    check_permutation,
    check_positive,
)

__all__ = [
    "counts_to_offsets",
    "gather_ranges",
    "lengths_from_offsets",
    "offsets_to_row_ids",
    "rank_of_permutation",
    "segment_sum",
    "digest_arrays",
    "stable_digest",
    "as_generator",
    "spawn_generators",
    "Timer",
    "timed",
    "Workspace",
    "WorkspacePool",
    "check_dense",
    "check_in_range",
    "check_integer_array",
    "check_nonnegative",
    "check_permutation",
    "check_positive",
]
