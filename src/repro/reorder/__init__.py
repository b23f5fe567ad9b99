"""The paper's core contribution: LSH-clustered row reordering for SpMM/SDDMM.

:func:`repro.reorder.build_plan` runs the Fig. 5 workflow — round-1 row
reordering of the whole matrix, ASpT tiling, round-2 reordering of the
sparse remainder — gated by the §4 skip heuristics, and returns an
:class:`repro.reorder.ExecutionPlan` that can multiply in *original*
coordinates (the reordering is an internal detail, exactly as the paper
argues: row reordering never touches the dense operand's indexing).

:func:`repro.reorder.autotune` implements the paper's §4 trial-and-error
strategy: build the reordered plan, compare its modelled cost against the
non-reordered one, keep the winner.
"""

from repro.reorder.heuristics import (
    HeuristicDecision,
    should_reorder_round1,
    should_reorder_round2,
)
from repro.reorder.pipeline import (
    ExecutionPlan,
    PlanStats,
    ReorderConfig,
    attach_backend,
    build_plan,
)
from repro.reorder.autotune import AutotuneResult, autotune

__all__ = [
    "HeuristicDecision",
    "should_reorder_round1",
    "should_reorder_round2",
    "ExecutionPlan",
    "PlanStats",
    "ReorderConfig",
    "build_plan",
    "attach_backend",
    "AutotuneResult",
    "autotune",
]
