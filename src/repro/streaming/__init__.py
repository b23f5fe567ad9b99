"""Streaming matrices: delta batches and plan updates.

The preprocessing pipeline (MinHash -> LSH -> clustering -> tiling)
assumes a static matrix; this package makes it serve matrices that drift
under live traffic.  :class:`DeltaBatch` describes one batch of changes
(append rows, insert or overwrite non-zeros), :func:`apply_delta`
produces the plan for the mutated matrix — keeping the old plan's
decisions when the delta left the sparsity pattern unchanged, and
running a full :func:`~repro.reorder.build_plan` otherwise — and
:class:`StreamingPlan` owns the current plan with atomic swap semantics
for serving.

Either way the new plan is decision-identical to a fresh
:func:`~repro.reorder.build_plan` on the mutated matrix, so multiplies
are bitwise-equal (asserted by ``tests/property/test_streaming_properties.py``).
See ``docs/STREAMING.md`` for the delta model, the update rule and the
invalidation rules.
"""

from repro.streaming.delta import DeltaBatch, split_into_deltas
from repro.streaming.incremental import (
    PlanUpdate,
    StreamingPlan,
    UpdateReport,
    apply_delta,
)

__all__ = [
    "DeltaBatch",
    "split_into_deltas",
    "apply_delta",
    "PlanUpdate",
    "UpdateReport",
    "StreamingPlan",
]
