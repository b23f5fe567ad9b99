"""Streaming updates: the plan for ``plan.original`` + a delta.

:func:`apply_delta` is the streaming counterpart of
:func:`repro.reorder.build_plan`, and it keeps one rule.  Every decision
of a build (MinHash reads column supports, every similarity measure is a
set overlap, tiling counts non-zeros, and both §4 gates read the
pattern) is a function of the sparsity pattern alone, so:

* a delta that leaves the pattern unchanged (every ``mode="set"`` delta,
  and an ``add`` that lands on existing entries only) keeps the old
  plan's decisions and re-tiles the new values (``mode="patched"``);
* any other delta, and any delta to a degraded plan, is a fresh
  :func:`~repro.reorder.build_plan` of the mutated matrix
  (``mode="replanned"``).  Patching a structural delta was measured to
  cost about what the rebuild costs, so there is no incremental path.

Equivalence contract (asserted by ``tests/property``): the returned plan
is **decision-identical** to a from-scratch build on the mutated matrix —
same ``row_order``, same tiling, same ``remainder_order``, same stats —
and therefore its multiplies are bitwise-equal to the fresh plan's.

Round 2 stays pending as a plain ``build_plan`` leaves it.  A successor
carries the old plan's round 2 over (:meth:`_Round2Memo.successor` in
:mod:`repro.reorder.pipeline`): reused when it has run, pending when it
has not.

Torn-plan safety: all work happens on locals; the input plan and matrix
are never mutated.  A fault injected at the ``streaming.update`` site,
which every update passes, propagates and leaves the old plan fully
intact.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

import numpy as np

from repro.aspt.tiles import tile_matrix
from repro.observability.metrics import METRICS
from repro.observability.tracing import span
from repro.reorder.pipeline import ExecutionPlan, ReorderConfig, build_plan
from repro.resilience.faults import fault_point
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import permute_csr_rows
from repro.streaming.delta import DeltaBatch
from repro.util.timing import timed

__all__ = ["UpdateReport", "PlanUpdate", "apply_delta", "StreamingPlan"]


@dataclass(frozen=True)
class UpdateReport:
    """What one :func:`apply_delta` call did and why.

    ``mode`` is ``"patched"`` (a same-pattern successor of the old plan)
    or ``"replanned"`` (a full :func:`~repro.reorder.build_plan`);
    ``reason`` explains a replan in one sentence and is ``None`` for a
    patch.
    """

    mode: str
    reason: str | None
    n_dirty_rows: int
    n_new_rows: int
    dirty_fraction: float
    seconds: dict = field(default_factory=dict, repr=False)
    timestamp: float = 0.0

    @property
    def patched(self) -> bool:
        """True when the update kept the old plan's decisions."""
        return self.mode == "patched"


@dataclass(frozen=True)
class PlanUpdate:
    """Result bundle of :func:`apply_delta`.

    Attributes
    ----------
    plan:
        The plan for the mutated matrix (``plan.original`` *is* the
        mutated matrix; ``plan.revision`` is the input revision + 1).
    report:
        The :class:`UpdateReport` describing what happened.
    """

    plan: ExecutionPlan
    report: UpdateReport

    @property
    def matrix(self) -> CSRMatrix:
        """The mutated matrix the new plan serves."""
        return self.plan.original


def _pattern_unchanged(csr_new, csr_old) -> bool:
    """True when the delta touched values only (identical sparsity pattern)."""
    return (
        csr_new.shape == csr_old.shape
        and csr_new.nnz == csr_old.nnz
        and np.array_equal(csr_new.rowptr, csr_old.rowptr)
        and np.array_equal(csr_new.colidx, csr_old.colidx)
    )


def _successor(plan, csr_new, config, times):
    """``plan``'s decisions over ``csr_new``, which has its pattern.

    The row order is kept, so only the new values are permuted (when the
    order moves any row) and tiled; the round-1 fields and round 2 come
    from the old plan's memo.
    """
    with span("streaming.tile"), timed(times, "tile"):
        order = plan.row_order
        # Round 1 off leaves the identity order, and an identity
        # permutation would only copy the matrix.
        identity = np.array_equal(order, np.arange(order.size))
        reordered = csr_new if identity else permute_csr_rows(csr_new, order)
        tiled = tile_matrix(
            reordered, config.panel_height, config.dense_threshold,
            max_dense_cols=config.max_dense_cols,
        )
    with span("streaming.round2"), timed(times, "round2"):
        memo = plan._round2.successor(tiled)
    return replace(
        plan, original=csr_new, tiled=tiled, _round2=memo,
        preprocess_seconds=times, provenance=(), revision=plan.revision + 1,
    )


def apply_delta(
    plan: ExecutionPlan,
    delta: DeltaBatch,
    config: ReorderConfig | None = None,
) -> PlanUpdate:
    """Produce the plan for ``plan.original`` + ``delta`` (see module docs).

    Parameters
    ----------
    plan:
        The current plan.  ``config`` must be the config it was built
        with — a same-pattern successor keeps the plan's decisions under
        that assumption.
    delta:
        The batch of mutations to absorb.

    Returns
    -------
    PlanUpdate
    """
    config = config or ReorderConfig()
    times: dict[str, float] = {}
    with span(
        "streaming.apply_delta",
        rows=plan.original.n_rows,
        entries=delta.n_entries,
        new_rows=delta.new_rows,
    ), timed(times, "total"):
        m_old = plan.original.n_rows
        with timed(times, "delta_apply"):
            csr_new = delta.apply_to(plan.original)
        dirty = delta.dirty_existing_rows(m_old)
        n_new = delta.new_rows
        dirty_fraction = (dirty.size + n_new) / max(1, csr_new.n_rows)

        if plan.degraded:
            reason = "old plan is degraded; replanning to recover the full rung"
        elif not _pattern_unchanged(csr_new, plan.original):
            reason = "sparsity pattern changed"
        else:
            reason = None
        fault_point("streaming.update")
        if reason is None:
            mode = "patched"
            plan_new = _successor(plan, csr_new, config, times)
        else:
            mode = "replanned"
            with span("streaming.replan"), timed(times, "replan"):
                plan_new = build_plan(csr_new, config)
                plan_new = replace(plan_new, revision=plan.revision + 1)

    if mode == "patched":
        METRICS.counter(
            "streaming.updates_patched",
            "streaming updates that kept the old plan's decisions",
        ).inc()
    else:
        METRICS.counter(
            "streaming.updates_replanned",
            "streaming updates that ran a full build",
        ).inc()
    METRICS.counter(
        "streaming.rows_dirty", "pre-existing rows dirtied by applied deltas"
    ).inc(int(dirty.size))
    report = UpdateReport(
        mode=mode,
        reason=reason,
        n_dirty_rows=int(dirty.size),
        n_new_rows=n_new,
        dirty_fraction=float(dirty_fraction),
        # A copy: a successor's preprocess_seconds is ``times``, and a
        # deferred round 2 adds to it when it runs after this update.
        seconds=dict(times),
        timestamp=delta.timestamp,
    )
    return PlanUpdate(plan=plan_new, report=report)


class StreamingPlan:
    """A plan that follows its matrix through a stream of deltas.

    Owns the current plan (and through it the matrix) and swaps it
    *atomically* under a lock at the end of each successful update — a
    reader (or a failed update) always observes a complete, consistent
    plan, never a torn one.

    Parameters mirror :func:`apply_delta`; the initial plan is a plain
    :func:`repro.reorder.build_plan`.
    """

    def __init__(self, csr: CSRMatrix, config: ReorderConfig | None = None) -> None:
        self.config = config or ReorderConfig()
        self._lock = threading.Lock()
        self._plan = build_plan(csr, self.config)
        self.reports: list[UpdateReport] = []

    @property
    def plan(self) -> ExecutionPlan:
        """The current plan (atomic snapshot)."""
        with self._lock:
            return self._plan

    @property
    def matrix(self) -> CSRMatrix:
        """The current matrix (the plan's ``original``)."""
        return self.plan.original

    @property
    def revision(self) -> int:
        """Revision counter of the current plan (0 = never updated)."""
        return self.plan.revision

    def apply(self, delta: DeltaBatch) -> UpdateReport:
        """Absorb one delta; returns its :class:`UpdateReport`.

        Updates are serialised; a failed update (an injected
        ``streaming.update`` fault, say) propagates and leaves the
        previous plan installed and fully usable.
        """
        with self._lock:
            update = apply_delta(self._plan, delta, self.config)
            # Commit point: nothing above mutated self.
            self._plan = update.plan
            self.reports.append(update.report)
            return update.report
