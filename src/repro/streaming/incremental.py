"""Incremental replanning: patch an :class:`~repro.reorder.ExecutionPlan`.

:func:`apply_delta` is the streaming counterpart of
:func:`repro.reorder.build_plan`: given the current plan, a
:class:`~repro.streaming.DeltaBatch` and the plan's config, it produces
the plan for the mutated matrix — *patching* the expensive stages
(dirty-row MinHash, dirty-row re-bucketing, clustering reuse, dirty-panel
retiling) when the drift heuristics allow, and falling back to a full
:func:`~repro.reorder.build_plan` when they do not.

Equivalence contract (asserted by ``tests/property``): the returned plan
is **decision-identical** to a from-scratch build on the mutated matrix —
same ``row_order``, same tiling, same ``remainder_order``, same stats —
and therefore its multiplies are bitwise-equal to the fresh plan's.
Every patched stage either recomputes exactly what the from-scratch
pipeline computes (dirty rows only), or reuses a cached result under a
condition that provably implies the from-scratch result is unchanged
(see the stage helpers below).  The stages it does not patch (the
round-1 gate, round 2 and the plan's assembly) are the build's own code
in :mod:`repro.reorder.pipeline`.

Round 2 is deferred exactly when ``build_plan`` defers it.  With no
``cache`` and no ``resilience`` the returned plan runs the build's round
2 over the patched tiling the first time something reads it (``stats``,
``remainder``, ``remainder_order``, ``cost_view()``); with either, the
patch runs it, as the store's write-through and the policy's deadline
need it there.  A value-only delta reuses the old plan's round 2 when
that has already run.  The drift check reads only the old plan's
round-1 decision (:attr:`~repro.reorder.ExecutionPlan.round1_applied`),
so it never runs a deferred round 2.

Drift heuristics (the paper's §4 gates, re-run on the delta):

* more than ``max_dirty_fraction`` of the rows changed — the patch would
  approach full-build cost, replan;
* the round-1 gate decision flips on the mutated matrix — the pipeline
  shape changes, replan;
* the old plan is degraded (settled below the ``full`` ladder rung) —
  patching would freeze the degradation, replan to recover;
* round 1 is active but no :class:`~repro.streaming.LshState` was
  provided — nothing to patch from, replan (and return a fresh state so
  the next update can patch).

Torn-plan safety: all work happens on locals; the input plan, state and
matrix are never mutated.  A fault injected at the ``streaming.update``
site (or a deadline expiry) aborts the update with the old plan fully
intact; under a :class:`~repro.resilience.ResiliencePolicy` the patch
degrades to a laddered full replan instead, recording provenance, and
so does a failure of its round 2, which runs inside the patch under a
policy.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

import numpy as np

from repro.aspt.panels import PanelSpec
from repro.aspt.tiles import TiledMatrix, _split_by_mask, tile_matrix
from repro.clustering.hierarchical import cluster_rows
from repro.errors import TimeoutExceeded
from repro.observability.metrics import METRICS
from repro.observability.tracing import span
from repro.reorder.pipeline import (
    ExecutionPlan,
    ReorderConfig,
    _assemble_plan,
    _reorder_remainder,
    _Round2,
    _round1_gate,
    build_plan,
)
from repro.resilience.faults import fault_point
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import permute_csr_rows
from repro.streaming.delta import DeltaBatch
from repro.streaming.state import LshState
from repro.util.arrayops import rank_of_permutation
from repro.util.timing import timed

__all__ = ["UpdateReport", "PlanUpdate", "apply_delta", "StreamingPlan"]

#: Replan instead of patching when more than this fraction of rows is
#: dirty or new.  At 5% dirt (the acceptance workload) patches win by a
#: wide margin; beyond ~25% the patch converges on full-build cost while
#: adding bookkeeping, so drift past the default goes to ``build_plan``.
DEFAULT_MAX_DIRTY_FRACTION = 0.25

#: Give up on panel-local retiling when more than this fraction of panels
#: is dirty — the per-panel bookkeeping would exceed one vectorised pass.
_MAX_DIRTY_PANEL_FRACTION = 0.5


@dataclass(frozen=True)
class UpdateReport:
    """What one :func:`apply_delta` call did and why.

    ``mode`` is ``"patched"`` (incremental path) or ``"replanned"``
    (full :func:`~repro.reorder.build_plan`); ``reason`` explains a
    replan (or degradation) in one sentence and is ``None`` for a clean
    patch.  ``provenance`` mirrors the returned plan's ladder provenance
    so degraded updates are auditable from the report alone.
    """

    mode: str
    reason: str | None
    n_dirty_rows: int
    n_new_rows: int
    dirty_fraction: float
    reused_clustering: bool = False
    panels_retiled: int | None = None
    pairs_rescored: int = 0
    seconds: dict = field(default_factory=dict, repr=False)
    provenance: tuple = ()
    timestamp: float = 0.0

    @property
    def patched(self) -> bool:
        """True when the incremental path produced the plan."""
        return self.mode == "patched"


@dataclass(frozen=True)
class PlanUpdate:
    """Result bundle of :func:`apply_delta`.

    Attributes
    ----------
    plan:
        The plan for the mutated matrix (``plan.original`` *is* the
        mutated matrix; ``plan.revision`` is the input revision + 1).
    state:
        The matching :class:`~repro.streaming.LshState` for the next
        update (``None`` when round 1 is off and no state is needed).
    report:
        The :class:`UpdateReport` describing what happened.
    """

    plan: ExecutionPlan
    state: LshState | None
    report: UpdateReport

    @property
    def matrix(self) -> CSRMatrix:
        """The mutated matrix the new plan serves."""
        return self.plan.original


def _patch_decision(plan, dirty_fraction, max_dirty_fraction, state, gate1,
                    do_round1):
    """The drift heuristics: ``None`` to patch, else the replan reason."""
    if plan.degraded:
        return "old plan is degraded; replanning to recover the full rung"
    if dirty_fraction > max_dirty_fraction:
        return (
            f"dirty fraction {dirty_fraction:.3f} exceeds "
            f"max_dirty_fraction={max_dirty_fraction}"
        )
    if do_round1 != plan.round1_applied:
        return (
            f"round-1 gate flipped ({plan.round1_applied} -> {do_round1}, "
            f"indicator {gate1.indicator:.4f})"
        )
    if do_round1 and state is None:
        return "round 1 active but no incremental LSH state available"
    return None


def _pattern_unchanged(csr_new, csr_old) -> bool:
    """True when the delta touched values only (identical sparsity pattern).

    Every reordering/tiling decision in the pipeline is a function of the
    pattern alone (MinHash reads column supports, all similarity measures
    are set overlaps, tiling counts non-zeros), so a pattern-preserving
    delta lets the patch reuse clustering, the tiling mask and the
    round-2 order wholesale — the from-scratch build would reproduce each
    of them bit for bit.
    """
    return (
        csr_new.shape == csr_old.shape
        and csr_new.nnz == csr_old.nnz
        and np.array_equal(csr_new.rowptr, csr_old.rowptr)
        and np.array_equal(csr_new.colidx, csr_old.colidx)
    )


def _retile(plan, reordered, row_order, dirty, n_new, config):
    """Tile ``reordered``, recomputing only dirty panels when possible.

    Returns ``(tiled, panels_retiled)`` where ``panels_retiled`` is
    ``None`` when the full :func:`~repro.aspt.tile_matrix` ran.  The
    panel-local path is exact because the dense/sparse decision is a
    per-(panel, column) count: a panel none of whose rows changed has
    bit-identical content at (possibly) shifted offsets, so its per-entry
    dense mask and dense-column list are carried over unchanged, and the
    final split runs through the same ``_split_by_mask`` the full tiler
    uses.  Falls back to the full tiler when the row order changed, rows
    were appended, ``max_dense_cols`` is set (per-panel demotion is not
    replicated here), the matrix is degenerate, or too many panels are
    dirty.
    """
    h = config.panel_height
    old = plan.tiled

    def full():
        return tile_matrix(
            reordered, h, config.dense_threshold,
            max_dense_cols=config.max_dense_cols,
        )

    if (
        n_new
        or config.max_dense_cols is not None
        or reordered.nnz == 0
        or old.original.nnz == 0
        or reordered.n_rows == 0
        or h != old.spec.panel_height
        or config.dense_threshold != old.dense_threshold
        or not np.array_equal(row_order, plan.row_order)
    ):
        return full(), None

    spec = PanelSpec(reordered.n_rows, h)
    inverse = rank_of_permutation(row_order)
    dirty_panels = np.unique(inverse[dirty] // h) if dirty.size else dirty
    if dirty_panels.size > _MAX_DIRTY_PANEL_FRACTION * spec.n_panels:
        return full(), None

    is_dirty_panel = np.zeros(spec.n_panels, dtype=bool)
    is_dirty_panel[dirty_panels] = True

    # Per-entry dense mask of the *old* reordered matrix, recovered from
    # the dense part (both key streams are strictly increasing).
    stride = np.int64(reordered.n_cols + 1)
    old_keys = old.original.row_ids() * stride + old.original.colidx
    dense_keys = old.dense_part.row_ids() * stride + old.dense_part.colidx
    old_mask = np.zeros(old.original.nnz, dtype=bool)
    old_mask[np.searchsorted(old_keys, dense_keys)] = True

    # Recompute the per-(panel, column) counts of dirty panels only.
    row_ids = reordered.row_ids()
    panel_ids = row_ids // h
    mask = np.empty(reordered.nnz, dtype=bool)
    in_dirty = is_dirty_panel[panel_ids]
    if in_dirty.any():
        key = panel_ids[in_dirty] * np.int64(reordered.n_cols) + reordered.colidx[
            in_dirty
        ]
        uniq, inv, counts = np.unique(key, return_inverse=True, return_counts=True)
        dense_key_mask = counts >= config.dense_threshold
        mask[in_dirty] = dense_key_mask[inv]
    else:
        uniq = np.empty(0, dtype=np.int64)
        dense_key_mask = np.empty(0, dtype=bool)

    # Clean panels: copy the old mask slice (content-identical rows, the
    # offsets may have shifted when dirty panels changed their nnz).
    panel_dense_cols = list(old.panel_dense_cols)
    uniq_panels = uniq // reordered.n_cols
    for p in range(spec.n_panels):
        lo = p * h
        hi = min(lo + h, reordered.n_rows)
        new_s, new_e = reordered.rowptr[lo], reordered.rowptr[hi]
        if not is_dirty_panel[p]:
            old_s, old_e = old.original.rowptr[lo], old.original.rowptr[hi]
            mask[new_s:new_e] = old_mask[old_s:old_e]
        else:
            in_p = dense_key_mask & (uniq_panels == p)
            panel_dense_cols[p] = (uniq[in_p] % reordered.n_cols).astype(np.int64)

    tiled = TiledMatrix(
        original=reordered,
        dense_part=_split_by_mask(reordered, mask),
        sparse_part=_split_by_mask(reordered, ~mask),
        spec=spec,
        dense_threshold=config.dense_threshold,
        panel_dense_cols=panel_dense_cols,
    )
    METRICS.counter(
        "streaming.panels_retiled", "panels recomputed by panel-local retiling"
    ).inc(int(dirty_panels.size))
    return tiled, int(dirty_panels.size)


def _patch(plan, csr_new, dirty, n_new, state, config, times, deadline,
           gate1, do_round1, eager_round2):
    """The incremental pipeline: patch the LSH state, clustering, tiling
    and a value-only round 2 where provably exact; everything else runs
    through the build's own round 2 and plan assembly.

    Round 2 runs here only when ``eager_round2`` (a patch under a cache or
    a policy); otherwise the returned plan runs it on first read, as a
    plain build's does.
    """
    pattern_unchanged = _pattern_unchanged(csr_new, plan.original)
    n_cand1 = 0
    pairs_rescored = 0
    reused_clustering = False
    state_new = None
    if do_round1:
        with span("streaming.lsh"), timed(times, "lsh"):  # reprolint: disable=RD602 -- `times` holds timing telemetry only; an aborted patch replans and the partial stage entries never reach a returned plan
            if pattern_unchanged:
                # Signatures, band keys, pairs and scores are all pattern
                # functions: recomputing the dirty rows would reproduce
                # the old state bit for bit, so keep it as-is.
                state_new, pairs_rescored = state, 0
            else:
                state_new, pairs_rescored = state.update(  # reprolint: disable=RD602 -- LshState.update is pure (returns a new state, never mutates self); the name just matches the dict.update mutation heuristic
                    csr_new, dirty, n_new, config, deadline=deadline,
                    backend=plan.backend,
                )
        pairs, sims = state_new.pairs, state_new.sims
        n_cand1 = int(pairs.shape[0])
        fault_point("streaming.update")
        # Clustering reuse: with the pair set, the scores, the row count
        # and every pair endpoint unchanged, cluster_rows reads nothing
        # that changed (it touches row *patterns* only for pair rows), so
        # the old permutation IS the from-scratch answer.  A value-only
        # delta qualifies even when dirty rows sit in pairs: cluster_rows
        # never reads values.
        in_pairs = (
            np.isin(dirty, pairs.ravel()).any() if dirty.size and n_cand1 else False
        )
        if (
            n_new == 0
            and (pattern_unchanged or not in_pairs)
            and np.array_equal(pairs, state.pairs)
            and np.array_equal(sims, state.sims)
        ):
            row_order = plan.row_order
            reused_clustering = True
        else:
            with span("streaming.cluster", pairs=n_cand1), timed(times, "cluster"):  # reprolint: disable=RD602 -- timing telemetry only; see the lsh-stage note
                clustering = cluster_rows(
                    csr_new,
                    pairs,
                    sims,
                    threshold_size=config.threshold_size,
                    measure=config.measure,
                    deadline=deadline,
                )
            row_order = clustering.order
        with timed(times, "permute"):  # reprolint: disable=RD602 -- timing telemetry only; see the lsh-stage note
            reordered = permute_csr_rows(csr_new, row_order)
    else:
        row_order = np.arange(csr_new.n_rows, dtype=np.int64)
        reordered = csr_new

    if deadline is not None:
        deadline.check("tile")
    fault_point("streaming.update")
    with span("streaming.tile"), timed(times, "tile"):
        # A value-only delta leaves every panel's pattern intact: retile
        # with no dirty rows so each panel takes the copy-old-mask path.
        tile_dirty = np.empty(0, dtype=np.int64) if pattern_unchanged else dirty
        tiled, panels_retiled = _retile(
            plan, reordered, row_order, tile_dirty, n_new, config
        )

    # Round 2 runs the build's code unless the delta was value-only and
    # the old plan's round 2 has run: the remainder is usually small (or
    # the gate skips it), so there is nothing worth patching — and a full
    # recompute is exact by construction.  Only a patch under a cache or
    # a policy runs it here; a plain patch leaves it pending, as a plain
    # build does.
    reuse = (
        pattern_unchanged
        and np.array_equal(row_order, plan.row_order)
        and plan._round2.computed
    )
    round2 = None
    if reuse or eager_round2:
        if deadline is not None:
            deadline.check("sim2")
        with span("streaming.round2"), timed(times, "round2"):
            if reuse:
                # Value-only fast path: the remainder carries the exact
                # old pattern, and the round-2 gate, candidate pairs,
                # clustering and similarity stats are all pattern
                # functions — reuse the old decisions wholesale.
                old = plan.stats
                round2 = _Round2(
                    order=plan.remainder_order,
                    remainder=permute_csr_rows(
                        tiled.sparse_part, plan.remainder_order
                    ),
                    avg_sim_before=old.avg_sim_before,
                    avg_sim_after=old.avg_sim_after,
                    applied=old.round2_applied,
                    n_candidates=old.n_candidates_round2,
                )
            else:
                round2 = _reorder_remainder(
                    tiled, replace(config, backend=plan.backend), times, deadline
                )
    patched = _assemble_plan(
        csr_new, row_order, tiled, gate1, do_round1, n_cand1, round2, config,
        times, revision=plan.revision + 1,
    )
    return patched, state_new, reused_clustering, (panels_retiled, pairs_rescored)


def apply_delta(
    plan: ExecutionPlan,
    delta: DeltaBatch,
    config: ReorderConfig | None = None,
    *,
    state: LshState | None = None,
    cache=None,
    resilience=None,
    max_dirty_fraction: float = DEFAULT_MAX_DIRTY_FRACTION,
) -> PlanUpdate:
    """Produce the plan for ``plan.original`` + ``delta`` (see module docs).

    Like :func:`~repro.reorder.build_plan`, a patch with no ``cache`` and
    no ``resilience`` defers round 2 to the returned plan's first read of
    it, so the report's ``seconds`` hold no ``round2`` key; with either,
    the patch runs round 2.

    Parameters
    ----------
    plan:
        The current plan.  ``config`` must be the config it was built
        with — the patch reuses the plan's decisions under that
        assumption.
    delta:
        The batch of mutations to absorb.
    state:
        The :class:`~repro.streaming.LshState` matching ``plan``
        (required for the patch path whenever round 1 is active; without
        it the update replans and returns a fresh state).
    cache:
        Optional :class:`repro.planstore.PlanStore`; replans go through
        it, and successful patches write their decisions (round 2
        included, so the patch runs it) through it under the mutated
        matrix's content key, so a later cold build of the same matrix is
        a warm hit.
    resilience:
        Optional :class:`repro.resilience.ResiliencePolicy`.  The patch,
        round 2 included, runs under a per-update deadline; a timeout (or
        injected ``streaming.update`` fault) degrades to a laddered full
        replan with provenance instead of failing.
    max_dirty_fraction:
        Patch-vs-replan threshold on ``(dirty + new) / total`` rows.

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

        gate1, do_round1 = _round1_gate(csr_new, config)

        plan_new = None
        state_new = None
        reused_clustering = False
        panels_retiled: int | None = None
        pairs_rescored = 0
        mode = "patched"
        try:
            reason = _patch_decision(
                plan, dirty_fraction, max_dirty_fraction, state, gate1, do_round1
            )
            if reason is None:
                deadline = (
                    resilience.new_deadline() if resilience is not None else None
                )
                fault_point("streaming.update")
                plan_new, state_new, reused_clustering, (
                    panels_retiled,
                    pairs_rescored,
                ) = _patch(
                    plan, csr_new, dirty, n_new, state, config, times,
                    deadline, gate1, do_round1,
                    eager_round2=cache is not None or resilience is not None,
                )
        except (TimeoutExceeded, MemoryError) as exc:
            if resilience is None or not resilience.ladder:
                raise
            reason = f"patch aborted ({type(exc).__name__}: {exc}); replanned"

        if plan_new is None:
            mode = "replanned"
            with span("streaming.replan"), timed(times, "replan"):
                plan_new = build_plan(
                    csr_new, config, cache=cache, resilience=resilience
                )
                plan_new = replace(plan_new, revision=plan.revision + 1)
                if plan_new.round1_applied and not plan_new.degraded:
                    state_new = LshState.build(
                        csr_new, config, backend=plan_new.backend
                    )

    if mode == "patched":
        if cache is not None:
            # A clean patch is a full-quality plan: write its decisions
            # through the content-addressed store so the mutated matrix
            # is a warm hit for everyone else.  Written once the timer
            # has closed, so the entry carries what the patch cost.
            from repro.planstore.decisions import PlanDecisions

            cache.put(
                cache.key_for(csr_new, config), PlanDecisions.from_plan(plan_new)
            )
        METRICS.counter(
            "streaming.updates_patched",
            "streaming updates absorbed by the incremental patch path",
        ).inc()
    else:
        METRICS.counter(
            "streaming.updates_replanned",
            "streaming updates that fell back to a full replan",
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
        reused_clustering=reused_clustering,
        panels_retiled=panels_retiled,
        pairs_rescored=pairs_rescored,
        # A copy: a patched plan's preprocess_seconds is ``times``, and a
        # deferred round 2 adds to it when it runs after this update.
        seconds=dict(times),
        provenance=plan_new.provenance,
        timestamp=delta.timestamp,
    )
    return PlanUpdate(plan=plan_new, state=state_new, report=report)


class StreamingPlan:
    """A plan that follows its matrix through a stream of deltas.

    Owns the ``(plan, state, matrix)`` triple and swaps it *atomically*
    under a lock at the end of each successful update — a reader (or a
    failed update) always observes a complete, consistent plan, never a
    torn one.  This is the object the serving layer holds per tenant.

    Parameters mirror :func:`apply_delta`; the initial plan is built
    through :func:`repro.reorder.build_plan` with the same cache and
    resilience policy.
    """

    def __init__(
        self,
        csr: CSRMatrix,
        config: ReorderConfig | None = None,
        *,
        cache=None,
        resilience=None,
        max_dirty_fraction: float = DEFAULT_MAX_DIRTY_FRACTION,
    ) -> None:
        self.config = config or ReorderConfig()
        self.cache = cache
        self.resilience = resilience
        self.max_dirty_fraction = float(max_dirty_fraction)
        self._lock = threading.Lock()
        self._plan = build_plan(
            csr, self.config, cache=cache, resilience=resilience
        )
        self._state = (
            LshState.build(csr, self.config, backend=self._plan.backend)
            if self._plan.round1_applied and not self._plan.degraded
            else None
        )
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

        Updates are serialised; a failed update (propagated fault with no
        resilience policy, deadline expiry with the ladder disabled)
        leaves the previous plan installed and fully usable.
        """
        with self._lock:
            update = apply_delta(
                self._plan,
                delta,
                self.config,
                state=self._state,
                cache=self.cache,
                resilience=self.resilience,
                max_dirty_fraction=self.max_dirty_fraction,
            )
            # Commit point: nothing above mutated self.
            self._plan = update.plan
            self._state = update.state
            self.reports.append(update.report)
            return update.report
