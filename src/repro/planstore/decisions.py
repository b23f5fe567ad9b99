"""The cacheable essence of an execution plan.

What the pipeline pays MinHash/LSH/clustering time for is two permutations
and the Fig. 9 statistics; everything else in an
:class:`~repro.reorder.ExecutionPlan` (the tiled structures, the
remainder) is a cheap deterministic function of those decisions, the
matrix and the config.  :class:`PlanDecisions` stores exactly that
essence — it is what both cache tiers hold, and
:meth:`PlanDecisions.materialise` turns it back into a full plan bound to
the *caller's* matrix (so cached decisions are safely shared between
matrices that agree on pattern but differ in values).

:meth:`PlanDecisions.materialise` is the one rebuild path: every
plan-store hit goes through it, the disk tier's included, which is how
the paper's offline deployment (reorder once, reuse the ordering in
later processes) reloads a plan; the plan store adds content addressing
and eviction on top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aspt.tiles import tile_matrix
from repro.reorder.pipeline import ExecutionPlan, PlanStats, _Round2Memo
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import permute_csr_rows

__all__ = ["PlanDecisions"]


@dataclass(frozen=True)
class PlanDecisions:
    """The decisions of one pipeline run: permutations + statistics.

    ``row_order``/``remainder_order`` are the round-1/round-2 permutations
    (new position -> source row); ``stats`` the Fig. 9 statistics;
    ``preprocess_total`` the wall-clock the original cold build paid (kept
    so amortisation reports stay meaningful on warm hits); ``provenance``
    the degradation-ladder history (empty when the plan was built without
    a resilience policy — in practice always, since degraded plans are
    never cached, but the field keeps the round trip lossless).

    No backend is stored: :meth:`materialise` loads the config's backend
    in the **current** environment (``config.backend`` is part of the
    cache key), so an entry cached on a machine with a C compiler never
    pins a compiler requirement onto a machine without one (nor the
    reverse).
    """

    row_order: np.ndarray
    remainder_order: np.ndarray
    stats: PlanStats
    preprocess_total: float
    provenance: tuple = ()

    @classmethod
    def from_plan(cls, plan: ExecutionPlan) -> "PlanDecisions":
        """Extract the cacheable decisions from a freshly built plan."""
        stats = plan.stats  # runs a deferred round 2 into the stored total
        return cls(
            row_order=np.ascontiguousarray(plan.row_order, dtype=np.int64),
            remainder_order=np.ascontiguousarray(
                plan.remainder_order, dtype=np.int64
            ),
            stats=stats,
            preprocess_total=plan.preprocessing_time,
            provenance=tuple(plan.provenance),
        )

    @property
    def nbytes(self) -> int:
        """Estimated in-memory footprint (drives the LRU byte bound)."""
        # The two permutations dominate; stats and object headers are a
        # fixed small overhead.
        return int(self.row_order.nbytes + self.remainder_order.nbytes + 256)

    def materialise(self, csr: CSRMatrix, config, loaded=None) -> ExecutionPlan:
        """Rebuild the full :class:`ExecutionPlan` for ``csr``.

        ``csr`` must have the pattern the decisions were computed from and
        ``config`` must be the config they were computed with — both are
        the cache key's contract, enforced upstream by content addressing.
        Only the cheap deterministic stages run here (permute + tile);
        MinHash/LSH/clustering are skipped entirely, and the plan's
        round 2 is filled from the decisions.  ``loaded`` is a
        :class:`~repro.kernels.backends.LoadedBackend` the caller already
        resolved for ``config.backend`` (a build's one load); without it
        the backend is loaded here.
        """
        if self.row_order.size != csr.n_rows:
            raise ValueError(
                f"decisions cover {self.row_order.size} rows; matrix has "
                f"{csr.n_rows}"
            )
        reordered = permute_csr_rows(csr, self.row_order)
        tiled = tile_matrix(
            reordered,
            config.panel_height,
            config.dense_threshold,
            max_dense_cols=config.max_dense_cols,
        )
        remainder = permute_csr_rows(tiled.sparse_part, self.remainder_order)
        plan = ExecutionPlan(
            original=csr,
            row_order=self.row_order,
            tiled=tiled,
            _round2=_Round2Memo.filled(self.remainder_order, remainder, self.stats),
            provenance=self.provenance,
            # "total" reflects what *this* call pays; callers that time the
            # materialisation overwrite it.  The cold build's cost stays
            # available for amortisation reports.
            preprocess_seconds={
                "total": 0.0,
                "cold_total": self.preprocess_total,
            },
        )
        # Availability is a property of this process, not of the entry;
        # a warm load reuses the process-wide compiled SpMM.
        from repro.reorder.pipeline import attach_backend

        return attach_backend(plan, config, loaded)
