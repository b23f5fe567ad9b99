"""Batched, parallel plan building.

:func:`build_plans` is the fleet-sized front end of the pipeline: given a
list of matrices it fans the per-matrix preprocessing out over a process
pool (the same matrix-grain parallelism the experiment runner uses — the
Python analogue of the paper's OpenMP preprocessing, §5.4), consults the
plan store before dispatching, and returns results **in input order** with
per-matrix failures captured as data instead of aborting the whole batch.

Determinism contract: ``build_plans(ms, cfg, workers=N)`` produces plans
identical (bit-for-bit in the permutations) to ``[build_plan(m, cfg) for
m in ms]`` for every ``N`` — each matrix's work is self-contained and
seeded only by the config, never by scheduling order.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass

from repro.observability.tracing import span
from repro.reorder.pipeline import ExecutionPlan, ReorderConfig, build_plan
from repro.sparse.csr import CSRMatrix
from repro.util.log import get_logger

__all__ = ["PlanResult", "build_plans"]

_log = get_logger("planstore")


@dataclass(frozen=True)
class PlanResult:
    """Outcome of building one plan in a batch.

    Exactly one of ``plan``/``error`` is set.  ``error`` is a one-line
    ``"ExceptionType: message"`` summary; ``details`` the full traceback
    text (worker-side when the build ran in a pool process).
    """

    index: int
    plan: ExecutionPlan | None
    error: str | None = None
    details: str | None = None
    cache_hit: bool = False

    @property
    def ok(self) -> bool:
        """True when the plan was built (or served from cache)."""
        return self.plan is not None


def _build_one(payload) -> tuple:
    """Pool worker: build one plan; never raises (returns the failure).

    The plan's deferred round 2 runs here too, so a pool computes it in
    parallel and its failure is returned like any other.
    """
    index, csr, config = payload
    try:
        plan = build_plan(csr, config)
        plan.stats
        return index, plan, None, None
    except Exception as exc:  # noqa: BLE001  # reprolint: disable=RD106 -- pool worker marshals every failure back to the parent; nothing may escape
        return (
            index,
            None,
            f"{type(exc).__name__}: {exc}",
            traceback.format_exc(),
        )


def build_plans(
    matrices,
    config: ReorderConfig | None = None,
    *,
    workers: int = 1,
    cache=None,
) -> list[PlanResult]:
    """Build an execution plan for every matrix, optionally in parallel.

    Parameters
    ----------
    matrices:
        Iterable of :class:`CSRMatrix`.  Results come back in this order.
    config:
        One :class:`ReorderConfig` shared by the whole batch.
    workers:
        Process-pool size; ``1`` builds serially in-process.  Only cache
        *misses* are dispatched to the pool — hits are materialised in the
        parent, so a warm batch never pays pool start-up.
    cache:
        Optional :class:`repro.planstore.PlanStore`; decisions built by
        workers are written through it in the parent process.

    Returns
    -------
    list[PlanResult]
        One result per input matrix, failures included (``.ok`` is False
        and ``.error`` describes the exception).
    """
    config = config or ReorderConfig()
    matrices = list(matrices)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    results: dict[int, PlanResult] = {}
    pending: list[tuple[int, CSRMatrix]] = []
    with span("batch.cache_sweep", matrices=len(matrices)):
        for index, csr in enumerate(matrices):
            if cache is not None:
                try:
                    key = cache.key_for(csr, config)
                    decisions = cache.get(key)
                except Exception as exc:  # noqa: BLE001  # reprolint: disable=RD106 -- any cache trouble must degrade to a miss, not abort the batch
                    _log.warning("plan cache lookup failed for #%d: %s", index, exc)
                    decisions = None
                if decisions is not None:
                    results[index] = PlanResult(
                        index=index,
                        plan=decisions.materialise(csr, config),
                        cache_hit=True,
                    )
                    continue
            pending.append((index, csr))

    # Worker processes carry no tracer: only the parent-side serial path
    # contributes per-matrix build spans (the pool path records the
    # batch.build envelope around the fan-out).
    with span("batch.build", pending=len(pending), workers=workers):
        if workers == 1 or len(pending) <= 1:
            built = [_build_one((i, csr, config)) for i, csr in pending]
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
                built = list(
                    pool.map(_build_one, [(i, csr, config) for i, csr in pending])
                )

    for index, plan, error, details in built:
        if plan is not None and cache is not None:
            from repro.planstore.decisions import PlanDecisions

            cache.put(
                cache.key_for(plan.original, config), PlanDecisions.from_plan(plan)
            )
        results[index] = PlanResult(
            index=index, plan=plan, error=error, details=details
        )

    return [results[i] for i in range(len(matrices))]
