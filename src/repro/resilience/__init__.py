"""Resilience layer: fault injection, deadlines, retries, ladders, journals.

The paper's §4 heuristics already define a graceful-degradation story —
skip reordering rounds when the gates say they will not pay off, fall
back to trial-and-error autotuning — and this package makes
degraded-but-correct execution a first-class citizen of the pipeline:

* :class:`FaultInjector` / :func:`fault_point` — deterministic, seedable
  chaos injection at the named sites of :data:`FAULT_SITES` (file reads,
  plan-store IO, the MinHash and clustering stages, scratch allocation,
  backend compiles, streaming updates, serve connections), driving the
  chaos test suite and the CI ``chaos`` job.
* :class:`Deadline` — a cooperative stage budget threaded through
  MinHash, LSH and clustering; polling points raise
  :class:`repro.errors.TimeoutExceeded` when the budget expires.
* :class:`ResiliencePolicy` — per-plan budget plus the degradation
  ladder ``full -> round1-only -> identity -> untiled-csr`` consumed by
  :func:`repro.reorder.build_plan`.
* :func:`retry_io` — bounded retry-with-backoff for transient
  filesystem errors around dataset and plan-store IO.
* :class:`SweepJournal` — crash-safe, append-only checkpoint manifest
  that makes :func:`repro.experiments.run_experiment` resumable
  (``repro run --resume``).
* :func:`store_health` / :func:`heal_store` / :func:`journal_status` —
  the ``repro doctor`` diagnostics.

See ``docs/RESILIENCE.md`` for the full semantics.
"""

from repro.resilience.checkpoint import SweepJournal, journal_status
from repro.resilience.deadline import Deadline
from repro.resilience.doctor import (
    doctor_report,
    format_doctor_report,
    heal_store,
    store_health,
)
from repro.resilience.faults import (
    FAULT_SITES,
    FaultInjector,
    active_injector,
    fault_point,
)
from repro.resilience.policy import LADDER_RUNGS, ResiliencePolicy, ladder_rungs
from repro.resilience.retry import NON_TRANSIENT_OS_ERRORS, retry_io

__all__ = [
    "Deadline",
    "FaultInjector",
    "FAULT_SITES",
    "fault_point",
    "active_injector",
    "ResiliencePolicy",
    "LADDER_RUNGS",
    "ladder_rungs",
    "retry_io",
    "NON_TRANSIENT_OS_ERRORS",
    "SweepJournal",
    "journal_status",
    "store_health",
    "heal_store",
    "doctor_report",
    "format_doctor_report",
]
