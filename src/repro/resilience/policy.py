"""The degradation ladder and the per-plan resilience policy.

The ladder generalises the paper's §4 skip heuristics into a recovery
strategy: when a rung of the planning pipeline fails (stage deadline,
injected fault, memory pressure), :func:`repro.reorder.build_plan` drops
to the next-cheaper rung instead of aborting:

``full``
    The normal Fig. 5 workflow — both reordering rounds, gated by §4.
``round1-only``
    Round 2 forced off; the expensive remainder reordering is skipped.
``identity``
    Both rounds forced off; no MinHash/LSH/clustering at all, only the
    ASpT tiling split (this is exactly the ASpT-NR baseline).
``untiled-csr``
    Identity ordering *and* a dense threshold no panel column can reach,
    so every non-zero lands in the sparse remainder and multiplication
    runs the plain CSR kernel.  Nothing on this rung can time out; it is
    the ladder's floor.

Every attempted rung is recorded in the plan's provenance (and the
cached :class:`repro.planstore.PlanDecisions`), and settling below
``full`` emits a :class:`repro.errors.DegradedExecution` warning — the
run stays correct, the report says it was degraded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.observability.metrics import METRICS
from repro.resilience.deadline import Deadline
from repro.util.validation import finite_real

__all__ = ["ResiliencePolicy", "LADDER_RUNGS", "ladder_rungs"]

#: Ladder rung labels, strongest first.
LADDER_RUNGS: tuple = ("full", "round1-only", "identity", "untiled-csr")

# Canonical declaration of the resilience instruments (incremented at the
# fault/retry/ladder sites) so a registry snapshot lists them even before
# any failure has happened.
METRICS.counter("resilience.fault_fired", "injected faults that actually fired")
METRICS.counter("resilience.retry", "transient-IO retry attempts")
METRICS.counter(
    "resilience.degradation_rung", "plan builds settled below the full ladder rung"
)


def ladder_rungs(config) -> list:
    """The ``(label, rung_config)`` ladder for a ``ReorderConfig``.

    Rungs that cannot differ from an earlier one are dropped (e.g. when
    the caller already forces round 2 off, ``round1-only`` adds
    nothing), so the ladder never retries an identical configuration.
    """
    rungs = [("full", config)]
    if config.force_round2 is not False:
        rungs.append(("round1-only", replace(config, force_round2=False)))
    if config.force_round1 is not False:
        rungs.append(
            ("identity", replace(config, force_round1=False, force_round2=False))
        )
    # No column inside a panel_height-row panel can hold more than
    # panel_height entries, so this threshold keeps every non-zero in
    # the sparse remainder: the plan multiplies through the plain CSR
    # kernel (and builds with no LSH, clustering or dense split work).
    rungs.append(
        (
            "untiled-csr",
            replace(
                config,
                force_round1=False,
                force_round2=False,
                dense_threshold=config.panel_height + 1,
            ),
        )
    )
    return rungs


@dataclass(frozen=True)
class ResiliencePolicy:
    """How much failure a plan build may absorb.

    Attributes
    ----------
    deadline_s:
        Per-rung stage budget in seconds (``None`` = unlimited): a finite
        number ``>= 0``.  Each rung gets a fresh deadline; the final
        ``untiled-csr`` rung runs without one so the ladder always has an
        escape that cannot time out.
    """

    deadline_s: float | None = None

    def __post_init__(self):
        value = self.deadline_s
        if value is not None and not (finite_real(value) and value >= 0):
            raise ConfigError(
                f"deadline_s must be a finite number >= 0, got {value!r}"
            )

    def new_deadline(self) -> Deadline | None:
        """A fresh per-rung deadline (``None`` when unlimited)."""
        if self.deadline_s is None:
            return None
        return Deadline.after(self.deadline_s)
