"""The two-tier plan store: in-process LRU over an optional disk tier.

``get`` checks memory first, then disk (promoting disk hits into memory);
``put`` writes through to both tiers.  All failure handling lives in the
tiers — from here up, a cache problem is always just a miss.

Typical use::

    store = PlanStore(cache_dir="~/.cache/repro-plans")
    plan = build_plan(matrix, config, cache=store)   # cold: builds + stores
    plan = build_plan(matrix, config, cache=store)   # warm: permute + tile only
"""

from __future__ import annotations

from pathlib import Path

from repro.planstore.decisions import PlanDecisions
from repro.planstore.disk import DiskPlanStore
from repro.planstore.fingerprint import plan_key
from repro.planstore.memory import LRUPlanCache

__all__ = ["PlanStore"]


class PlanStore:
    """Content-addressed cache for execution-plan decisions.

    The in-memory LRU tier is bounded by
    :data:`repro.planstore.memory.MAX_ENTRIES` and
    :data:`repro.planstore.memory.MAX_BYTES`.

    Parameters
    ----------
    cache_dir:
        Optional directory for the persistent tier; ``None`` keeps the
        store purely in-process.
    """

    def __init__(self, cache_dir=None) -> None:
        self.memory = LRUPlanCache()
        self.disk = DiskPlanStore(Path(cache_dir)) if cache_dir is not None else None

    # ------------------------------------------------------------------
    def get(self, key: str) -> PlanDecisions | None:
        """Two-tier lookup; disk hits are promoted into the memory tier."""
        decisions = self.memory.get(key)
        if decisions is not None:
            return decisions
        if self.disk is not None:
            decisions = self.disk.get(key)
            if decisions is not None:
                self.memory.put(key, decisions)
                return decisions
        return None

    def put(self, key: str, decisions: PlanDecisions) -> None:
        """Write-through insert into both tiers."""
        self.memory.put(key, decisions)
        if self.disk is not None:
            self.disk.put(key, decisions)

    def key_for(self, csr, config) -> str:
        """The cache key ``build_plan`` uses for ``(csr, config)``."""
        return plan_key(csr, config)

    def stats(self) -> dict:
        """Counter snapshot of both tiers (disk omitted when absent)."""
        out = {"memory": self.memory.stats.as_dict()}
        if self.disk is not None:
            out["disk"] = self.disk.stats.as_dict()
        return out
