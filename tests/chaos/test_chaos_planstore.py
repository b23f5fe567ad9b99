"""Chaos tests for the plan store's disk tier.

Contract: injected read/write faults must degrade to misses (with
quarantine where a file looks damaged), never crash, never serve a wrong
plan — and the next ``put`` of a quarantined key replaces the entry and
drops its quarantine file.
"""

import logging

import numpy as np
import pytest

from repro.datasets import hidden_clusters
from repro.planstore import DiskPlanStore, PlanDecisions, PlanStore
from repro.reorder import ReorderConfig, build_plan
from repro.resilience import FaultInjector

CFG = ReorderConfig(siglen=32, panel_height=8)
KEY = "0123456789abcdef0123456789abcdef"


@pytest.fixture
def matrix():
    return hidden_clusters(16, 8, 256, 8, noise=0.1, seed=7)


@pytest.fixture
def decisions(matrix):
    return PlanDecisions.from_plan(build_plan(matrix, CFG))


class TestInjectedReadFaults:
    def test_injected_fault_quarantines_then_put_replaces(
        self, tmp_path, decisions, chaos_seed
    ):
        """An injected read fault (corrupt bytes) quarantines the entry,
        as real damage does; the key's next `put` replaces the entry and
        drops the quarantine file."""
        store = DiskPlanStore(tmp_path)
        store.put(KEY, decisions)
        with FaultInjector(
            rate=1.0, seed=chaos_seed, sites=["planstore.read"], max_faults=1
        ):
            assert store.get(KEY) is None
        assert not store.path_for(KEY).exists()
        assert len(store.quarantined()) == 1

        store.put(KEY, decisions)
        assert store.quarantined() == []
        got = store.get(KEY)
        np.testing.assert_array_equal(got.row_order, decisions.row_order)

    def test_injected_write_fault_skips_caching_not_crash(
        self, tmp_path, decisions, chaos_seed, caplog
    ):
        store = DiskPlanStore(tmp_path)
        with FaultInjector(rate=1.0, seed=chaos_seed, sites=["planstore.write"]):
            with caplog.at_level(logging.WARNING, logger="repro.planstore"):
                store.put(KEY, decisions)  # must not raise
        assert store.get(KEY) is None  # nothing cached
        assert not list(tmp_path.glob("*.tmp"))  # no temp litter
        # The store works again once the fault clears.
        store.put(KEY, decisions)
        assert store.get(KEY) is not None

    def test_lru_tier_not_poisoned_by_disk_faults(self, tmp_path, matrix, chaos_seed):
        """After an injected disk failure the rebuild lands in the memory
        tier; later hits are served from memory with identical orders."""
        cold = build_plan(matrix, CFG, cache=PlanStore(cache_dir=tmp_path))

        store = PlanStore(cache_dir=tmp_path)  # fresh (empty) memory tier
        with FaultInjector(
            rate=1.0, seed=chaos_seed, sites=["planstore.read"], max_faults=1
        ):
            rebuilt = build_plan(matrix, CFG, cache=store)
        np.testing.assert_array_equal(rebuilt.row_order, cold.row_order)

        # No injector now: the hit must come from the healthy memory tier.
        hit = build_plan(matrix, CFG, cache=store)
        np.testing.assert_array_equal(hit.row_order, cold.row_order)
        assert store.stats()["memory"]["hits"] >= 1


class TestChaosRate:
    def test_store_never_crashes_under_sustained_injection(
        self, tmp_path, matrix, decisions, chaos_rate, chaos_seed
    ):
        """At the configured chaos rate, every get/put either succeeds or
        degrades; results that do come back are bitwise-correct."""
        store = DiskPlanStore(tmp_path)
        with FaultInjector(
            rate=chaos_rate,
            seed=chaos_seed,
            sites=["planstore.read", "planstore.write"],
        ) as injector:
            for _ in range(40):
                store.put(KEY, decisions)
                got = store.get(KEY)
                if got is not None:
                    np.testing.assert_array_equal(
                        got.row_order, decisions.row_order
                    )
        assert injector.checked["planstore.read"] > 0
        assert injector.checked["planstore.write"] > 0
        # The store is fully functional after the chaos window: a put
        # replaces any quarantined entry.
        store.put(KEY, decisions)
        assert store.get(KEY) is not None
        assert store.quarantined() == []
