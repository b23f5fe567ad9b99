"""Unit tests for the plan store: LRU tier, two-tier composition, and the
``build_plan(cache=...)`` integration (warm hits must skip every expensive
stage while reproducing the cold build bit-for-bit)."""

import numpy as np
import pytest

from repro.datasets import diagonal, hidden_clusters
from repro.errors import ValidationError
from repro.planstore import memory
from repro.planstore import (
    LRUPlanCache,
    PlanDecisions,
    PlanStore,
    build_plans,
    plan_key,
)
from repro.reorder import ReorderConfig, build_plan

from conftest import assert_plans_identical


def _decisions(n_rows=8, total=1.0):
    plan = build_plan(diagonal(n_rows), ReorderConfig(panel_height=4))
    return PlanDecisions.from_plan(plan)


CFG = ReorderConfig(siglen=32, panel_height=8)


@pytest.fixture
def matrix():
    return hidden_clusters(16, 8, 256, 8, noise=0.1, seed=7)


class TestLRUPlanCache:
    def test_get_miss_then_hit(self):
        cache = LRUPlanCache()
        assert cache.get("k1") is None
        d = _decisions()
        cache.put("k1", d)
        assert cache.get("k1") is d
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.puts == 1

    def test_entry_bound_evicts_lru(self, monkeypatch):
        monkeypatch.setattr(memory, "MAX_ENTRIES", 2)
        cache = LRUPlanCache()
        d = _decisions()
        cache.put("a", d)
        cache.put("b", d)
        cache.get("a")  # refresh a; b is now LRU
        cache.put("c", d)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_byte_bound_evicts(self, monkeypatch):
        d = _decisions(8)
        monkeypatch.setattr(memory, "MAX_BYTES", int(d.nbytes * 2.5))
        cache = LRUPlanCache()
        cache.put("a", d)
        cache.put("b", d)
        assert len(cache) == 2 and cache.stats.evictions == 0
        cache.put("c", d)
        assert len(cache) == 2
        assert cache.stats.evictions == 1

    def test_oversized_entry_admitted_alone(self, monkeypatch):
        d = _decisions(8)
        monkeypatch.setattr(memory, "MAX_BYTES", 1)
        cache = LRUPlanCache()
        cache.put("big", d)
        assert cache.get("big") is d

    def test_reput_same_key_updates_in_place(self, monkeypatch):
        monkeypatch.setattr(memory, "MAX_ENTRIES", 2)
        cache = LRUPlanCache()
        d1, d2 = _decisions(), _decisions()
        cache.put("k", d1)
        cache.put("k", d2)
        assert len(cache) == 1
        assert cache.get("k") is d2
        assert cache.stats.evictions == 0

    def test_clear_keeps_counters(self):
        cache = LRUPlanCache()
        cache.put("k", _decisions())
        cache.get("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1


class TestPlanStore:
    def test_memory_only_roundtrip(self, matrix):
        store = PlanStore()
        key = store.key_for(matrix, CFG)
        assert store.get(key) is None
        plan = build_plan(matrix, CFG)
        store.put(key, PlanDecisions.from_plan(plan))
        got = store.get(key)
        np.testing.assert_array_equal(got.row_order, plan.row_order)
        assert store.stats()["memory"]["hits"] == 1
        assert "disk" not in store.stats()

    def test_disk_promotion(self, matrix, tmp_path):
        writer = PlanStore(cache_dir=tmp_path)
        key = writer.key_for(matrix, CFG)
        writer.put(key, PlanDecisions.from_plan(build_plan(matrix, CFG)))

        reader = PlanStore(cache_dir=tmp_path)  # fresh memory tier
        assert reader.get(key) is not None      # served from disk
        assert reader.stats()["disk"]["hits"] == 1
        reader.get(key)                          # now from memory
        assert reader.stats()["memory"]["hits"] == 1
        assert reader.stats()["disk"]["hits"] == 1


class TestBuildPlanWithCache:
    def test_warm_hit_skips_all_reordering_work(self, matrix, monkeypatch):
        """A warm hit performs zero MinHash/LSH/clustering work."""
        import repro.reorder.pipeline as pipeline_mod
        from repro.similarity.lsh import LSHIndex

        store = PlanStore()
        cold = build_plan(matrix, CFG, cache=store)

        calls = {"cluster": 0, "lsh": 0}
        real_cluster = pipeline_mod.cluster_rows
        real_pairs = LSHIndex.candidate_pairs

        def counting_cluster(*args, **kwargs):
            calls["cluster"] += 1
            return real_cluster(*args, **kwargs)

        def counting_pairs(self, *args, **kwargs):
            calls["lsh"] += 1
            return real_pairs(self, *args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "cluster_rows", counting_cluster)
        monkeypatch.setattr(LSHIndex, "candidate_pairs", counting_pairs)

        warm = build_plan(matrix, CFG, cache=store)
        assert calls == {"cluster": 0, "lsh": 0}

        # Bit-identical decisions, and the timing breakdown proves no
        # pipeline stage ran.
        assert_plans_identical(warm, cold)
        stage_keys = {"lsh1", "cluster1", "permute1", "tile", "sim2", "lsh2", "cluster2"}
        assert stage_keys.isdisjoint(warm.preprocess_seconds)
        assert "materialise" in warm.preprocess_seconds
        assert "cache_lookup" in warm.preprocess_seconds
        assert warm.preprocess_seconds["cold_total"] == cold.preprocessing_time

    def test_warm_plan_is_functionally_identical(self, matrix, rng):
        store = PlanStore()
        cold = build_plan(matrix, CFG, cache=store)
        warm = build_plan(matrix, CFG, cache=store)
        warm.validate()
        X = rng.normal(size=(matrix.n_cols, 4))
        np.testing.assert_array_equal(warm.spmm(X), cold.spmm(X))

    def test_values_change_still_hits_and_stays_correct(self, matrix, rng):
        """Same pattern + new values must hit, and multiply with the *new*
        values (the cache stores decisions, never values)."""
        store = PlanStore()
        build_plan(matrix, CFG, cache=store)
        other = matrix.with_values(rng.normal(size=matrix.nnz))
        warm = build_plan(other, CFG, cache=store)
        assert store.stats()["memory"]["hits"] == 1
        warm.validate()

    def test_config_change_misses(self, matrix):
        store = PlanStore()
        build_plan(matrix, CFG, cache=store)
        build_plan(matrix, ReorderConfig(siglen=64, panel_height=8), cache=store)
        assert store.stats()["memory"]["hits"] == 0
        assert store.stats()["memory"]["misses"] == 2

    def test_cold_build_records_lookup_cost(self, matrix):
        store = PlanStore()
        plan = build_plan(matrix, CFG, cache=store)
        assert "cache_lookup" in plan.preprocess_seconds
        assert "tile" in plan.preprocess_seconds


class TestBuildPlans:
    def test_results_in_input_order_with_failures(self):
        good = diagonal(16)
        bad = object()  # not a CSRMatrix: the build must fail, not the batch
        results = build_plans([good, bad, good], ReorderConfig(panel_height=4))
        assert [r.ok for r in results] == [True, False, True]
        assert [r.index for r in results] == [0, 1, 2]
        assert results[1].plan is None
        assert results[1].error and results[1].details

    def test_cache_hits_marked(self, matrix):
        store = PlanStore()
        first = build_plans([matrix], CFG, cache=store)
        second = build_plans([matrix], CFG, cache=store)
        assert not first[0].cache_hit
        assert second[0].cache_hit
        np.testing.assert_array_equal(
            first[0].plan.row_order, second[0].plan.row_order
        )

    def test_workers_must_be_positive(self, matrix):
        # A bool or a fraction is not a worker count.
        for workers in (0, True, 1.5):
            with pytest.raises(ValidationError, match="workers"):
                build_plans([matrix], CFG, workers=workers)


class TestPlanKey:
    def test_key_is_ascii_hex(self, matrix):
        key = plan_key(matrix, CFG)
        assert isinstance(key, str)
        int(key, 16)  # raises if not hex


class TestRunnerWiring:
    def test_cached_sweep_identical_records_and_warm_hits(self, tmp_path):
        """A corpus sweep with plan_cache_dir set produces the same kernel
        timings as an uncached one, and a repeated sweep hits the store."""
        from repro.datasets import build_corpus
        from repro.experiments import ExperimentConfig, run_experiment

        entries = build_corpus("tiny", repeats=1, categories=("hidden", "diagonal"))
        plain_cfg = ExperimentConfig(ks=(8,), scale="tiny", repeats=1)
        cached_cfg = ExperimentConfig(
            ks=(8,), scale="tiny", repeats=1, plan_cache_dir=str(tmp_path)
        )

        plain = run_experiment(plain_cfg, entries=entries)
        cold = run_experiment(cached_cfg, entries=entries)
        warm = run_experiment(cached_cfg, entries=entries)

        for a, b, c in zip(plain, cold, warm):
            assert a.name == b.name == c.name
            assert a.spmm_aspt_rr_s == b.spmm_aspt_rr_s == c.spmm_aspt_rr_s
            assert a.sddmm_aspt_rr_s == b.sddmm_aspt_rr_s == c.sddmm_aspt_rr_s
            assert a.needs_reordering == b.needs_reordering == c.needs_reordering
        # The warm sweep found every (matrix, config) pair on disk: two
        # plans (NR + RR) per corpus entry.
        assert len(list(tmp_path.glob("*.plan.npz"))) == 2 * len(entries)
