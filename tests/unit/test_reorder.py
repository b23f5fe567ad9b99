"""Unit tests for repro.reorder (heuristics, pipeline, autotune)."""

import dataclasses
import functools
import itertools
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.aspt import tile_matrix
from repro.errors import DegradedExecution, TimeoutExceeded, ValidationError
from repro.gpu import GPUExecutor, P100
from repro.kernels import spmm
from repro.observability import Tracer, tracing
from repro.reorder import (
    AutotuneResult,
    ReorderConfig,
    autotune,
    build_plan,
    should_reorder_round1,
    should_reorder_round2,
)
from repro.planstore import PlanDecisions, PlanStore, build_plans
from repro.resilience import Deadline, FaultInjector, ResiliencePolicy, ladder_rungs
from repro.sparse import CSRMatrix, permute_csr_rows

from conftest import assert_plans_identical, random_csr

#: The degradation ladder's labels, ``full`` first.
RUNGS = [label for label, _ in ladder_rungs(ReorderConfig())]


def clustered_then_shuffled(rng, n_clusters=12, rows_per=12, n_cols=256, row_nnz=16):
    """A matrix with strong hidden row clusters in random row order."""
    dense = np.zeros((n_clusters * rows_per, n_cols))
    for c in range(n_clusters):
        pattern = rng.choice(n_cols, size=row_nnz, replace=False)
        for r in range(rows_per):
            dense[c * rows_per + r, pattern] = 1.0
    order = rng.permutation(n_clusters * rows_per)
    return CSRMatrix.from_dense(dense[order])


def round1_gated_off(rng):
    """A matrix whose round-1 gate is off at ``panel_height=8``, so the
    only clustering a build runs is round 2's."""
    dense = np.zeros((64, 256))
    for g in range(8):
        dense[g * 8 : (g + 1) * 8, g * 6 : g * 6 + 6] = 1.0
    dense[np.arange(64), 64 + rng.permutation(192)[:64]] = 1.0
    m = CSRMatrix.from_dense(dense)
    assert not should_reorder_round1(tile_matrix(m, 8, ReorderConfig().dense_threshold)).reorder
    return m


class TestHeuristics:
    def test_round1_skips_well_clustered(self):
        # Identical consecutive rows -> high dense ratio -> skip.
        dense = np.zeros((64, 64))
        for g in range(8):
            cols = np.arange(g * 8, g * 8 + 6)
            dense[g * 8 : (g + 1) * 8, cols] = 1.0
        m = CSRMatrix.from_dense(dense)
        decision = should_reorder_round1(tile_matrix(m, panel_height=8))
        assert not decision.reorder
        assert decision.indicator > 0.10

    def test_round1_reorders_scattered(self):
        m = CSRMatrix.from_dense(np.eye(64))
        decision = should_reorder_round1(tile_matrix(m, panel_height=8))
        assert decision.reorder
        assert decision.indicator == 0.0

    def test_round2_skips_similar_consecutive(self):
        dense = np.zeros((8, 16))
        dense[:, [0, 3, 9]] = 1.0  # all rows identical
        decision = should_reorder_round2(CSRMatrix.from_dense(dense))
        assert not decision.reorder
        assert decision.indicator == pytest.approx(1.0)

    def test_round2_reorders_dissimilar(self):
        decision = should_reorder_round2(CSRMatrix.from_dense(np.eye(8)))
        assert decision.reorder

    def test_threshold_validation(self, paper_matrix):
        with pytest.raises(ValidationError):
            should_reorder_round1(tile_matrix(paper_matrix, 3), skip_above=1.5)
        with pytest.raises(ValidationError):
            should_reorder_round2(paper_matrix, skip_above=-0.1)

    def test_paper_matrix_needs_round1(self, paper_matrix):
        # dense ratio 2/13 ~ 15% > 10% -> the gate would actually skip;
        # verify the indicator value is exactly the tiling ratio.
        decision = should_reorder_round1(tile_matrix(paper_matrix, 3))
        assert decision.indicator == pytest.approx(2 / 13)
        assert not decision.reorder


class TestReorderRows:
    """Round 1 forced on: ``row_order`` is Alg. 3's permutation."""

    @staticmethod
    def _row_order(m, **kw):
        return build_plan(m, ReorderConfig(force_round1=True, **kw)).row_order

    def test_identity_on_diagonal(self):
        m = CSRMatrix.from_dense(np.eye(32))
        order = self._row_order(m, siglen=32)
        assert order.tolist() == list(range(32))

    def test_recovers_hidden_clusters(self, rng):
        m = clustered_then_shuffled(rng)
        order = self._row_order(m, siglen=64, threshold_size=64)
        reordered = permute_csr_rows(m, order)
        from repro.similarity import average_consecutive_similarity

        before = average_consecutive_similarity(m)
        after = average_consecutive_similarity(reordered)
        assert after > before + 0.3

    def test_order_is_permutation(self, rng):
        m = random_csr(rng, 50, 40, 0.1)
        order = self._row_order(m, siglen=32)
        assert sorted(order.tolist()) == list(range(50))


class TestBuildPlan:
    @pytest.mark.parametrize(
        "field", ["siglen", "bsize", "threshold_size", "panel_height", "dense_threshold"]
    )
    def test_config_integer_fields_refuse_bools(self, field):
        with pytest.raises(ValidationError, match=field):
            ReorderConfig(**{field: True})

    def test_plan_spmm_matches_direct(self, rng):
        m = clustered_then_shuffled(rng)
        plan = build_plan(m, ReorderConfig(siglen=64, panel_height=8))
        plan.validate(seed=1)

    def test_plan_on_random_matrix(self, rng):
        m = random_csr(rng, 60, 50, 0.08)
        plan = build_plan(m, ReorderConfig(siglen=32, panel_height=8))
        plan.validate(seed=2)

    def test_plan_sddmm_matches_direct(self, paper_matrix, rng):
        plan = build_plan(
            paper_matrix,
            ReorderConfig(siglen=32, panel_height=3, force_round1=True, force_round2=True),
        )
        X = rng.normal(size=(6, 5))
        Y = rng.normal(size=(6, 5))
        from repro.kernels import sddmm

        got = plan.sddmm(X, Y)
        want = sddmm(paper_matrix, X, Y)
        assert got.same_pattern(want)
        np.testing.assert_allclose(got.values, want.values)

    def test_round1_improves_dense_ratio_on_hidden_clusters(self, rng):
        # Many small clusters: shuffled panels rarely hold two rows of the
        # same cluster, so the original dense ratio is low and reordering
        # must raise it substantially.
        m = clustered_then_shuffled(rng, n_clusters=48, rows_per=4, n_cols=1024)
        plan = build_plan(
            m,
            ReorderConfig(siglen=64, panel_height=4, threshold_size=64),
        )
        assert plan.stats.round1_applied
        assert plan.stats.delta_dense_ratio > 0.3

    def test_skip_gates_respected(self):
        dense = np.zeros((64, 64))
        for g in range(8):
            dense[g * 8 : (g + 1) * 8, np.arange(g * 8, g * 8 + 6)] = 1.0
        m = CSRMatrix.from_dense(dense)
        plan = build_plan(m, ReorderConfig(panel_height=8))
        assert not plan.stats.round1_applied
        np.testing.assert_array_equal(plan.row_order, np.arange(64))

    def test_force_overrides_gate(self):
        dense = np.zeros((64, 64))
        for g in range(8):
            dense[g * 8 : (g + 1) * 8, np.arange(g * 8, g * 8 + 6)] = 1.0
        m = CSRMatrix.from_dense(dense)
        plan = build_plan(m, ReorderConfig(panel_height=8, force_round1=True))
        assert plan.stats.round1_applied

    def test_diagonal_matrix_plan_is_identity(self):
        m = CSRMatrix.from_dense(np.eye(32))
        plan = build_plan(m, ReorderConfig(siglen=32, panel_height=8))
        # LSH finds nothing -> identity ordering, zero dense tiles.
        np.testing.assert_array_equal(plan.row_order, np.arange(32))
        assert plan.tiled.nnz_dense == 0
        plan.validate(seed=3)

    def test_preprocess_times_recorded(self, rng):
        m = clustered_then_shuffled(rng)
        plan = build_plan(m, ReorderConfig(siglen=64, panel_height=8))
        assert plan.preprocessing_time > 0
        assert "tile" in plan.preprocess_seconds
        assert plan.preprocess_seconds["total"] >= plan.preprocess_seconds["tile"]

    def test_cost_view_uses_remainder(self, rng):
        m = clustered_then_shuffled(rng)
        plan = build_plan(
            m, ReorderConfig(siglen=64, panel_height=8, force_round2=True)
        )
        view = plan.cost_view()
        assert view.sparse_part is plan.remainder
        assert view.dense_part is plan.tiled.dense_part

    def test_empty_matrix(self):
        plan = build_plan(CSRMatrix.empty((8, 8)), ReorderConfig(panel_height=4))
        assert plan.spmm(np.ones((8, 2))).tolist() == np.zeros((8, 2)).tolist()

    def test_stats_deltas(self, rng):
        m = clustered_then_shuffled(rng)
        plan = build_plan(m, ReorderConfig(siglen=64, panel_height=8))
        s = plan.stats
        assert s.delta_dense_ratio == pytest.approx(
            s.dense_ratio_after - s.dense_ratio_before
        )
        assert s.delta_avg_sim == pytest.approx(s.avg_sim_after - s.avg_sim_before)


@pytest.fixture
def tile_calls(monkeypatch):
    """Counts the library's ``tile_matrix`` calls, through every
    ``repro`` module's binding of it."""
    import repro.aspt.tiles

    real = repro.aspt.tiles.tile_matrix
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "tile_matrix", None) is real:
            monkeypatch.setattr(module, "tile_matrix", spy)
    return calls


class TestGateTiling:
    """The round-1 gate tiles the original; a build whose round 1 does not
    run keeps that split as the plan's."""

    @pytest.mark.parametrize("force_round1", [None, False])
    def test_build_without_round1_tiles_once(self, rng, tile_calls, force_round1):
        m = round1_gated_off(rng)
        plan = build_plan(m, ReorderConfig(panel_height=8, force_round1=force_round1))
        assert not plan.stats.round1_applied
        assert len(tile_calls) == 1

    @pytest.mark.parametrize("rung", RUNGS[1:])
    def test_ladder_rungs_without_round1_tile_once(self, rng, tile_calls, rung):
        m = clustered_then_shuffled(rng)
        config = dict(ladder_rungs(ReorderConfig(siglen=64, panel_height=8)))[rung]
        build_plan(m, config)
        assert len(tile_calls) == 1

    def test_reused_split_is_the_plans_split(self, rng):
        m = round1_gated_off(rng)
        for max_dense_cols in (None, 1):
            config = ReorderConfig(panel_height=8, max_dense_cols=max_dense_cols)
            plan = build_plan(m, config)
            want = tile_matrix(m, 8, config.dense_threshold, max_dense_cols=max_dense_cols)
            for part in ("dense_part", "sparse_part"):
                got, ref = getattr(plan.tiled, part), getattr(want, part)
                for field in ("rowptr", "colidx", "values"):
                    np.testing.assert_array_equal(getattr(got, field), getattr(ref, field))
            assert plan.tiled.max_dense_cols == max_dense_cols
            # The gate's indicator is the uncapped ratio of the original.
            assert plan.stats.dense_ratio_before == tile_matrix(m, 8).dense_ratio


class TestDeferredRound2:
    """A plain build leaves round 2 to the plan's first read of it."""

    CONFIG = ReorderConfig(siglen=64, panel_height=8, force_round2=True)

    @pytest.fixture
    def matrix(self, rng):
        return clustered_then_shuffled(rng)

    def test_first_read_runs_round2_once(self, matrix, rng, round2_calls):
        plan = build_plan(matrix, self.CONFIG)
        X = rng.normal(size=(matrix.n_cols, 4))
        plan.session().run(X)
        plan.spmm(X)
        assert plan.tiled.original.nnz == matrix.nnz
        assert round2_calls == []
        assert "sim2" not in plan.preprocess_seconds
        total = plan.preprocessing_time

        stats = plan.stats
        assert len(round2_calls) == 1
        assert {"sim2", "lsh2", "cluster2"} <= plan.preprocess_seconds.keys()
        assert plan.preprocessing_time > total  # its wall-clock joins total
        assert plan.stats is stats
        plan.cost_view()
        PlanDecisions.from_plan(plan)
        assert len(round2_calls) == 1

    def test_concurrent_first_reads_run_round2_once(self, matrix, round2_calls):
        plan = build_plan(matrix, self.CONFIG)
        barrier = threading.Barrier(4)
        seen = []

        def read():
            barrier.wait(timeout=30)
            seen.append(plan.stats)

        threads = [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(round2_calls) == 1
        assert len(seen) == 4 and all(stats == seen[0] for stats in seen)

    @pytest.mark.parametrize("forced", [False, True], ids=["pending", "forced"])
    def test_pickle_round_trip(self, matrix, forced):
        plan = build_plan(matrix, self.CONFIG)
        if forced:
            plan.stats
        restored = pickle.loads(pickle.dumps(plan))
        assert_plans_identical(restored, plan)

    def test_replace_shares_the_computed_round2(self, matrix, round2_calls):
        plan = build_plan(matrix, self.CONFIG)
        stats = plan.stats
        successor = dataclasses.replace(plan, revision=1)
        assert successor.stats is stats
        assert len(round2_calls) == 1

    @pytest.mark.parametrize("force_round2", [None, True, False])
    def test_forced_plan_equals_the_eager_plan(self, matrix, force_round2):
        """On every ladder rung a deferred round 2, once read, is the one a
        store-backed build computes inside the build, for the store's
        write."""
        base = ReorderConfig(siglen=64, panel_height=8, force_round2=force_round2)
        for _, config in ladder_rungs(base):
            eager = build_plan(
                matrix, config, cache=PlanStore(), resilience=ResiliencePolicy()
            )
            assert "sim2" in eager.preprocess_seconds
            lazy = build_plan(matrix, config)
            assert_plans_identical(lazy, eager)
            assert lazy.preprocess_seconds.keys() | {"cache_lookup"} == (
                eager.preprocess_seconds.keys()
            )

    @pytest.mark.parametrize("stored", [False, True], ids=["no-store", "store"])
    def test_a_policy_build_reads_round2_only_for_the_store(
        self, matrix, round2_calls, monkeypatch, stored
    ):
        """Under a policy round 2 stays pending, as in a plain build,
        unless a plan store's write reads it inside the build, under the
        rung's deadline."""
        stages = []
        check = Deadline.check

        def recording(deadline, stage=""):
            stages.append(stage)
            check(deadline, stage)

        monkeypatch.setattr(Deadline, "check", recording)
        cache = PlanStore() if stored else None
        plan = build_plan(
            matrix, self.CONFIG, cache=cache,
            resilience=ResiliencePolicy(deadline_s=3600.0),
        )
        assert plan.provenance == ("full: ok",)
        assert len(round2_calls) == int(stored)
        assert ("sim2" in plan.preprocess_seconds) == stored
        assert ("sim2" in stages) == stored
        plan.stats
        assert len(round2_calls) == 1
        assert {"sim2", "lsh2", "cluster2"} <= plan.preprocess_seconds.keys()

    def test_a_read_under_an_expired_deadline_stays_pending(self, matrix):
        plan = build_plan(matrix, self.CONFIG)
        built = dict(plan.preprocess_seconds)
        with pytest.raises(TimeoutExceeded, match="sim2"):
            plan._round2.get(plan.preprocess_seconds, Deadline.after(0.0))
        assert plan.preprocess_seconds == built
        assert plan.stats.round2_applied

    def test_round2_fault_under_a_policy_drops_a_rung(self, rng):
        """Through a store round 2 runs inside rung 0, for the store's
        write, so a fault in its clustering settles at ``identity`` and
        nothing is stored."""
        m = round1_gated_off(rng)
        store = PlanStore()
        with FaultInjector(
            rate=1.0, sites=["clustering.cluster"], max_faults=1
        ), pytest.warns(DegradedExecution):
            plan = build_plan(
                m, ReorderConfig(panel_height=8), cache=store,
                resilience=ResiliencePolicy(),
            )
        assert plan.provenance[0].startswith("full: TimeoutExceeded")
        assert plan.provenance[1:] == ("identity: ok",)
        assert len(store.memory) == 0
        X = rng.normal(size=(m.n_cols, 4))
        np.testing.assert_array_equal(plan.session().run(X), spmm(m, X))

    def test_failed_first_read_charges_one_run(self, rng, monkeypatch):
        """A round 2 that raises adds no time and stays pending, so the
        read that then succeeds charges exactly one run."""
        from repro.reorder import pipeline
        from repro.util import timing

        # Every clock read advances one second: equal work, equal times.
        ticks = itertools.count()
        monkeypatch.setattr(
            pipeline,
            "timed",
            functools.partial(timing.timed, clock=lambda: float(next(ticks))),
        )
        m = round1_gated_off(rng)
        config = ReorderConfig(panel_height=8)
        clean = build_plan(m, config)
        clean.stats
        plan = build_plan(m, config)
        built = dict(plan.preprocess_seconds)
        with FaultInjector(rate=1.0, sites=["clustering.cluster"], max_faults=1):
            with pytest.raises(TimeoutExceeded):
                plan.stats
        assert plan.preprocess_seconds == built
        plan.stats
        assert plan.preprocess_seconds == clean.preprocess_seconds
        assert plan.preprocess_seconds["sim2"] == 1.0

    def test_build_plans_returns_a_round2_failure(self, rng):
        """A batch runs each plan's round 2 where it built the plan, so a
        round-2 failure comes back as that result's error."""
        m = round1_gated_off(rng)
        config = ReorderConfig(panel_height=8)
        with FaultInjector(rate=1.0, sites=["clustering.cluster"], max_faults=1):
            (failed,) = build_plans([m], config)
        assert not failed.ok
        assert failed.error.startswith("TimeoutExceeded")
        (built,) = build_plans([m], config)
        assert "sim2" in built.plan.preprocess_seconds


class TestDegradationLadder:
    """A policy build that fails at ``full`` settles at ``identity``, the
    floor, which runs no reordering round and no deadline."""

    CONFIG = ReorderConfig(siglen=64, panel_height=8, force_round1=True)

    def test_a_round1_timeout_runs_round1_once(self, rng, monkeypatch):
        """Without a store ``full`` runs round 1 and the tiling only, so
        its timeout goes straight to ``identity``, with no second round
        1."""
        m = clustered_then_shuffled(rng)
        check = Deadline.check

        def lsh_overruns(deadline, stage=""):
            check(Deadline.after(0.0) if stage == "lsh" else deadline, stage)

        monkeypatch.setattr(Deadline, "check", lsh_overruns)
        tracer = Tracer()
        with tracing(tracer), pytest.warns(DegradedExecution, match="identity"):
            plan = build_plan(
                m, self.CONFIG, resilience=ResiliencePolicy(deadline_s=3600.0)
            )
        events = tracer.chrome_trace()["traceEvents"]
        assert [e["name"] for e in events].count("lsh1") == 1
        assert plan.provenance == (
            "full: TimeoutExceeded: lsh exceeded its 0s deadline",
            "identity: ok",
        )
        assert not plan.stats.round1_applied
        X = rng.normal(size=(m.n_cols, 8))
        np.testing.assert_array_equal(plan.session().run(X), spmm(m, X))

    @pytest.mark.parametrize("stored", [False, True], ids=["no-store", "store"])
    def test_a_zero_deadline_settles_at_identity(self, rng, stored):
        m = clustered_then_shuffled(rng)
        store = PlanStore() if stored else None
        with pytest.warns(DegradedExecution, match="identity"):
            plan = build_plan(
                m, self.CONFIG, cache=store,
                resilience=ResiliencePolicy(deadline_s=0.0),
            )
        assert plan.provenance == (
            "full: TimeoutExceeded: minhash exceeded its 0s deadline",
            "identity: ok",
        )
        assert store is None or len(store.memory) == 0
        X = rng.normal(size=(m.n_cols, 8))
        np.testing.assert_array_equal(plan.session().run(X), spmm(m, X))

    def test_full_is_the_floor_when_both_rounds_are_off(self, rng):
        """With no ``identity`` rung to fall to, ``full`` runs without a
        deadline."""
        m = clustered_then_shuffled(rng)
        config = ReorderConfig(panel_height=8, force_round1=False, force_round2=False)
        plan = build_plan(m, config, resilience=ResiliencePolicy(deadline_s=0.0))
        assert plan.provenance == ("full: ok",)
        assert_plans_identical(plan, build_plan(m, config))


class TestAutotune:
    def test_reordering_wins_on_hidden_clusters(self, rng):
        m = clustered_then_shuffled(rng, n_clusters=16, rows_per=16, n_cols=1024)
        executor = GPUExecutor(P100.with_overrides(l2_bytes=64 * 1024))
        result = autotune(
            m, 512, executor=executor,
            config=ReorderConfig(siglen=64, panel_height=16, threshold_size=64),
        )
        assert isinstance(result, AutotuneResult)
        assert result.use_reordering
        assert result.speedup > 1.0
        result.plan.validate(seed=4)

    def test_plain_wins_on_already_clustered(self):
        # Pre-clustered matrix: reordering can only break things or tie;
        # autotune must fall back to the non-reordered plan when slower.
        dense = np.zeros((128, 256))
        rng = np.random.default_rng(0)
        for g in range(16):
            cols = rng.choice(256, size=12, replace=False)
            dense[g * 8 : (g + 1) * 8, cols] = 1.0
        m = CSRMatrix.from_dense(dense)
        result = autotune(
            m, 512,
            config=ReorderConfig(siglen=32, panel_height=8, force_round1=True, force_round2=True),
        )
        # Either choice must be internally consistent:
        if result.use_reordering:
            assert result.cost_reordered.time_s <= result.cost_plain.time_s
        else:
            assert result.cost_plain.time_s < result.cost_reordered.time_s

    def test_invalid_op(self, paper_matrix):
        with pytest.raises(ValidationError):
            autotune(paper_matrix, 512, op="spgemm")

    def test_sddmm_op(self, rng):
        m = clustered_then_shuffled(rng)
        result = autotune(m, 512, op="sddmm", config=ReorderConfig(siglen=32, panel_height=8))
        assert result.cost_reordered.op == "sddmm"


class TestPlanPersistence:
    @pytest.mark.parametrize("rung", RUNGS)
    @pytest.mark.parametrize("max_dense_cols", [None, 2])
    def test_save_load_roundtrip(self, rng, tmp_path, max_dense_cols, rung):
        """A disk-tier hit in a fresh process's store rebuilds the plan a
        fresh build made, on every ladder rung, capped or not, with a
        dense threshold that is not the default, and the GPU model costs
        the two alike."""
        m = clustered_then_shuffled(rng, n_clusters=24, rows_per=6, n_cols=512)
        config = dict(
            ladder_rungs(
                ReorderConfig(
                    siglen=32, panel_height=8, dense_threshold=3,
                    max_dense_cols=max_dense_cols,
                )
            )
        )[rung]
        plan = build_plan(m, config, cache=PlanStore(cache_dir=tmp_path))
        # A fresh memory tier, so the entry comes off disk.
        store = PlanStore(cache_dir=tmp_path)
        loaded = build_plan(m, config, cache=store)
        assert store.stats()["disk"]["hits"] == 1
        assert_plans_identical(loaded, plan)
        X = rng.normal(size=(m.n_cols, 4))
        np.testing.assert_array_equal(loaded.spmm(X), plan.spmm(X))
        ex = GPUExecutor()
        assert (
            ex.spmm_cost(loaded.cost_view(), 128, "aspt").time_s
            == ex.spmm_cost(plan.cost_view(), 128, "aspt").time_s
        )
