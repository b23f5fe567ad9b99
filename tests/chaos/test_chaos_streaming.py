"""Chaos tests for streaming updates (the ``streaming.update`` site).

Contract: an interrupted :func:`~repro.streaming.apply_delta` must never
leave a torn plan — the caller either gets the complete new plan or keeps
the complete old one.  An injected fault propagates, and retrying once
the fault clears converges to exactly the from-scratch result.
"""

import numpy as np
import pytest

from repro.datasets import hidden_clusters
from repro.errors import TimeoutExceeded
from repro.reorder import ReorderConfig, build_plan
from repro.resilience import FaultInjector, ResiliencePolicy
from repro.streaming import (
    DeltaBatch,
    StreamingPlan,
    apply_delta,
    split_into_deltas,
)

CFG = ReorderConfig(siglen=16, bsize=4, panel_height=8, force_round1=True)


@pytest.fixture
def matrix():
    return hidden_clusters(24, 8, 512, 8, noise=0.1, seed=5)


@pytest.fixture
def delta(matrix):
    rng = np.random.default_rng(9)
    k = 10
    return DeltaBatch(
        rows=rng.integers(0, matrix.n_rows, size=k),
        cols=rng.integers(0, matrix.n_cols, size=k),
        values=rng.normal(size=k),
    )


def set_deltas(matrix, n, seed=4, k=10):
    """``n`` value-only deltas, each overwriting ``k`` existing entries."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        idx = np.sort(rng.choice(matrix.nnz, size=k, replace=False))
        out.append(
            DeltaBatch(
                rows=matrix.row_ids()[idx], cols=matrix.colidx[idx],
                values=rng.normal(size=k), mode="set",
            )
        )
    return out


def apply_through_a_fault(sp, delta, injector, x):
    """``sp.apply(delta)``.  When a fault fires, the previous plan must
    still be installed and bitwise-equal to a fresh build of its matrix,
    and re-applying the delta with the injector paused must succeed."""
    before = sp.plan
    try:
        return sp.apply(delta)
    except TimeoutExceeded:
        assert sp.plan is before
        fresh = build_plan(before.original, CFG)
        assert plans_identical(before, fresh)
        np.testing.assert_array_equal(before.spmm(x), fresh.spmm(x))
    injector.uninstall()
    try:
        return sp.apply(delta)
    finally:
        injector.install()


def plans_identical(a, b) -> bool:
    return (
        np.array_equal(a.row_order, b.row_order)
        and np.array_equal(a.remainder_order, b.remainder_order)
        and a.stats == b.stats
        and np.array_equal(a.tiled.dense_part.values, b.tiled.dense_part.values)
        and np.array_equal(a.tiled.sparse_part.values, b.tiled.sparse_part.values)
    )


class TestTornPlanSafety:
    def test_interrupted_update_leaves_old_plan_intact(
        self, matrix, delta, chaos_seed
    ):
        """The injected fault propagates — and the StreamingPlan still
        serves the *complete* pre-update plan."""
        sp = StreamingPlan(matrix, CFG)
        before = sp.plan
        x = np.random.default_rng(1).normal(size=(matrix.n_cols, 4))
        y_before = before.spmm(x)
        with FaultInjector(
            rate=1.0, seed=chaos_seed, sites=["streaming.update"], max_faults=1
        ):
            with pytest.raises(TimeoutExceeded):
                sp.apply(delta)
        assert sp.plan is before
        assert sp.revision == 0
        assert sp.reports == []
        np.testing.assert_array_equal(sp.plan.spmm(x), y_before)

    def test_interrupted_value_only_update_leaves_old_plan_intact(
        self, matrix, chaos_seed
    ):
        """A value-only delta passes the same site before it keeps the
        plan's decisions; the interrupted update leaves the old plan, and
        the retry patches it."""
        (delta,) = set_deltas(matrix, 1)
        sp = StreamingPlan(matrix, CFG)
        before = sp.plan
        with FaultInjector(
            rate=1.0, seed=chaos_seed, sites=["streaming.update"], max_faults=1
        ):
            with pytest.raises(TimeoutExceeded):
                sp.apply(delta)
        assert sp.plan is before and sp.reports == []
        assert sp.apply(delta).patched
        assert plans_identical(sp.plan, build_plan(delta.apply_to(matrix), CFG))

    def test_resumed_update_converges(self, matrix, delta, chaos_seed):
        """Retrying the same delta after the fault clears produces exactly
        the from-scratch plan for the mutated matrix."""
        sp = StreamingPlan(matrix, CFG)
        with FaultInjector(
            rate=1.0, seed=chaos_seed, sites=["streaming.update"], max_faults=1
        ):
            with pytest.raises(TimeoutExceeded):
                sp.apply(delta)
        report = sp.apply(delta)  # no injector: must succeed
        assert report.mode == "replanned"  # the delta inserts entries
        fresh = build_plan(delta.apply_to(matrix), CFG)
        assert plans_identical(sp.plan, fresh)
        assert sp.revision == 1

    def test_input_plan_and_state_never_mutated(self, matrix, delta, chaos_seed):
        """The interrupted update leaves the input plan and the matrix
        state it serves as they were."""
        plan0 = build_plan(matrix, CFG)
        order0 = plan0.row_order.copy()
        values0 = matrix.values.copy()
        with FaultInjector(
            rate=1.0, seed=chaos_seed, sites=["streaming.update"], max_faults=1
        ):
            with pytest.raises(TimeoutExceeded):
                apply_delta(plan0, delta, CFG)
        np.testing.assert_array_equal(plan0.row_order, order0)
        assert plan0.original is matrix
        np.testing.assert_array_equal(matrix.values, values0)


class TestDegradedUpdates:
    def test_degraded_plan_triggers_recovery_replan(self, matrix, delta):
        """A plan that settled below the full rung is not patched — the
        next update replans to recover, and says why."""
        policy = ResiliencePolicy(deadline_s=0.0)  # every rung times out
        degraded = build_plan(matrix, CFG, resilience=policy)
        assert degraded.degraded
        update = apply_delta(degraded, delta, CFG)
        assert update.report.mode == "replanned"
        assert "degraded" in update.report.reason


class TestChaosRate:
    def test_stream_replay_correct_under_sustained_injection(
        self, matrix, chaos_rate, chaos_seed
    ):
        """At the configured chaos rate every update completes, on the
        first try or on the retry after its fault, and the surviving plan
        is always bitwise-equal to a from-scratch build on the same
        matrix."""
        base, deltas = split_into_deltas(matrix, 6, seed=3, grow_rows=False)
        sp = StreamingPlan(base, CFG)
        x = np.random.default_rng(2).normal(size=(matrix.n_cols, 4))
        with FaultInjector(
            rate=chaos_rate, seed=chaos_seed, sites=["streaming.update"]
        ) as injector:
            for delta in deltas:
                apply_through_a_fault(sp, delta, injector, x)
                fresh = build_plan(sp.matrix, CFG)
                np.testing.assert_array_equal(sp.plan.spmm(x), fresh.spmm(x))
        assert injector.checked["streaming.update"] == len(deltas)
        assert sp.revision == len(deltas)
        np.testing.assert_array_equal(sp.matrix.values, matrix.values)

    def test_value_only_stream_correct_under_sustained_injection(
        self, matrix, chaos_rate, chaos_seed
    ):
        """The same for a stream of value-only deltas: each is patched,
        on the first try or on the retry, and always equals a fresh
        build."""
        sp = StreamingPlan(matrix, CFG)
        x = np.random.default_rng(2).normal(size=(matrix.n_cols, 4))
        deltas = set_deltas(matrix, 6)
        with FaultInjector(
            rate=chaos_rate, seed=chaos_seed, sites=["streaming.update"]
        ) as injector:
            for delta in deltas:
                assert apply_through_a_fault(sp, delta, injector, x).patched
                fresh = build_plan(sp.matrix, CFG)
                np.testing.assert_array_equal(sp.plan.spmm(x), fresh.spmm(x))
                assert plans_identical(sp.plan, fresh)
        assert injector.checked["streaming.update"] == len(deltas)
        assert sp.revision == len(deltas)
