"""Hypothesis equivalence suite for the streaming subsystem.

The contract under test is the module contract of
:mod:`repro.streaming.incremental`: everything incremental must be
*indistinguishable* from doing the work from scratch.

* :func:`~repro.streaming.split_into_deltas` replay reproduces the source
  matrix bit for bit;
* an incrementally updated :class:`~repro.streaming.LshState` (signatures,
  band keys, candidate pairs, scores) equals a from-scratch build on the
  mutated matrix;
* the plan returned by :func:`~repro.streaming.apply_delta` — patched *or*
  replanned — is decision-identical to a fresh
  :func:`~repro.reorder.build_plan` on the mutated matrix, and its
  multiplies are bitwise-equal, per kernel backend and per ladder rung.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.kernels import KernelSession, spmm
from repro.reorder import ReorderConfig, build_plan
from repro.resilience import ladder_rungs
from repro.streaming import DeltaBatch, LshState, apply_delta, split_into_deltas

from test_sparse_properties import csr_matrices

#: Small but fully active pipeline: round 1 forced on so the LSH state /
#: clustering-reuse machinery is exercised on every example.
CFG = ReorderConfig(
    siglen=16, bsize=4, panel_height=4, threshold_size=16, force_round1=True
)


@st.composite
def matrix_with_add_delta(draw):
    """A CSR matrix plus a valid add-mode delta (possibly growing rows)."""
    csr = draw(csr_matrices(max_dim=10, max_nnz=30))
    assume(csr.n_rows > 0 and csr.n_cols > 0)
    seed = draw(st.integers(0, 2**16))
    k = draw(st.integers(1, 8))
    grow = draw(st.integers(0, 2))
    rng = np.random.default_rng(seed)
    delta = DeltaBatch(
        rows=rng.integers(0, csr.n_rows + grow, size=k),
        cols=rng.integers(0, csr.n_cols, size=k),
        values=rng.normal(size=k),
        new_rows=grow,
    )
    return csr, delta


@st.composite
def matrix_with_set_delta(draw):
    """A CSR matrix plus a value-only delta over existing entries."""
    csr = draw(csr_matrices(max_dim=10, max_nnz=30))
    assume(csr.nnz > 0)
    seed = draw(st.integers(0, 2**16))
    k = draw(st.integers(1, min(8, csr.nnz)))
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(csr.nnz, size=k, replace=False))
    delta = DeltaBatch(
        rows=csr.row_ids()[idx],
        cols=csr.colidx[idx],
        values=rng.normal(size=k),
        mode="set",
    )
    return csr, delta


def assert_plans_identical(patched, fresh):
    """Decision identity: same orders, same tiling, same stats, and the
    same reordered matrix the executor multiplies."""
    np.testing.assert_array_equal(patched.row_order, fresh.row_order)
    np.testing.assert_array_equal(patched.remainder_order, fresh.remainder_order)
    assert patched.stats == fresh.stats
    for part in ("original", "dense_part", "sparse_part"):
        p, f = getattr(patched.tiled, part), getattr(fresh.tiled, part)
        np.testing.assert_array_equal(p.rowptr, f.rowptr)
        np.testing.assert_array_equal(p.colidx, f.colidx)
        np.testing.assert_array_equal(p.values, f.values)
    np.testing.assert_array_equal(patched.remainder.values, fresh.remainder.values)


def assert_bitwise_spmm(patched, matrix, seed=3, k=4):
    """The patched plan's multiply and its session's executor path both
    equal a direct ``spmm`` of the final ``matrix``, bit for bit."""
    x = np.random.default_rng(seed).normal(size=(matrix.n_cols, k))
    want = spmm(matrix, x)
    np.testing.assert_array_equal(patched.spmm(x), want)
    np.testing.assert_array_equal(patched.session().run(x), want)


class TestSplitReplay:
    @given(csr_matrices(max_dim=10, max_nnz=30), st.integers(1, 5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_replay_reproduces_matrix_bitwise(self, csr, n_batches, grow):
        base, deltas = split_into_deltas(csr, n_batches, seed=1, grow_rows=grow)
        out = base
        for delta in deltas:
            out = delta.apply_to(out)
        assert out.shape == csr.shape
        np.testing.assert_array_equal(out.rowptr, csr.rowptr)
        np.testing.assert_array_equal(out.colidx, csr.colidx)
        np.testing.assert_array_equal(out.values, csr.values)

    @given(csr_matrices(max_dim=10, max_nnz=30), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_every_event_emitted_exactly_once(self, csr, n_batches):
        base, deltas = split_into_deltas(csr, n_batches, seed=2, grow_rows=False)
        assert base.nnz + sum(d.n_entries for d in deltas) >= csr.nnz
        assert [d.timestamp for d in deltas] == sorted(
            d.timestamp for d in deltas
        )


class TestIncrementalState:
    @given(matrix_with_add_delta())
    @settings(max_examples=40, deadline=None)
    def test_state_update_equals_from_scratch(self, case):
        csr, delta = case
        state0 = LshState.build(csr, CFG)
        mutated = delta.apply_to(csr)
        updated, _ = state0.update(
            mutated, delta.dirty_existing_rows(csr.n_rows), delta.new_rows, CFG
        )
        fresh = LshState.build(mutated, CFG)
        np.testing.assert_array_equal(updated.signatures, fresh.signatures)
        np.testing.assert_array_equal(updated.band_keys, fresh.band_keys)
        np.testing.assert_array_equal(updated.pairs, fresh.pairs)
        np.testing.assert_array_equal(updated.sims, fresh.sims)

    @given(matrix_with_set_delta())
    @settings(max_examples=25, deadline=None)
    def test_value_only_delta_leaves_state_invariant(self, case):
        """Signatures and buckets are pattern functions: recomputing the
        dirty rows of a value-only delta must change nothing."""
        csr, delta = case
        state0 = LshState.build(csr, CFG)
        mutated = delta.apply_to(csr)
        updated, _ = state0.update(
            mutated, delta.dirty_existing_rows(csr.n_rows), 0, CFG
        )
        np.testing.assert_array_equal(updated.signatures, state0.signatures)
        np.testing.assert_array_equal(updated.band_keys, state0.band_keys)
        np.testing.assert_array_equal(updated.pairs, state0.pairs)
        np.testing.assert_array_equal(updated.sims, state0.sims)


class TestPatchedPlanEquivalence:
    @given(matrix_with_add_delta())
    @settings(max_examples=25, deadline=None)
    def test_apply_delta_equals_fresh_build(self, case):
        csr, delta = case
        plan0 = build_plan(csr, CFG)
        state0 = LshState.build(csr, CFG)
        update = apply_delta(
            plan0, delta, CFG, state=state0, max_dirty_fraction=1.0
        )
        mutated = delta.apply_to(csr)
        fresh = build_plan(mutated, CFG)
        assert update.plan.revision == plan0.revision + 1
        assert_plans_identical(update.plan, fresh)
        assert_bitwise_spmm(update.plan, mutated)

    @given(matrix_with_set_delta())
    @settings(max_examples=25, deadline=None)
    def test_value_only_delta_patches_and_matches(self, case):
        csr, delta = case
        plan0 = build_plan(csr, CFG)
        state0 = LshState.build(csr, CFG)
        update = apply_delta(
            plan0, delta, CFG, state=state0, max_dirty_fraction=1.0
        )
        assert update.report.patched
        assert update.report.reused_clustering
        mutated = delta.apply_to(csr)
        fresh = build_plan(mutated, CFG)
        assert_plans_identical(update.plan, fresh)
        assert_bitwise_spmm(update.plan, mutated)

    @given(matrix_with_add_delta())
    @settings(max_examples=15, deadline=None)
    def test_heuristic_path_also_equals_fresh_build(self, case):
        """With the default drift threshold the update may patch *or*
        replan — either way the result must equal a fresh build."""
        csr, delta = case
        plan0 = build_plan(csr, CFG)
        state0 = LshState.build(csr, CFG)
        update = apply_delta(plan0, delta, CFG, state=state0)
        mutated = delta.apply_to(csr)
        fresh = build_plan(mutated, CFG)
        assert_plans_identical(update.plan, fresh)
        assert_bitwise_spmm(update.plan, mutated)


@pytest.mark.slow
class TestDeepEquivalence:
    """Deep sweep for the scheduled lane: many more examples and longer
    delta chains than the fast lane's budget allows."""

    @given(matrix_with_add_delta())
    @settings(max_examples=150, deadline=None)
    def test_apply_delta_equals_fresh_build_deep(self, case):
        csr, delta = case
        plan0 = build_plan(csr, CFG)
        state0 = LshState.build(csr, CFG)
        update = apply_delta(
            plan0, delta, CFG, state=state0, max_dirty_fraction=1.0
        )
        mutated = delta.apply_to(csr)
        fresh = build_plan(mutated, CFG)
        assert_plans_identical(update.plan, fresh)
        assert_bitwise_spmm(update.plan, mutated)

    @given(csr_matrices(max_dim=12, max_nnz=40), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_chained_updates_track_fresh_builds(self, csr, n_batches):
        """A whole stream of updates: after every batch the maintained
        plan equals a from-scratch build on the current matrix."""
        base, deltas = split_into_deltas(csr, n_batches, seed=7, grow_rows=True)
        sp_plan = build_plan(base, CFG)
        state = LshState.build(base, CFG)
        current = base
        for delta in deltas:
            update = apply_delta(
                sp_plan, delta, CFG, state=state, max_dirty_fraction=1.0
            )
            sp_plan, state = update.plan, update.state
            current = delta.apply_to(current)
            fresh = build_plan(current, CFG)
            assert_plans_identical(sp_plan, fresh)


@pytest.mark.parametrize(
    "label,rung_config",
    ladder_rungs(ReorderConfig(siglen=16, bsize=4, panel_height=4)),
    ids=[r[0] for r in ladder_rungs(ReorderConfig(siglen=16, bsize=4, panel_height=4))],
)
class TestPerLadderRung:
    """apply_delta on a plan built at each ladder rung's config equals a
    fresh build at that rung (the ladder rungs are just configs)."""

    def test_rung_equivalence(self, label, rung_config, rng):
        from conftest import random_csr

        csr = random_csr(rng, 48, 32, density=0.12)
        plan0 = build_plan(csr, rung_config)
        state0 = (
            LshState.build(csr, rung_config)
            if plan0.stats.round1_applied
            else None
        )
        k = 12
        delta = DeltaBatch(
            rows=rng.integers(0, csr.n_rows, size=k),
            cols=rng.integers(0, csr.n_cols, size=k),
            values=rng.normal(size=k),
        )
        update = apply_delta(
            plan0, delta, rung_config, state=state0, max_dirty_fraction=1.0
        )
        mutated = delta.apply_to(csr)
        fresh = build_plan(mutated, rung_config)
        assert_plans_identical(update.plan, fresh)
        assert_bitwise_spmm(update.plan, mutated)


class TestPerBackend:
    def test_patched_plan_bitwise_per_backend(self, rng, backend_name):
        """A session on the patched plan and one on the fresh plan produce
        bitwise-identical results on every registered backend."""
        from conftest import random_csr

        csr = random_csr(rng, 40, 24, density=0.15)
        config = ReorderConfig(
            siglen=16, bsize=4, panel_height=4, force_round1=True,
            backend=backend_name,
        )
        plan0 = build_plan(csr, config)
        state0 = LshState.build(csr, config)
        k = 6
        delta = DeltaBatch(
            rows=rng.integers(0, csr.n_rows, size=k),
            cols=rng.integers(0, csr.n_cols, size=k),
            values=rng.normal(size=k),
        )
        update = apply_delta(
            plan0, delta, config, state=state0, max_dirty_fraction=1.0
        )
        fresh = build_plan(delta.apply_to(csr), config)
        x = rng.normal(size=(csr.n_cols, 5))
        patched_s = KernelSession(update.plan, backend=backend_name)
        fresh_s = KernelSession(fresh, backend=backend_name)
        try:
            np.testing.assert_array_equal(patched_s.run(x), fresh_s.run(x))
        finally:
            patched_s.close()
            fresh_s.close()
