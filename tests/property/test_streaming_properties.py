"""Hypothesis equivalence suite for the streaming subsystem.

The contract under test is the module contract of
:mod:`repro.streaming.incremental`: everything incremental must be
*indistinguishable* from doing the work from scratch.

* :func:`~repro.streaming.split_into_deltas` replay reproduces the source
  matrix bit for bit;
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
from repro.sparse import CSRMatrix
from repro.streaming import DeltaBatch, apply_delta, split_into_deltas
from repro.util.arrayops import counts_to_offsets

from conftest import assert_plans_identical
from test_sparse_properties import csr_matrices

#: Small but fully active pipeline: round 1 forced on so every example
#: carries a real row order and clustering decision.
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


def random_deltas(rng, csr, k):
    """An ``add`` of ``k`` random entries (structural as a rule) and a
    ``set`` of ``k`` existing ones (value-only)."""
    add = DeltaBatch(
        rows=rng.integers(0, csr.n_rows, size=k),
        cols=rng.integers(0, csr.n_cols, size=k),
        values=rng.normal(size=k),
    )
    idx = np.sort(rng.choice(csr.nnz, size=min(k, csr.nnz), replace=False))
    set_ = DeltaBatch(
        rows=csr.row_ids()[idx], cols=csr.colidx[idx],
        values=rng.normal(size=idx.size), mode="set",
    )
    return add, set_


def assert_bitwise_spmm(patched, matrix, seed=3, k=4):
    """The updated plan's multiply and its session's executor path both
    equal a direct ``spmm`` of the final ``matrix``, bit for bit."""
    x = np.random.default_rng(seed).normal(size=(matrix.n_cols, k))
    want = spmm(matrix, x)
    np.testing.assert_array_equal(patched.spmm(x), want)
    np.testing.assert_array_equal(patched.session().run(x), want)


def _sum_by_resorting(csr, delta):
    """An ``add`` delta applied by re-sorting the whole matrix: every old
    entry, then the batch, stably sorted by row and canonicalised by
    ``CSRMatrix.from_arrays``."""
    m_new = csr.n_rows + delta.new_rows
    rows = np.concatenate([csr.row_ids(), delta.rows])
    order = np.argsort(rows, kind="stable")
    return CSRMatrix.from_arrays(
        (m_new, csr.n_cols),
        counts_to_offsets(np.bincount(rows, minlength=m_new)),
        np.concatenate([csr.colidx, delta.cols])[order],
        np.concatenate([csr.values, delta.values])[order],
    )


@st.composite
def add_batches(draw):
    """A matrix (possibly without entries) and an ``add`` delta whose
    entries repeat one another, land on existing entries and fill
    appended rows; values span 24 decades, so any change in the order
    duplicates are summed in shows in the bits."""
    csr = draw(st.one_of(
        csr_matrices(max_dim=10, max_nnz=30),
        st.integers(1, 6).map(lambda n: CSRMatrix.empty((0, n))),
    ))
    grow = draw(st.integers(0 if csr.n_rows else 1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    k = draw(st.integers(0, 12))
    rows = rng.integers(0, csr.n_rows + grow, size=k)
    cols = rng.integers(0, csr.n_cols, size=k)
    if csr.nnz:
        onto = rng.random(k) < 0.4
        at = rng.integers(0, csr.nnz, size=k)
        rows = np.where(onto, csr.row_ids()[at], rows)
        cols = np.where(onto, csr.colidx[at], cols)
    repeat = rng.integers(0, k + 1)
    rows = np.concatenate([rows, rows[:repeat]])
    cols = np.concatenate([cols, cols[:repeat]])
    values = rng.normal(size=rows.size) * 10.0 ** rng.integers(-12, 12, size=rows.size)
    values[rng.random(rows.size) < 0.1] = -0.0
    return csr, DeltaBatch(rows=rows, cols=cols, values=values, new_rows=grow)


class TestAddMerge:
    @given(add_batches())
    @settings(max_examples=300, deadline=None)
    def test_merge_equals_resorting_the_whole_matrix(self, case):
        csr, delta = case
        got = delta.apply_to(csr)
        want = _sum_by_resorting(csr, delta)
        assert got.shape == want.shape
        assert got.rowptr.dtype == got.colidx.dtype == np.int64
        np.testing.assert_array_equal(got.rowptr, want.rowptr)
        np.testing.assert_array_equal(got.colidx, want.colidx)
        assert got.values.dtype == np.float64
        assert got.values.tobytes() == want.values.tobytes()


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


class TestPatchedPlanEquivalence:
    @given(matrix_with_add_delta())
    @settings(max_examples=25, deadline=None)
    def test_apply_delta_equals_fresh_build(self, case):
        csr, delta = case
        plan0 = build_plan(csr, CFG)
        update = apply_delta(plan0, delta, CFG)
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
        update = apply_delta(plan0, delta, CFG)
        assert update.report.patched
        mutated = delta.apply_to(csr)
        fresh = build_plan(mutated, CFG)
        assert_plans_identical(update.plan, fresh)
        assert_bitwise_spmm(update.plan, mutated)

    @given(matrix_with_set_delta())
    @settings(max_examples=15, deadline=None)
    def test_value_only_delta_reuses_a_computed_round2(self, case):
        """The successor of a plan whose round 2 has run carries that
        round 2 over, with the remainder re-permuted from the new values,
        and still equals a fresh build."""
        csr, delta = case
        plan0 = build_plan(csr, CFG)
        plan0.stats
        update = apply_delta(plan0, delta, CFG)
        assert update.report.patched
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
        update = apply_delta(plan0, delta, CFG)
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
        current = base
        for delta in deltas:
            sp_plan = apply_delta(sp_plan, delta, CFG).plan
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
    fresh build at that rung (the ladder rungs are just configs), for a
    structural delta and a value-only one."""

    def test_rung_equivalence(self, label, rung_config, rng):
        from conftest import random_csr

        csr = random_csr(rng, 48, 32, density=0.12)
        plan0 = build_plan(csr, rung_config)
        for delta in random_deltas(rng, csr, 12):
            update = apply_delta(plan0, delta, rung_config)
            mutated = delta.apply_to(csr)
            fresh = build_plan(mutated, rung_config)
            assert_plans_identical(update.plan, fresh)
            assert_bitwise_spmm(update.plan, mutated)


class TestPerBackend:
    def test_patched_plan_bitwise_per_backend(self, rng, backend_name):
        """A session on the updated plan and one on the fresh plan produce
        bitwise-identical results on every registered backend."""
        from conftest import random_csr

        csr = random_csr(rng, 40, 24, density=0.15)
        config = ReorderConfig(
            siglen=16, bsize=4, panel_height=4, force_round1=True,
            backend=backend_name,
        )
        plan0 = build_plan(csr, config)
        x = rng.normal(size=(csr.n_cols, 5))
        for delta in random_deltas(rng, csr, 6):
            update = apply_delta(plan0, delta, config)
            fresh = build_plan(delta.apply_to(csr), config)
            patched_s = KernelSession(update.plan, backend=backend_name)
            fresh_s = KernelSession(fresh, backend=backend_name)
            try:
                np.testing.assert_array_equal(patched_s.run(x), fresh_s.run(x))
            finally:
                patched_s.close()
                fresh_s.close()
