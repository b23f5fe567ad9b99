"""Unit tests for the streaming subsystem: deltas, streams, incremental
replanning, session refresh and the plan-store staleness regression."""

import numpy as np
import pytest

from repro.datasets import edge_stream, hidden_clusters, stream_corpus
from repro.errors import ValidationError
from repro.kernels import KernelSession, spmm
from repro.planstore import PlanStore
from repro.reorder import ReorderConfig, build_plan
from repro.sparse import COOMatrix, CSRMatrix
from repro.streaming import (
    DeltaBatch,
    LshState,
    StreamingPlan,
    apply_delta,
    split_into_deltas,
)

from conftest import random_csr

CFG = ReorderConfig(siglen=16, bsize=4, panel_height=8, force_round1=True)


def small_matrix():
    dense = np.array(
        [
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 3.0, 0.0, 0.0],
            [4.0, 0.0, 0.0, 5.0],
        ]
    )
    return CSRMatrix.from_dense(dense)


class TestDeltaBatch:
    def test_add_accumulates_and_inserts(self):
        m = small_matrix()
        delta = DeltaBatch(
            rows=np.array([0, 1]), cols=np.array([0, 0]),
            values=np.array([10.0, 7.0]),
        )
        out = delta.apply_to(m)
        assert out.to_dense()[0, 0] == 11.0  # accumulated onto existing
        assert out.to_dense()[1, 0] == 7.0  # inserted
        assert out.nnz == m.nnz + 1

    def test_add_grows_rows(self):
        m = small_matrix()
        delta = DeltaBatch(
            rows=np.array([4]), cols=np.array([1]), values=np.array([2.5]),
            new_rows=2,
        )
        out = delta.apply_to(m)
        assert out.shape == (5, 4)
        assert out.to_dense()[4, 1] == 2.5
        assert out.to_dense()[3].sum() == 0.0  # appended-but-empty row

    def test_set_overwrites_in_place(self):
        m = small_matrix()
        delta = DeltaBatch(
            rows=np.array([2]), cols=np.array([3]), values=np.array([-1.0]),
            mode="set",
        )
        out = delta.apply_to(m)
        assert out.to_dense()[2, 3] == -1.0
        np.testing.assert_array_equal(out.rowptr, m.rowptr)
        np.testing.assert_array_equal(out.colidx, m.colidx)

    def test_set_missing_entry_rejected(self):
        m = small_matrix()
        delta = DeltaBatch(
            rows=np.array([1]), cols=np.array([0]), values=np.array([1.0]),
            mode="set",
        )
        with pytest.raises(ValidationError):
            delta.apply_to(m)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rows=[0], cols=[0, 1], values=[1.0]),  # ragged
            dict(rows=[-1], cols=[0], values=[1.0]),  # negative index
            dict(rows=[0], cols=[0], values=[1.0], mode="replace"),  # bad mode
            dict(rows=[0], cols=[0], values=[1.0], mode="set", new_rows=1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            DeltaBatch(
                rows=np.asarray(kwargs.pop("rows")),
                cols=np.asarray(kwargs.pop("cols")),
                values=np.asarray(kwargs.pop("values"), dtype=np.float64),
                **kwargs,
            )

    def test_dirty_and_touched_rows(self):
        delta = DeltaBatch(
            rows=np.array([0, 2, 5, 5]), cols=np.zeros(4, dtype=np.int64),
            values=np.ones(4), new_rows=2,
        )
        np.testing.assert_array_equal(delta.touched_rows(), [0, 2, 5])
        np.testing.assert_array_equal(delta.dirty_existing_rows(4), [0, 2])

    def test_split_validation(self):
        with pytest.raises(ValidationError):
            split_into_deltas(small_matrix(), 0)


class TestStreams:
    def test_edge_stream_timestamps_and_replay(self):
        m = random_csr(np.random.default_rng(0), 20, 12, density=0.2)
        stream = edge_stream(m, 5, name="s", seed=1, start_time=100.0, dt=2.0)
        assert [d.timestamp for d in stream.deltas] == [
            100.0, 102.0, 104.0, 106.0, 108.0
        ]
        *_, last = stream.matrices()
        np.testing.assert_array_equal(last.values, stream.final.values)
        np.testing.assert_array_equal(last.colidx, stream.final.colidx)

    def test_edge_stream_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            edge_stream(small_matrix(), 2, dt=0.0)

    def test_stream_corpus_is_deterministic(self):
        a, b = stream_corpus(seed=3, n_batches=4), stream_corpus(seed=3, n_batches=4)
        assert [s.name for s in a] == [s.name for s in b]
        for sa, sb in zip(a, b):
            assert sa.n_events == sb.n_events
            np.testing.assert_array_equal(sa.final.colidx, sb.final.colidx)


class TestApplyDelta:
    def test_replan_reason_dirty_fraction(self):
        m = hidden_clusters(16, 8, 256, 8, noise=0.1, seed=2)
        plan = build_plan(m, CFG)
        state = LshState.build(m, CFG)
        rng = np.random.default_rng(1)
        k = m.n_rows  # every row dirty
        delta = DeltaBatch(
            rows=np.arange(k, dtype=np.int64),
            cols=rng.integers(0, m.n_cols, size=k),
            values=rng.normal(size=k),
        )
        update = apply_delta(plan, delta, CFG, state=state)
        assert update.report.mode == "replanned"
        assert "dirty fraction" in update.report.reason

    def test_replan_reason_missing_state(self):
        m = hidden_clusters(16, 8, 256, 8, noise=0.1, seed=2)
        plan = build_plan(m, CFG)
        delta = DeltaBatch(
            rows=np.array([0]), cols=np.array([0]), values=np.array([1.0])
        )
        update = apply_delta(plan, delta, CFG, state=None)
        assert update.report.mode == "replanned"
        assert "no incremental LSH state" in update.report.reason
        # The replan hands back a fresh state so the next update can patch.
        assert update.state is not None
        follow = apply_delta(update.plan, delta, CFG, state=update.state)
        assert follow.report.patched

    def test_patch_writes_through_the_plan_cache(self):
        m = hidden_clusters(16, 8, 256, 8, noise=0.1, seed=2)
        store = PlanStore()
        plan = build_plan(m, CFG, cache=store)
        state = LshState.build(m, CFG)
        delta = DeltaBatch(
            rows=np.array([0]), cols=np.array([1]), values=np.array([1.0])
        )
        update = apply_delta(plan, delta, CFG, state=state, cache=store)
        assert update.report.patched
        mutated = delta.apply_to(m)
        assert store.get(store.key_for(mutated, CFG)) is not None

    def test_cached_patch_carries_its_cost(self):
        """The entry a patch writes through records what the patch took,
        so a warm build of the mutated matrix reports it as its cold
        cost."""
        m = hidden_clusters(16, 8, 256, 8, noise=0.1, seed=2)
        store = PlanStore()
        plan = build_plan(m, CFG, cache=store)
        state = LshState.build(m, CFG)
        delta = DeltaBatch(
            rows=m.row_ids()[:3], cols=m.colidx[:3], values=np.ones(3), mode="set"
        )
        update = apply_delta(plan, delta, CFG, state=state, cache=store)
        assert update.report.patched
        warm = build_plan(delta.apply_to(m), CFG, cache=store)
        assert warm.preprocess_seconds["cold_total"] > 0.0
        assert warm.preprocess_seconds["cold_total"] == update.report.seconds["total"]

    def test_report_carries_timestamp(self):
        m = small_matrix()
        plan = build_plan(m, ReorderConfig(panel_height=2))
        delta = DeltaBatch(
            rows=np.array([0]), cols=np.array([0]), values=np.array([1.0]),
            timestamp=42.5,
        )
        update = apply_delta(plan, delta, ReorderConfig(panel_height=2))
        assert update.report.timestamp == 42.5
        assert update.matrix.to_dense()[0, 0] == 2.0


class TestStreamingPlan:
    def test_revision_counts_updates(self):
        m = random_csr(np.random.default_rng(4), 24, 16, density=0.15)
        base, deltas = split_into_deltas(m, 3, seed=0, grow_rows=False)
        sp = StreamingPlan(base, CFG)
        assert sp.revision == 0
        for delta in deltas:
            sp.apply(delta)
        assert sp.revision == 3
        assert len(sp.reports) == 3
        np.testing.assert_array_equal(sp.matrix.values, m.values)

    def test_converges_to_whole_build(self):
        m = random_csr(np.random.default_rng(5), 24, 16, density=0.15)
        base, deltas = split_into_deltas(m, 4, seed=1, grow_rows=True)
        sp = StreamingPlan(base, CFG)
        for delta in deltas:
            sp.apply(delta)
        x = np.random.default_rng(6).normal(size=(m.n_cols, 4))
        np.testing.assert_array_equal(sp.plan.spmm(x), spmm(m, x))


class TestSessionRefresh:
    def test_refresh_tracks_patched_plan(self):
        m = hidden_clusters(16, 8, 256, 8, noise=0.1, seed=3)
        plan = build_plan(m, CFG)
        state = LshState.build(m, CFG)
        session = KernelSession(plan)
        x = np.random.default_rng(7).normal(size=(m.n_cols, 4))
        session.run(x)
        delta = DeltaBatch(
            rows=np.array([1]), cols=np.array([2]), values=np.array([3.0])
        )
        update = apply_delta(plan, delta, CFG, state=state)
        session.refresh(update)  # accepts the PlanUpdate directly
        np.testing.assert_array_equal(session.run(x), spmm(delta.apply_to(m), x))
        session.close()

    def test_refresh_handles_row_growth(self):
        m = small_matrix()
        session = KernelSession(m)
        x = np.ones((m.n_cols, 2))
        assert session.run(x).shape == (3, 2)
        delta = DeltaBatch(
            rows=np.array([4]), cols=np.array([0]), values=np.array([1.0]),
            new_rows=2,
        )
        grown = delta.apply_to(m)
        session.refresh(grown)
        out = session.run(x)
        assert out.shape == (5, 2)
        np.testing.assert_array_equal(out[4], [1.0, 1.0])
        session.close()


class TestSessionMemoStaleness:
    def test_set_delta_gets_a_fresh_session(self):
        """Regression: the session memo was keyed on the pattern-only plan
        key, so a value-only (``mode="set"``) delta kept serving the old
        values through the memoised session."""
        m = small_matrix()
        store = PlanStore()
        cfg = ReorderConfig(panel_height=2)
        x = np.eye(m.n_cols)
        before = store.session(m, cfg).run(x).copy()
        delta = DeltaBatch(
            rows=np.array([0]), cols=np.array([0]), values=np.array([9.0]),
            mode="set",
        )
        mutated = delta.apply_to(m)  # identical pattern, new values
        after = store.session(mutated, cfg).run(x)
        np.testing.assert_array_equal(before[0, 0], 1.0)
        np.testing.assert_array_equal(after[0, 0], 9.0)

    def test_invalidate_sessions_by_matrix_and_wholesale(self):
        store = PlanStore()
        cfg = ReorderConfig(panel_height=2)
        a = small_matrix()
        b = COOMatrix.from_arrays(
            (2, 2), np.array([0, 1]), np.array([0, 1]), np.array([1.0, 2.0])
        ).to_csr()
        store.session(a, cfg)
        store.session(b, cfg)
        assert store.invalidate_sessions(a, cfg) == 1
        assert store.invalidate_sessions(a, cfg) == 0  # already gone
        assert store.invalidate_sessions() == 1  # b, wholesale clear
