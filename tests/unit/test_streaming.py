"""Unit tests for the streaming subsystem: deltas, streams, plan
updates and session refresh."""

import dataclasses

import numpy as np
import pytest

from repro.aspt import tile_matrix
from repro.datasets import edge_stream, hidden_clusters, stream_corpus
from repro.errors import DegradedExecution, ValidationError
from repro.kernels import KernelSession, spmm
from repro.observability import Tracer, tracing
from repro.reorder import ReorderConfig, build_plan
from repro.resilience import ResiliencePolicy
from repro.similarity import average_consecutive_similarity
from repro.sparse import CSRMatrix, permute_csr_rows
from repro.streaming import (
    DeltaBatch,
    StreamingPlan,
    apply_delta,
    split_into_deltas,
)

from conftest import assert_plans_identical, random_csr

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

    def test_set_on_a_matrix_too_wide_for_int64_keys(self):
        """``row * (n_cols + 1) + col`` overflows int64 here; the entry is
        still found, and a missing one still rejected."""
        n = 2**62
        m = CSRMatrix.from_arrays(
            (3, n), np.array([0, 2, 3, 5]), np.array([1, n - 1, 4, 0, 9]),
            np.arange(1.0, 6.0),
        )
        out = DeltaBatch(
            rows=np.array([2, 0]), cols=np.array([9, n - 1]),
            values=np.array([7.0, 8.0]), mode="set",
        ).apply_to(m)
        np.testing.assert_array_equal(out.values, [1.0, 8.0, 3.0, 4.0, 7.0])
        np.testing.assert_array_equal(out.colidx, m.colidx)
        with pytest.raises(ValidationError, match=r"missing entry \(2, 8\)"):
            DeltaBatch(
                rows=np.array([2]), cols=np.array([8]), values=np.ones(1),
                mode="set",
            ).apply_to(m)
        grown = DeltaBatch(
            rows=np.array([2, 2]), cols=np.array([9, n - 2]),
            values=np.array([1.0, 2.0]),
        ).apply_to(m)
        assert grown.nnz == m.nnz + 1
        np.testing.assert_array_equal(grown.colidx[-3:], [0, 9, n - 2])
        np.testing.assert_array_equal(grown.values[-3:], [4.0, 6.0, 2.0])

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
        last = stream.base
        for delta in stream.deltas:
            last = delta.apply_to(last)
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
    def test_update_rule_and_its_reasons(self):
        """A same-pattern delta keeps the plan's decisions; a structural
        one, or any delta to a degraded plan, replans and says why."""
        m = hidden_clusters(16, 8, 256, 8, noise=0.1, seed=2)
        plan = build_plan(m, CFG)
        set_ = DeltaBatch(
            rows=m.row_ids()[:3], cols=m.colidx[:3], values=np.ones(3), mode="set"
        )
        col = int(np.flatnonzero(m.to_dense()[0] == 0)[0])
        add = DeltaBatch(rows=np.array([0]), cols=np.array([col]), values=np.ones(1))
        # An add onto an existing entry keeps the pattern too.
        onto = DeltaBatch(rows=m.row_ids()[:1], cols=m.colidx[:1], values=np.ones(1))
        reports = [apply_delta(plan, d, CFG).report for d in (set_, add, onto)]
        assert [(r.mode, r.reason) for r in reports] == [
            ("patched", None),
            ("replanned", "sparsity pattern changed"),
            ("patched", None),
        ]
        with pytest.warns(DegradedExecution):
            degraded = build_plan(
                m, CFG, resilience=ResiliencePolicy(deadline_s=0.0)
            )
        report = apply_delta(degraded, set_, CFG).report
        assert report.mode == "replanned"
        assert report.reason.startswith("old plan is degraded")

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


@pytest.fixture
def gate_calls(monkeypatch):
    """Records each run of the §4 round-1 gate."""
    from repro.reorder import pipeline

    calls = []
    real = pipeline.should_reorder_round1

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "should_reorder_round1", spy)
    return calls


def _span_names(tracer) -> set:
    names, todo = set(), list(tracer.to_dicts())
    while todo:
        node = todo.pop()
        names.add(node["name"])
        todo.extend(node.get("children", ()))
    return names


class TestDeferredRound2:
    """An update leaves round 2 pending as a plain ``build_plan`` does."""

    CONFIG = dataclasses.replace(CFG, force_round2=True)

    @pytest.fixture
    def matrix(self):
        return hidden_clusters(16, 8, 256, 8, noise=0.1, seed=2)

    @staticmethod
    def deltas(m):
        """A structural ``add`` (one new entry in each of two rows) and a
        value-only ``set`` of three existing entries."""
        dense = m.to_dense()
        rows = np.array([0, 7])
        cols = np.array([np.flatnonzero(dense[r] == 0)[0] for r in rows])
        add = DeltaBatch(rows=rows, cols=cols, values=np.ones(2))
        set_ = DeltaBatch(
            rows=m.row_ids()[:3], cols=m.colidx[:3], values=np.full(3, 2.0),
            mode="set",
        )
        return add, set_

    def test_stream_runs_round2_on_first_read_only(self, matrix, round2_calls):
        add, set_ = self.deltas(matrix)
        sp = StreamingPlan(matrix, self.CONFIG)
        reports = [sp.apply(add), sp.apply(set_)]
        assert [report.mode for report in reports] == ["replanned", "patched"]
        assert sp.matrix.nnz == matrix.nnz + 2
        assert round2_calls == []

        sp.plan.stats
        assert len(round2_calls) == 1
        assert_plans_identical(sp.plan, build_plan(sp.matrix, self.CONFIG))

    def test_value_only_patch_keeps_pending_or_reuses(
        self, matrix, round2_calls, gate_calls
    ):
        """A value-only delta reads the old plan's decisions: it runs
        neither the round-1 gate nor round 2, and leaves a pending round 2
        pending."""
        _, set_ = self.deltas(matrix)
        pending = apply_delta(build_plan(matrix, self.CONFIG), set_, self.CONFIG)
        assert pending.report.patched and round2_calls == []
        assert len(gate_calls) == 1  # the build's
        pending.plan.stats  # still pending: this read runs it
        assert len(round2_calls) == 1

        filled = build_plan(matrix, self.CONFIG)
        filled.stats
        assert len(round2_calls) == 2
        update = apply_delta(filled, set_, self.CONFIG)
        assert update.report.patched
        assert "round2" in update.report.seconds  # the reuse, timed
        update.plan.stats
        assert len(round2_calls) == 2
        assert len(gate_calls) == 2  # the two builds'
        fresh = build_plan(update.matrix, self.CONFIG)
        assert_plans_identical(update.plan, fresh)
        assert_plans_identical(pending.plan, fresh)

    def test_deferred_patch_reports_no_round2(self, matrix):
        """A structural delta replans, and the plain build it runs defers
        round 2: the update times no round 2 and opens no round-2 span."""
        add, _ = self.deltas(matrix)
        plan = build_plan(matrix, self.CONFIG)
        tracer = Tracer()
        with tracing(tracer):
            update = apply_delta(plan, add, self.CONFIG)
        assert update.report.mode == "replanned"
        names = _span_names(tracer)
        assert {"streaming.replan", "lsh1", "cluster1", "tile"} <= names
        assert not names & {"streaming.round2", "sim2"}
        assert "round2" not in update.report.seconds
        assert "sim2" not in update.plan.preprocess_seconds
        total = update.plan.preprocessing_time

        update.plan.stats
        assert {"sim2", "lsh2", "cluster2"} <= update.plan.preprocess_seconds.keys()
        assert update.plan.preprocessing_time > total
        assert "sim2" not in update.report.seconds  # what the update did


class TestStreamingPlan:
    def test_hashes_its_matrix_once(self, monkeypatch):
        """``build_plan`` hashes, bands and scores the matrix; nothing
        hashes it again."""
        from repro.similarity import minhash

        m = hidden_clusters(16, 8, 256, 8, noise=0.1, seed=2)
        shapes = []
        real = minhash.signatures

        def spy(csr, *args, **kwargs):
            shapes.append(csr.shape)
            return real(csr, *args, **kwargs)

        monkeypatch.setattr(minhash, "signatures", spy)
        sp = StreamingPlan(m, CFG)  # round 1 forced on, round 2 pending
        assert shapes.count(m.shape) == 1
        assert sp.plan.original is m

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


class TestGrowingMatrix:
    """The paper's §4 online scenario on a matrix that grows: rows arrive
    as row-appending ``add`` deltas, and each one replans through the
    batch MinHash/LSH."""

    def test_groups_identical_rows(self):
        sp = StreamingPlan(CSRMatrix.empty((0, 100)), CFG)
        for cols in ([1, 5, 9], [40, 50], [1, 5, 9]):
            sp.apply(DeltaBatch(
                rows=np.full(len(cols), sp.matrix.n_rows), cols=np.array(cols),
                values=np.ones(len(cols)), new_rows=1,
            ))
        order = sp.plan.row_order.tolist()
        assert sorted(order) == [0, 1, 2]
        assert abs(order.index(0) - order.index(2)) == 1

    def test_recovers_hidden_clusters(self):
        m = hidden_clusters(40, 6, 512, 12, noise=0.05, seed=3)
        base, deltas = split_into_deltas(m, 8, seed=0, grow_rows=True)
        sp = StreamingPlan(base, CFG)
        for delta in deltas:
            report = sp.apply(delta)
            assert report.reason == "sparsity pattern changed"
        assert sorted(sp.plan.row_order.tolist()) == list(range(m.n_rows))
        reordered = permute_csr_rows(m, sp.plan.row_order)
        assert (
            average_consecutive_similarity(reordered)
            > average_consecutive_similarity(m) + 0.3
        )
        assert_plans_identical(sp.plan, build_plan(m, CFG))

    def test_order_is_permutation(self, rng):
        m = random_csr(rng, 50, 40, 0.1)
        base, deltas = split_into_deltas(m, 8, seed=0, grow_rows=True)
        sp = StreamingPlan(base, CFG)
        for delta in deltas:
            sp.apply(delta)
        assert sorted(sp.plan.row_order.tolist()) == list(range(50))

    def test_incremental_matches_batch_quality(self):
        # The grown plan reaches the batch pipeline's panel quality on a
        # clean clustered stream: it is the batch build.
        config = ReorderConfig(siglen=64, panel_height=8, force_round1=True)
        m = hidden_clusters(40, 8, 768, 16, noise=0.0, seed=5)
        base, deltas = split_into_deltas(m, 8, seed=0, grow_rows=True)
        sp = StreamingPlan(base, config)
        for delta in deltas:
            sp.apply(delta)
        online_ratio = tile_matrix(
            permute_csr_rows(m, sp.plan.row_order), 8
        ).dense_ratio
        plan = build_plan(m, config)
        assert online_ratio >= 0.8 * plan.stats.dense_ratio_after
        assert_plans_identical(sp.plan, plan)


class TestSessionRefresh:
    def test_refresh_tracks_patched_plan(self):
        m = hidden_clusters(16, 8, 256, 8, noise=0.1, seed=3)
        plan = build_plan(m, CFG)
        session = KernelSession(plan)
        x = np.random.default_rng(7).normal(size=(m.n_cols, 4))
        session.run(x)
        delta = DeltaBatch(
            rows=np.array([1]), cols=np.array([2]), values=np.array([3.0])
        )
        update = apply_delta(plan, delta, CFG)
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
