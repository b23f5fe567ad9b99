"""Tests for the observability layer (repro.observability).

Covers the tracer (span trees, Chrome export, golden schema snapshot),
the gating contract (module-level ``span`` is a shared no-op until a
tracer is installed), the metrics registry, the counter-migration
compatibility surfaces (WorkspacePool, CacheStats, DiskPlanStore), the
instrument catalogue in docs/OBSERVABILITY.md, the text reporters, and
the end-to-end wiring (``repro trace``, ``run_experiment(trace=)``,
per-record ``stage_seconds``).
"""

import ast
import json
import re
import threading
from pathlib import Path

import pytest

from conftest import FakeClock
from repro.datasets import hidden_clusters
from repro.observability import (
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    active_tracer,
    format_metrics,
    install_tracer,
    span,
    trace_summary,
    tracing,
    uninstall_tracer,
)
from repro.observability.tracing import _NULL_SPAN


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with tracing disabled."""
    uninstall_tracer()
    yield
    uninstall_tracer()


class TestTracerTree:
    def test_nested_spans_build_a_tree(self, fake_clock):
        tracer = Tracer(clock=fake_clock, pid=1)
        with tracer.span("root", rows=6):
            with tracer.span("child_a"):
                pass
            with tracer.span("child_b"):
                pass
        (root,) = tracer.to_dicts()
        assert root["name"] == "root"
        assert root["attrs"] == {"rows": 6}
        assert [c["name"] for c in root["children"]] == ["child_a", "child_b"]

    def test_durations_come_from_the_injected_clock(self, fake_clock):
        tracer = Tracer(clock=fake_clock, pid=1)
        with tracer.span("timed"):
            fake_clock.advance(10.0)
        (root,) = tracer.to_dicts()
        # One construction read, one start read, then +10s, one end read:
        # the span lasts the advance plus one auto-step.
        assert root["duration_s"] == pytest.approx(11.0)

    def test_start_times_are_epoch_relative(self, fake_clock):
        fake_clock.advance(1000.0)  # clock epoch far from zero
        tracer = Tracer(clock=fake_clock, pid=1)
        with tracer.span("first"):
            pass
        (root,) = tracer.to_dicts()
        assert root["start_s"] == pytest.approx(1.0)  # one auto-step

    def test_sibling_roots_accumulate(self, fake_clock):
        tracer = Tracer(clock=fake_clock, pid=1)
        with tracer.span("one"):
            pass
        with tracer.span("two"):
            pass
        assert [r["name"] for r in tracer.to_dicts()] == ["one", "two"]

    def test_exception_records_error_type_and_propagates(self, fake_clock):
        tracer = Tracer(clock=fake_clock, pid=1)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (root,) = tracer.to_dicts()
        assert root["error"] == "ValueError"
        assert root["duration_s"] > 0  # still closed

    def test_set_updates_attributes_mid_span(self, fake_clock):
        tracer = Tracer(clock=fake_clock, pid=1)
        with tracer.span("s", a=1) as s:
            s.set(b=2, a=3)
        (root,) = tracer.to_dicts()
        assert root["attrs"] == {"a": 3, "b": 2}

    def test_threads_get_deterministic_tids_and_separate_stacks(self, fake_clock):
        tracer = Tracer(clock=fake_clock, pid=1)

        def work():
            with tracer.span("worker"):
                pass

        with tracer.span("main"):
            t = threading.Thread(target=work)
            t.start()
            t.join()
        roots = tracer.to_dicts()
        # The worker span is a *root* of its own thread, not a child of
        # "main", and tids are assigned 1, 2, ... in registration order.
        assert sorted(r["name"] for r in roots) == ["main", "worker"]
        assert {r["tid"] for r in roots} == {1, 2}
        assert all("children" not in r for r in roots)


class TestChromeTrace:
    def _traced(self, fake_clock):
        tracer = Tracer(clock=fake_clock, pid=1)
        with tracer.span("build", nnz=13):
            with tracer.span("stage"):
                pass
        return tracer

    def test_document_shape(self, fake_clock):
        doc = self._traced(fake_clock).chrome_trace()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        assert [e["name"] for e in doc["traceEvents"]] == ["build", "stage"]
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert event["pid"] == 1
            assert event["tid"] == 1
            assert event["dur"] >= 0

    def test_timestamps_are_microseconds(self, fake_clock):
        doc = self._traced(fake_clock).chrome_trace()
        build = doc["traceEvents"][0]
        # FakeClock steps 1s per read: construction (epoch), build-start,
        # stage-start, stage-end, build-end — so build starts 1s after
        # the epoch and spans 3s, exported in microseconds.
        assert build["ts"] == pytest.approx(1e6)
        assert build["dur"] == pytest.approx(3e6)

    def test_write_chrome_trace_is_loadable_json(self, fake_clock, tmp_path):
        path = tmp_path / "out.trace.json"
        self._traced(fake_clock).write_chrome_trace(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert [e["name"] for e in doc["traceEvents"]] == ["build", "stage"]

    def test_open_spans_are_omitted(self, fake_clock):
        tracer = Tracer(clock=fake_clock, pid=1)
        dangling = tracer.span("open")
        dangling.__enter__()
        assert tracer.chrome_trace()["traceEvents"] == []

    def test_golden_schema_snapshot(self):
        """The exact export for a pinned clock — the schema contract."""
        clock = FakeClock(start=0.0, step=1.0)
        tracer = Tracer(clock=clock, pid=1)
        with tracer.span("build_plan", rows=6):
            with tracer.span("minhash"):
                pass
        with pytest.raises(RuntimeError):
            with tracer.span("kernel.run"):
                raise RuntimeError("boom")
        # Clock reads: epoch=0, build-start=1, minhash-start=2,
        # minhash-end=3, build-end=4, kernel-start=5, kernel-end=6.
        # chrome_trace walks roots first, then children (build_plan,
        # kernel.run, then minhash).
        assert tracer.chrome_trace() == {
            "traceEvents": [
                {
                    "name": "build_plan",
                    "cat": "repro",
                    "ph": "X",
                    "ts": 1_000_000.0,
                    "dur": 3_000_000.0,
                    "pid": 1,
                    "tid": 1,
                    "args": {"rows": 6},
                },
                {
                    "name": "minhash",
                    "cat": "repro",
                    "ph": "X",
                    "ts": 2_000_000.0,
                    "dur": 1_000_000.0,
                    "pid": 1,
                    "tid": 1,
                },
                {
                    "name": "kernel.run",
                    "cat": "repro",
                    "ph": "X",
                    "ts": 5_000_000.0,
                    "dur": 1_000_000.0,
                    "pid": 1,
                    "tid": 1,
                    "args": {"error": "RuntimeError"},
                },
            ],
            "displayTimeUnit": "ms",
        }


class TestGating:
    def test_span_is_shared_noop_when_disabled(self):
        assert active_tracer() is None
        s = span("anything", k=1)
        assert s is _NULL_SPAN
        assert span("other") is s  # the same singleton every time
        with s:
            s.set(ignored=True)  # all no-ops

    def test_installed_tracer_receives_module_level_spans(self, fake_clock):
        tracer = Tracer(clock=fake_clock, pid=1)
        with tracing(tracer):
            with span("visible", k=2):
                pass
        assert [r["name"] for r in tracer.to_dicts()] == ["visible"]
        # After the context, tracing is off again.
        assert span("gone") is _NULL_SPAN

    def test_double_install_raises(self):
        first = Tracer()
        install_tracer(first)
        try:
            with pytest.raises(RuntimeError):
                install_tracer(Tracer())
            first.install()  # re-installing the active tracer is fine
        finally:
            uninstall_tracer(first)

    def test_uninstall_is_idempotent_and_scoped(self):
        first = Tracer()
        install_tracer(first)
        Tracer().uninstall()  # not active: a no-op
        assert active_tracer() is first
        first.uninstall()
        first.uninstall()
        assert active_tracer() is None

    def test_tracer_as_context_manager(self):
        with Tracer() as tracer:
            assert active_tracer() is tracer
        assert active_tracer() is None

    def test_tracing_makes_a_fresh_tracer_when_none_given(self):
        with tracing() as tracer:
            assert active_tracer() is tracer
            with span("inner"):
                pass
        assert [r["name"] for r in tracer.to_dicts()] == ["inner"]

    def test_env_var_installs_process_global_tracer(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        env["REPRO_TRACE"] = "1"
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.observability import active_tracer;"
                "print(active_tracer() is not None)",
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "True"


class TestMetricsRegistry:
    def test_counter_is_get_or_create(self):
        registry = MetricsRegistry()
        a = registry.counter("x.hits", "described once")
        b = registry.counter("x.hits")
        assert a is b
        assert a.description == "described once"

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(TypeError):
            registry.gauge("name")
        with pytest.raises(TypeError):
            registry.histogram("name")

    def test_counter_monotonicity(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.value == 5

    def test_child_rolls_up_to_parent(self):
        parent = Counter("p")
        child_a, child_b = parent.child(), parent.child()
        child_a.inc(3)
        child_b.inc(2)
        parent.inc()
        assert (child_a.value, child_b.value, parent.value) == (3, 2, 6)

    def test_gauge_moves_both_ways(self):
        g = Gauge("g")
        g.set(10.0)
        g.add(-2.5)
        assert g.value == 7.5
        g.reset()
        assert g.value == 0.0

    def test_histogram_buckets_and_overflow(self):
        h = Histogram("h", bounds=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(106.5)
        assert snap["min"] == 0.5
        assert snap["max"] == 100.0
        assert snap["buckets"] == {"1.0": 2, "10.0": 1, "inf": 1}

    def test_snapshot_is_sorted_and_typed(self):
        registry = MetricsRegistry()
        registry.counter("b.count").inc(2)
        registry.gauge("a.level").set(1.5)
        registry.histogram("c.lat", bounds=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert list(snap) == ["a.level", "b.count", "c.lat"]
        assert snap["a.level"] == 1.5
        assert snap["b.count"] == 2
        assert snap["c.lat"]["count"] == 1

    def test_reset_zeroes_but_keeps_registrations(self):
        registry = MetricsRegistry()
        c = registry.counter("c")
        c.inc(9)
        registry.reset()
        assert registry.counter("c") is c
        assert c.value == 0


class TestWorkspacePoolCompat:
    """Satellite (d): the migrated counters keep their old surface."""

    def test_hits_misses_evictions_attributes_still_read(self):
        from repro.util.workspace import WorkspacePool

        pool = WorkspacePool()
        with pool.lease() as ws:
            ws.scratch((4, 8))
        with pool.lease() as ws:
            ws.scratch((4, 8))
        assert pool.misses == 1
        assert pool.hits == 1
        assert pool.evictions == 0
        stats = pool.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_eviction_counts_when_over_budget(self, monkeypatch):
        from repro.util import workspace
        from repro.util.workspace import WorkspacePool

        monkeypatch.setattr(workspace, "MAX_BYTES", 0)
        pool = WorkspacePool()
        block = pool.take((8,))
        pool.give(block)
        assert pool.evictions == 1

    def test_pool_counters_roll_up_to_global_instruments(self):
        from repro.util.workspace import WorkspacePool

        before = METRICS.counter("workspace.miss").value
        pool = WorkspacePool()
        with pool.lease() as ws:
            ws.scratch((2, 2))
        assert METRICS.counter("workspace.miss").value == before + 1

    def test_two_pools_count_independently(self):
        from repro.util.workspace import WorkspacePool

        a, b = WorkspacePool(), WorkspacePool()
        with a.lease() as ws:
            ws.scratch((2, 2))
        assert (a.misses, b.misses) == (1, 0)


class TestCacheStatsCompat:
    def test_counts_are_read_only_and_roll_up(self):
        from repro.planstore.memory import CacheStats

        misses = METRICS.counter("planstore.miss")
        before = misses.value
        stats = CacheStats()
        stats.hit.inc()
        stats.hit.inc()
        stats.miss.inc(3)
        assert (stats.hits, stats.misses) == (2, 3)
        assert stats.as_dict() == {
            "hits": 2, "misses": 3, "evictions": 0, "puts": 0,
        }
        assert misses.value == before + 3
        with pytest.raises(AttributeError):
            stats.hits = 5

    def test_decreasing_a_counter_raises(self):
        from repro.planstore.memory import CacheStats

        stats = CacheStats()
        stats.put.inc(2)
        with pytest.raises(ValueError):
            stats.put.inc(-1)
        assert stats.puts == 2

    def test_lru_cache_still_counts(self):
        from repro.planstore.memory import LRUPlanCache

        cache = LRUPlanCache()
        assert cache.get("missing") is None
        assert cache.stats.misses == 1


class TestQuarantineCounter:
    def test_quarantine_increments_global_instrument(self, tmp_path):
        from repro.datasets import hidden_clusters as hc
        from repro.planstore import DiskPlanStore, PlanDecisions
        from repro.reorder import ReorderConfig, build_plan

        matrix = hc(16, 8, 256, 8, noise=0.1, seed=7)
        decisions = PlanDecisions.from_plan(
            build_plan(matrix, ReorderConfig(siglen=32, panel_height=8))
        )
        key = "0123456789abcdef0123456789abcdef"
        store = DiskPlanStore(tmp_path)
        store.put(key, decisions)
        path = store.path_for(key)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])

        before = METRICS.counter("planstore.quarantine").value
        assert store.get(key) is None
        assert METRICS.counter("planstore.quarantine").value == before + 1


class TestReporters:
    def test_trace_summary_renders_tree(self, fake_clock):
        tracer = Tracer(clock=fake_clock, pid=1)
        with tracer.span("root"):
            with tracer.span("leaf"):
                pass
        text = trace_summary(tracer)
        lines = text.splitlines()
        assert lines[0].startswith("span")
        assert any(line.startswith("root") for line in lines)
        assert any(line.startswith("  leaf") for line in lines)
        assert "100.0%" in text

    def test_trace_summary_empty(self):
        assert trace_summary(Tracer()) == "(no spans recorded)"

    def test_trace_summary_marks_errors(self, fake_clock):
        tracer = Tracer(clock=fake_clock, pid=1)
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError
        assert "[error: ValueError]" in trace_summary(tracer)

    def test_format_metrics_skips_zero_instruments(self):
        snap = {
            "planstore.hit": 3,
            "planstore.miss": 0,
            "lat": {"count": 2, "sum": 0.5, "min": 0.1, "max": 0.4,
                    "buckets": {"inf": 2}},
            "idle": {"count": 0, "sum": 0.0, "min": None, "max": None,
                     "buckets": {"inf": 0}},
        }
        text = format_metrics(snap)
        assert "planstore.hit" in text
        assert "planstore.miss" not in text
        assert "count=2" in text
        assert "idle" not in text

    def test_format_metrics_empty(self):
        assert format_metrics({"a": 0}) == "(no activity recorded)"


class TestPipelineTracing:
    def test_traced_build_plan_covers_every_stage(self):
        from repro.kernels.backends import load_backend
        from repro.planstore import PlanStore
        from repro.reorder import ReorderConfig, build_plan
        from repro.resilience import ResiliencePolicy

        matrix = hidden_clusters(40, 8, 1024, 12, noise=0.1, seed=3)
        config = ReorderConfig(
            panel_height=8, force_round1=True, force_round2=True
        )
        round2 = {"sim2", "lsh2", "cluster2"}
        # The process's first load of a backend opens its own root span.
        load_backend(config.backend)
        tracer = Tracer(pid=1)
        with tracing(tracer):
            plan = build_plan(matrix, config)
            # minhash -> LSH -> clustering -> tiling under build_plan; a
            # plain build leaves round 2 to the plan's first read of it.
            names = {e["name"] for e in tracer.chrome_trace()["traceEvents"]}
            for stage in (
                "build_plan", "minhash", "lsh1", "cluster1", "permute1", "tile",
            ):
                assert stage in names, f"missing span {stage!r}"
            assert not names & round2
            plan.stats
        build, *rest = tracer.to_dicts()
        assert build["name"] == "build_plan"
        child_names = [c["name"] for c in build["children"]]
        # The round-1 gate tiles the original before LSH; with round 1
        # applied, the plan's tiling of the reordered matrix follows it.
        last_tile = len(child_names) - 1 - child_names[::-1].index("tile")
        assert child_names.index("tile") < child_names.index("lsh1") < last_tile
        assert not round2 & set(child_names)
        assert {r["name"] for r in rest} == round2

        # Under a resilience policy a rung leaves round 2 pending as a
        # plain build does, unless a plan store's write reads it: then
        # its spans open in the rung, after build_plan.
        for cache, want in ((None, set()), (PlanStore(), round2)):
            tracer = Tracer(pid=1)
            with tracing(tracer):
                build_plan(matrix, config, cache=cache, resilience=ResiliencePolicy())
            (rung,) = tracer.to_dicts()
            names = [c["name"] for c in rung["children"]]
            after = names[names.index("build_plan") + 1:]
            assert set(after) == want
            (build,) = [c for c in rung["children"] if c["name"] == "build_plan"]
            assert not round2 & {c["name"] for c in build["children"]}

    def test_run_experiment_trace_and_stage_seconds(self, tmp_path):
        from repro.experiments import ExperimentConfig, run_experiment

        config = ExperimentConfig(scale="tiny", ks=(8,))
        tracer = Tracer(pid=1)
        records = run_experiment(config, trace=tracer)
        assert active_tracer() is None  # uninstalled on the way out
        names = {e["name"] for e in tracer.chrome_trace()["traceEvents"]}
        assert "matrix" in names
        assert "plan_rr" in names and "plan_nr" in names
        assert "build_plan" in names
        # Per-stage timings land in every record, traced or not.
        assert all(isinstance(r.stage_seconds, dict) for r in records)
        assert any("total" in r.stage_seconds for r in records)
        # stage_seconds round-trips through the JSON record format.
        from repro.experiments import load_records, save_records

        out = tmp_path / "records.json"
        save_records(records, out)
        loaded = load_records(out)
        assert loaded[0].stage_seconds == records[0].stage_seconds


class TestTraceCli:
    def test_repro_trace_writes_valid_chrome_json(self, tmp_path, capsys):
        from repro.cli import main
        from repro.sparse import write_matrix_market

        matrix = hidden_clusters(40, 8, 1024, 12, noise=0.1, seed=3)
        mtx = tmp_path / "demo.mtx"
        write_matrix_market(mtx, matrix)
        out = tmp_path / "demo.trace.json"
        code = main(
            ["trace", str(mtx), "--out", str(out), "--k", "16", "--runs", "2"]
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        names = {e["name"] for e in doc["traceEvents"]}
        for stage in ("build_plan", "minhash", "cluster1", "tile", "kernel.run"):
            assert stage in names
        assert all(e["ph"] == "X" for e in doc["traceEvents"])
        printed = capsys.readouterr().out
        assert "build_plan" in printed
        assert str(out) in printed


class TestInstrumentCatalogue:
    ROOT = Path(__file__).resolve().parents[2]

    def _registered(self) -> dict:
        """``{name: kind}`` for every literal name passed to ``METRICS``."""
        found = {}
        for path in (self.ROOT / "src" / "repro").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("counter", "gauge", "histogram")
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "METRICS"
                ):
                    name = node.args[0]
                    assert isinstance(name, ast.Constant), f"{path}: non-literal name"
                    found[name.value] = node.func.attr
        return found

    def _catalogue(self) -> dict:
        text = (self.ROOT / "docs" / "OBSERVABILITY.md").read_text()
        section = text.split("## 4. Instrument catalogue")[1].split("\n## ")[0]
        rows = re.findall(r"^\| `([\w.]+)` \| (\w+) \|", section, flags=re.M)
        assert len(rows) == len(dict(rows)), "an instrument is listed twice"
        return dict(rows)

    def test_docs_list_exactly_the_registered_instruments(self):
        assert self._catalogue() == self._registered()
