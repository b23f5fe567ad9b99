"""Unit tests for the kernel backends.

Covers the loader (name checks, the process-wide SpMM cache, graceful
degradation), session integration, the plan pipeline/persistence
integration (``attach_backend``, npz save/load, plan-store round trip),
and the ``cc`` backend's build: its on-disk cache, its failure modes and
its GIL-free loop under threads.  The paths that run only for a
compiling backend use the ``compiled_backend`` fixture (``conftest.py``),
which skips where no C compiler is found; the degradation tests use the
``no_compiler`` fixture, which points ``CC`` at a missing compiler, so
they run everywhere.
"""

import json
import os
import shlex
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from conftest import random_csr
import repro
from repro.errors import BackendUnavailable, ConfigError, DegradedExecution
from repro.kernels import KernelSession, sddmm, spmm
from repro.kernels.backends import (
    BACKENDS,
    LoadedBackend,
    cc_backend,
    check_backend,
    load_backend,
)
from repro.kernels.backends.cc_backend import cache_dir
from repro.kernels.state import CsrState
from repro.observability.metrics import METRICS
from repro.resilience import FaultInjector
from repro.reorder import ReorderConfig, attach_backend, build_plan
from repro.serve import ServeConfig

#: The provenance entry of a ``cc`` request where no compiler is found.
NO_COMPILER = "backend:cc->numpy: C compiler '/nonexistent/cc' not found (set CC)"

#: Extra ``$CC`` words that let the compiler reassociate sums: the bare
#: compiler plus these builds a library whose bits differ from spmm's.
FAST_MATH = ("-ffast-math", "-fno-signed-zeros")


@pytest.fixture
def matrix(rng):
    return random_csr(rng, 40, 32, density=0.1)


class TestRegistry:
    def test_numpy_is_first_and_always_available(self, no_compiler):
        assert BACKENDS == ("numpy", "cc")
        assert load_backend("numpy") == LoadedBackend("numpy", None, ())

    def test_numpy_session_compiles_nothing(self, matrix, rng):
        compile_counter = METRICS.counter("kernels.backend_compile")
        before = compile_counter.value
        with FaultInjector(rate=1.0, seed=0, sites=["backend.compile"]) as inj:
            session = KernelSession(matrix, backend="numpy")
        assert inj.checked["backend.compile"] == 0
        assert compile_counter.value == before
        assert session.backend == "numpy"
        X = rng.normal(size=(matrix.n_cols, 8))
        np.testing.assert_array_equal(session.run(X), spmm(matrix, X))

    def test_get_backend_unknown_raises_config_error(self):
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            check_backend("cuda")
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            load_backend("numba")  # shipped once, gone since

    def test_resolve_none_and_numpy_are_the_reference(self, matrix, rng):
        X = rng.normal(size=(matrix.n_cols, 8))
        np.testing.assert_array_equal(
            spmm(matrix, X, backend=None), spmm(matrix, X, backend="numpy")
        )
        loaded = load_backend("numpy")
        assert loaded.backend == "numpy"
        assert loaded.spmm is None
        assert loaded.provenance == ()

    def test_resolve_unknown_raises_config_error(self, matrix, rng):
        X = rng.normal(size=(matrix.n_cols, 4))
        calls = [
            lambda: ReorderConfig(backend="cuda"),
            lambda: ServeConfig(backend="cuda"),
            lambda: KernelSession(matrix, backend="cuda"),
            lambda: spmm(matrix, X, backend="cuda"),
        ]
        for call in calls:
            with pytest.raises(ConfigError, match="unknown kernel backend 'cuda'"):
                call()

    def test_resolve_unavailable_degrades_with_provenance(self, no_compiler):
        fallback = METRICS.counter("kernels.backend_fallback")
        before = fallback.value
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = load_backend("cc")
        assert loaded == LoadedBackend("numpy", None, (NO_COMPILER,))
        assert fallback.value == before + 1
        assert [w.category for w in caught] == [DegradedExecution]


class TestSpecializedKernels:
    def test_cc_compiles_only_spmm(self, matrix, rng):
        # SDDMM has only its numpy reference, so it takes no backend at
        # all.
        X = rng.normal(size=(matrix.n_cols, 3))
        Y = rng.normal(size=(matrix.n_rows, 3))
        with pytest.raises(TypeError):
            sddmm(matrix, X, Y, backend="cc")


class TestArtifactCache:
    def test_warm_artifact_skips_recompilation(self, compiled_backend):
        compile_counter = METRICS.counter("kernels.backend_compile")
        before = compile_counter.value
        cold = load_backend(compiled_backend)
        assert compile_counter.value == before + 1
        warm = load_backend(compiled_backend)
        assert warm.spmm is cold.spmm
        assert compile_counter.value == before + 1  # no second compile

    def test_unavailable_backend_compile_raises(self, no_compiler):
        with pytest.raises(BackendUnavailable, match="/nonexistent/cc"):
            cc_backend.load_kernels()
        # The loader degrades before the cache and the fault site.
        with FaultInjector(rate=1.0, seed=0, sites=["backend.compile"]) as inj:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedExecution)
                assert load_backend("cc").provenance == (NO_COMPILER,)
        assert inj.checked["backend.compile"] == 0


class TestClusterBitCheck:
    """The load-time check of ``repro_cluster`` against the reference loop."""

    def test_probe_reaches_every_branch_under_every_measure(self, monkeypatch):
        import repro.clustering.hierarchical as hierarchical
        from repro.kernels.backends import _cluster_probe
        from repro.similarity.measures import MEASURES, similarity_for_pairs

        probe, pairs = _cluster_probe()
        assert len(pairs) == 256  # repro_cluster sizes its set for these
        distinct = np.unique(np.sort(pairs, axis=1), axis=0)
        waiting = []
        real_push = hierarchical.heappush

        def push(heap, item):
            real_push(heap, item)
            waiting.append(len(heap))

        monkeypatch.setattr(hierarchical, "heappush", push)
        for measure in MEASURES:
            waiting.clear()
            sims = similarity_for_pairs(probe, pairs, measure)
            result = hierarchical.cluster(probe, pairs, sims, 6, measure)
            assert result.n_merges and result.n_retired and result.n_requeued, measure
            # More than the heap's first 8 slots, and the seen-pair set
            # (512 slots, grown at the insert that would fill half) must grow.
            assert max(waiting) > 8, measure
            assert len(distinct) + result.n_requeued > 512 // 2, measure

    def test_library_whose_cluster_bits_differ_degrades(
        self, compiled_backend, monkeypatch
    ):
        import repro.kernels.backends as backends_mod

        real = cc_backend.load_kernels

        def off_by_one_requeue():
            spmm_fn, minhash_fn, cluster_fn = real()

            def cluster(*args):
                parent, merges, retired, requeued = cluster_fn(*args)
                return parent, merges, retired, requeued + 1

            return spmm_fn, minhash_fn, cluster

        monkeypatch.setattr(cc_backend, "load_kernels", off_by_one_requeue)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = load_backend(compiled_backend)
        assert loaded == LoadedBackend(
            "numpy", provenance=("backend:cc->numpy: bit check failed",)
        )
        assert [w.category for w in caught] == [DegradedExecution]
        assert compiled_backend not in backends_mod._LOADED


class TestSessionIntegration:
    def test_session_reports_backend_and_matches_reference(
        self, matrix, rng, backend_name
    ):
        X = rng.normal(size=(matrix.n_cols, 24))
        reference = spmm(matrix, X)
        session = KernelSession(matrix, backend=backend_name)
        assert session.backend == backend_name
        assert session.backend_provenance == ()
        np.testing.assert_array_equal(session.run(X), reference)

    def test_unavailable_backend_session_degrades_to_numpy(
        self, matrix, rng, no_compiler
    ):
        X = rng.normal(size=(matrix.n_cols, 8))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            session = KernelSession(matrix, backend="cc")
        assert session.backend == "numpy"
        assert session.backend_provenance == (NO_COMPILER,)
        assert any(w.category is DegradedExecution for w in caught)
        np.testing.assert_array_equal(session.run(X), spmm(matrix, X))

    def test_default_session_degrades_without_compiler(
        self, matrix, rng, no_compiler
    ):
        X = rng.normal(size=(matrix.n_cols, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            session = KernelSession(matrix)
        assert session.backend == "numpy"
        assert session.backend_provenance[0].startswith("backend:cc->numpy")
        np.testing.assert_array_equal(session.run(X), spmm(matrix, X))

    def test_session_defaults_to_cc(self, matrix, compiled_backend):
        session = KernelSession(matrix)
        assert session.backend == compiled_backend
        assert session.backend_provenance == ()


class TestPlanIntegration:
    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            ReorderConfig(backend="cuda")

    def test_build_plan_attaches_backend_and_artifact(
        self, matrix, compiled_backend
    ):
        compile_counter = METRICS.counter("kernels.backend_compile")
        before = compile_counter.value
        config = ReorderConfig(siglen=16, panel_height=8, backend=compiled_backend)
        plan = build_plan(matrix, config)
        assert plan.backend == compiled_backend
        assert compile_counter.value == before + 1  # the build loaded it
        assert plan.session().backend == compiled_backend
        assert compile_counter.value == before + 1  # its session reuses it
        assert plan.backend_provenance == ()
        assert not plan.degraded  # backend state never taints plan provenance

    def test_only_the_compiling_build_reports_the_compile(
        self, matrix, compiled_backend, monkeypatch, tmp_path
    ):
        """``backend_compile`` is what each build paid: the library build
        once, then a lookup in the process-wide cache."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))  # no built library
        config = ReorderConfig(siglen=16, panel_height=8, backend=compiled_backend)
        cold = build_plan(matrix, config)
        warm = build_plan(matrix, config)
        assert warm.backend == compiled_backend
        assert warm.preprocess_seconds["backend_compile"] < 0.01
        assert (
            cold.preprocess_seconds["backend_compile"]
            > warm.preprocess_seconds["backend_compile"]
        )

    def test_backend_degradation_stays_out_of_plan_provenance(
        self, matrix, rng, no_compiler
    ):
        config = ReorderConfig(siglen=16, panel_height=8)  # the default, cc
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            plan = build_plan(matrix, config)
        assert plan.backend == "numpy"
        assert plan.backend_provenance == (NO_COMPILER,)
        assert not plan.degraded
        assert plan.provenance == ()
        X = rng.normal(size=(matrix.n_cols, 8))
        np.testing.assert_array_equal(plan.session().run(X), spmm(matrix, X))

    def test_compiler_failure_degrades_with_provenance(
        self, matrix, rng, compiled_backend, monkeypatch
    ):
        # A compiler that exits non-zero: available, but every build fails.
        monkeypatch.setenv("CC", "false")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            plan = build_plan(matrix, ReorderConfig(siglen=16, panel_height=8))
            session = KernelSession(matrix)
        for provenance in (plan.backend_provenance, session.backend_provenance):
            assert provenance[0].startswith("backend:cc->numpy: compile failed: ")
            assert "exited 1" in provenance[0]
        assert plan.backend == session.backend == "numpy"
        assert any(w.category is DegradedExecution for w in caught)
        X = rng.normal(size=(matrix.n_cols, 8))
        np.testing.assert_array_equal(session.run(X), spmm(matrix, X))

    def test_attach_backend_is_idempotent_on_numpy(self, matrix):
        config = ReorderConfig(siglen=16, panel_height=8, backend="numpy")
        plan = build_plan(matrix, config)
        again = attach_backend(plan, config)
        assert again.backend == "numpy"
        assert again.backend_provenance == ()

    def test_plan_save_load_round_trips_backend(
        self, matrix, tmp_path, compiled_backend
    ):
        config = ReorderConfig(siglen=16, panel_height=8, backend=compiled_backend)
        plan = build_plan(matrix, config)
        path = tmp_path / "plan.npz"
        plan.save(path)
        from repro.reorder.pipeline import ExecutionPlan

        loaded = ExecutionPlan.load(path, matrix)
        assert loaded.backend == compiled_backend
        assert loaded.backend_provenance == ()

    def test_plan_saved_under_unregistered_backend_loads_on_numpy(
        self, matrix, rng, tmp_path
    ):
        # A plan file saved by a build that shipped the numba backend must
        # still load, degraded to numpy, and multiply bit-equal to the
        # reference.
        from repro.reorder.pipeline import ExecutionPlan

        config = ReorderConfig(
            siglen=16, panel_height=8, force_round1=True, backend="numpy"
        )
        path = tmp_path / "plan.npz"
        build_plan(matrix, config).save(path)
        with np.load(path) as data:
            fields = dict(data)
        fields["backend"] = np.str_("numba")
        np.savez_compressed(path, **fields)

        fallback = METRICS.counter("kernels.backend_fallback")
        before = fallback.value
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = ExecutionPlan.load(path, matrix)
        assert [w.category for w in caught] == [DegradedExecution]
        assert fallback.value == before + 1
        assert loaded.backend == "numpy"
        assert loaded.backend_provenance == (
            "backend:numba->numpy: not registered in this build",
        )
        X = rng.normal(size=(matrix.n_cols, 8))
        np.testing.assert_array_equal(loaded.session().run(X), spmm(matrix, X))


class TestOneLoadPerBuild:
    """A build loads its backend once, before round 1: both rounds'
    MinHash, a deferred round 2 included, run on what that load resolved,
    and a later read of the plan loads nothing."""

    CONFIG = dict(siglen=16, panel_height=8, force_round1=True, force_round2=True)

    @pytest.fixture
    def clustered(self):
        from repro.datasets import hidden_clusters

        return hidden_clusters(16, 4, 256, 8, noise=0.1, seed=4)

    @staticmethod
    def _degradations(call):
        """``call()``, its warning categories and its fallback count."""
        fallback = METRICS.counter("kernels.backend_fallback")
        before = fallback.value
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = call()
        return result, [w.category for w in caught], fallback.value - before

    def test_each_build_degrades_once_without_compiler(self, clustered, no_compiler):
        from repro.resilience import ResiliencePolicy
        from repro.streaming import StreamingPlan

        config = ReorderConfig(**self.CONFIG)  # the default backend, cc
        builds = {
            "plain": lambda: build_plan(clustered, config),
            "policy": lambda: build_plan(
                clustered, config, resilience=ResiliencePolicy()
            ),
            "streaming": lambda: StreamingPlan(clustered, config).plan,
        }
        for name, build in builds.items():
            plan, warned, fallbacks = self._degradations(build)
            assert (warned, fallbacks) == ([DegradedExecution], 1), name
            assert plan.backend_provenance == (NO_COMPILER,), name
            stats, warned, fallbacks = self._degradations(lambda: plan.stats)
            assert (warned, fallbacks) == ([], 0), name
            assert stats.round1_applied and stats.round2_applied, name

    def test_cold_build_reaches_the_compile_site_once(
        self, clustered, compiled_backend
    ):
        config = ReorderConfig(**self.CONFIG, backend=compiled_backend)
        with FaultInjector(rate=0.0, seed=0, sites=["backend.compile"]) as inj:
            plan = build_plan(clustered, config)
            assert plan.stats.round2_applied
        assert inj.checked["backend.compile"] == 1
        assert plan.backend == compiled_backend

    def test_both_rounds_hash_on_the_resolved_backend(
        self, clustered, compiled_backend, monkeypatch
    ):
        import repro.kernels.backends as backends_mod
        from conftest import assert_plans_identical

        loaded = load_backend(compiled_backend)
        hashed = []

        def counting(csr, a, b, out):
            hashed.append(csr.n_rows)
            loaded.minhash(csr, a, b, out)

        monkeypatch.setitem(
            backends_mod._LOADED, compiled_backend, loaded._replace(minhash=counting)
        )
        plan = build_plan(clustered, ReorderConfig(**self.CONFIG, backend=compiled_backend))
        assert len(hashed) == 1  # round 1; round 2 is pending
        reference = build_plan(clustered, ReorderConfig(**self.CONFIG, backend="numpy"))
        assert_plans_identical(plan, reference)  # runs round 2
        assert len(hashed) == 2


class TestPlanStoreIntegration:
    def test_backend_enters_the_cache_key(self, matrix, compiled_backend):
        from repro.planstore import plan_key

        base = ReorderConfig(siglen=16, panel_height=8, backend="numpy")
        other = ReorderConfig(siglen=16, panel_height=8, backend=compiled_backend)
        assert plan_key(matrix, base) != plan_key(matrix, other)

    def test_disk_round_trip_preserves_backend_and_artifact(
        self, matrix, tmp_path, compiled_backend
    ):
        from repro.planstore import PlanStore

        config = ReorderConfig(siglen=16, panel_height=8, backend=compiled_backend)
        store = PlanStore(cache_dir=tmp_path)
        build_plan(matrix, config, cache=store)
        # The entry stores decisions only: the backend comes from the key's
        # config, loaded again in this process.
        (entry,) = tmp_path.glob("*.plan.npz")
        with np.load(entry) as data:
            assert not {"backend", "artifact"} & set(data.files)
        # A fresh store over the same directory must hit the disk tier
        # and come back on the same backend, running the compiled SpMM
        # this process already loaded.
        compile_counter = METRICS.counter("kernels.backend_compile")
        before = compile_counter.value
        fresh = PlanStore(cache_dir=tmp_path)
        warm = build_plan(matrix, config, cache=fresh)
        assert fresh.stats()["disk"]["hits"] == 1
        assert warm.backend == compiled_backend
        assert warm.session().backend == compiled_backend
        assert compile_counter.value == before

    def test_warm_hit_resolves_backend_in_current_environment(
        self, matrix, tmp_path, compiled_backend, monkeypatch
    ):
        """A cached cc entry must not pin cc on a host without a compiler."""
        import repro.kernels.backends as backends_mod
        from repro.planstore import PlanDecisions, PlanStore

        config = ReorderConfig(siglen=16, panel_height=8, backend=compiled_backend)
        plan = build_plan(matrix, config, cache=PlanStore(cache_dir=tmp_path))
        assert plan.backend == compiled_backend
        decisions = PlanDecisions.from_plan(plan)
        # The same entry materialised where no compiler is found.
        monkeypatch.setenv("CC", "/nonexistent/cc")
        monkeypatch.setattr(backends_mod, "_LOADED", {})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            rebuilt = decisions.materialise(matrix, config)
            warm = build_plan(matrix, config, cache=PlanStore(cache_dir=tmp_path))
        assert rebuilt.backend == warm.backend == "numpy"
        assert warm.backend_provenance == (NO_COMPILER,)


class TestBackendOneShotDispatch:
    def test_spmm_backend_kwarg_dispatches(self, matrix, rng, backend_name):
        X = rng.normal(size=(matrix.n_cols, 12))
        reference = spmm(matrix, X)
        np.testing.assert_array_equal(spmm(matrix, X, backend=backend_name), reference)

    def test_spmm_backend_fills_caller_buffer(self, matrix, rng, compiled_backend):
        X = rng.normal(size=(matrix.n_cols, 12))
        out = np.empty((matrix.n_rows, 12), dtype=np.float64)
        got = spmm(matrix, X, out=out, backend=compiled_backend)
        assert got is out
        np.testing.assert_array_equal(out, spmm(matrix, X))


class TestCsrStateAlias:
    def test_state_multiply_matches_spmm(self, matrix, rng):
        X = rng.normal(size=(matrix.n_cols, 16))
        state = CsrState(matrix)
        out = np.empty((matrix.n_rows, 16), dtype=np.float64)
        from repro.util.workspace import DirectWorkspace

        state.multiply(X, out, DirectWorkspace(), 8)
        np.testing.assert_array_equal(out, spmm(matrix, X))


#: A fresh process's cc session on a small matrix, checked against spmm.
_PROBE = """
import numpy as np
from repro.datasets import hidden_clusters
from repro.kernels import KernelSession, spmm

m = hidden_clusters(10, 4, 64, 6, seed=0)
X = np.random.default_rng(0).normal(size=(m.n_cols, 8))
session = KernelSession(m, backend="cc")
assert session.backend == "cc", session.backend_provenance
assert np.array_equal(session.run(X), spmm(m, X))
print("ok")
"""


#: A fresh process's cc load, printed as JSON: what the loader returned,
#: the warnings and fallbacks it caused, what it cached, and half the
#: smallest normal float64 computed after it, in the loading thread and in
#: a thread started afterwards (0.0 where the load left flush-to-zero on).
_LOAD = """
import json, threading, warnings
import numpy as np
import repro.kernels.backends as backends
from repro.observability.metrics import METRICS

with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    loaded = backends.load_backend("cc")
halves = [float(np.float64(2.2250738585072014e-308) / 2)]
thread = threading.Thread(
    target=lambda: halves.append(float(np.float64(2.2250738585072014e-308) / 2))
)
thread.start()
thread.join(timeout=60)
print(json.dumps({
    "backend": loaded.backend,
    "spmm": None if loaded.spmm is None else "compiled",
    "minhash": None if loaded.minhash is None else "compiled",
    "cluster": None if loaded.cluster is None else "compiled",
    "provenance": list(loaded.provenance),
    "warnings": [w.category.__name__ for w in caught],
    "fallbacks": METRICS.counter("kernels.backend_fallback").value,
    "loaded": sorted(backends._LOADED),
    "subnormal_halves": halves,
}))
"""


def _probe_processes(cache_home, n, script=_PROBE, **environ):
    """Start ``n`` fresh interpreters running ``script`` on one cache, with
    ``environ`` added to their environment."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_home), **environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return [
        subprocess.Popen(
            [sys.executable, "-c", script],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(n)
    ]


def _assert_probes_ok(procs):
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert out.strip() == "ok"


class TestCcBuild:
    def test_library_is_cached_under_xdg_cache_home(
        self, compiled_backend, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert cache_dir() == tmp_path / "repro" / "cc"
        compile_counter = METRICS.counter("kernels.backend_compile")
        before = compile_counter.value
        assert load_backend(compiled_backend).backend == compiled_backend
        assert compile_counter.value == before + 1
        libraries = list(cache_dir().glob("spmm-*.so"))
        assert len(libraries) == 1
        assert libraries[0].with_name(libraries[0].name + ".sha256").exists()
        assert not list(cache_dir().glob("*.tmp"))  # no temp-file litter

    def test_truncated_library_is_rebuilt(self, compiled_backend, tmp_path):
        # Build once, cut the library in half, then load it in fresh
        # processes (this one may hold the old mapping): each must rebuild
        # and run, never map the torn file.
        _assert_probes_ok(_probe_processes(tmp_path, 1))
        (library,) = (tmp_path / "repro" / "cc").glob("spmm-*.so")
        intact = library.read_bytes()
        library.write_bytes(intact[: len(intact) // 2])
        _assert_probes_ok(_probe_processes(tmp_path, 1))
        assert library.stat().st_size > len(intact) // 2

    def test_two_processes_compile_into_one_empty_cache(
        self, compiled_backend, tmp_path
    ):
        _assert_probes_ok(_probe_processes(tmp_path, 2))
        libraries = list((tmp_path / "repro" / "cc").glob("spmm-*.so"))
        assert len(libraries) == 1
        assert not list((tmp_path / "repro" / "cc").glob("*.tmp"))

    def test_every_word_of_cc_is_in_the_key(
        self, compiled_backend, tmp_path, monkeypatch
    ):
        # Extra words of $CC reach the build, so a fast-math build must
        # never share a file with a plain one.
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cc = cc_backend.compiler()[0]
        monkeypatch.setenv("CC", shlex.quote(cc))
        plain_library = cc_backend._library_path()
        monkeypatch.setenv("CC", shlex.join([cc, *FAST_MATH]))
        assert cc_backend._library_path() != plain_library

    def test_library_that_fails_the_bit_check_degrades(
        self, compiled_backend, tmp_path
    ):
        # A fast-math build loads, but reassociated sums give other bits
        # than spmm: the loader degrades it once and does not cache it.
        # Loading it runs gcc's crtfastmath constructor, which turns on
        # flush-to-zero; the loader puts the floating-point environment
        # back, so subnormals survive in the loading thread and in threads
        # it starts later.  In a fresh process, so a regression cannot
        # leak flush-to-zero into the rest of the suite.
        cc = shlex.join([cc_backend.compiler()[0], *FAST_MATH])
        (proc,) = _probe_processes(tmp_path, 1, script=_LOAD, CC=cc)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        report = json.loads(out)
        halves = report.pop("subnormal_halves")
        assert report == {
            "backend": "numpy",
            "spmm": None,
            "minhash": None,
            "cluster": None,
            "provenance": ["backend:cc->numpy: bit check failed"],
            "warnings": ["DegradedExecution"],
            "fallbacks": 1,
            "loaded": [],
        }
        assert len(halves) == 2
        assert all(half != 0.0 for half in halves), halves


class TestCcThreads:
    def test_threads_share_one_plan_session(self, compiled_backend):
        # The C loop runs without the GIL: four threads multiply through one
        # plan session at once, each result bit-equal to spmm, so no
        # scratch may be shared between calls.
        from repro.datasets import hidden_clusters

        matrix = hidden_clusters(64, 4, 512, 12, noise=0.1, seed=2)
        config = ReorderConfig(siglen=32, panel_height=8, force_round1=True)
        session = build_plan(matrix, config).session()
        assert session.backend == compiled_backend
        rng = np.random.default_rng(5)
        operands = [rng.normal(size=(matrix.n_cols, 96)) for _ in range(4)]
        operands[1] = operands[1].astype(np.float32)  # widened via the lease
        expected = [spmm(matrix, X) for X in operands]
        barrier = threading.Barrier(len(operands))
        errors = []

        def worker(idx):
            try:
                barrier.wait(timeout=30)
                for _ in range(20):
                    got = session.run(operands[idx])
                    if not np.array_equal(got, expected[idx]):
                        errors.append(f"thread {idx}: result differs from spmm")
                        return
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(len(operands))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
