"""Unit tests for the kernel backends.

Covers the registry (registration, resolution, graceful degradation),
the specialization spec (fingerprint stability, descriptor round trip),
the process-global artifact cache, session integration, the plan
pipeline/persistence integration (``attach_backend``, npz save/load,
plan-store round trip), and the ``cc`` backend's build: its on-disk
cache, its failure modes and its GIL-free loop under threads.  The
paths that run only for a compiling backend use the ``compiled_backend``
fixture (``conftest.py``), which skips where no C compiler is found; the
degradation tests point ``CC`` at a missing compiler themselves, so they
run everywhere.
"""

import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from conftest import random_csr
import repro
from repro.errors import BackendUnavailable, ConfigError, DegradedExecution
from repro.kernels import KernelSession, spmm
from repro.kernels.backends import (
    CompiledKernel,
    KernelBackend,
    SpecializationSpec,
    available_backends,
    backend_names,
    compiled_artifact,
    get_backend,
    resolve_backend,
    specialize,
)
from repro.kernels.backends.cc_backend import cache_dir
from repro.kernels.state import CsrState
from repro.observability.metrics import METRICS
from repro.resilience import FaultInjector
from repro.reorder import ReorderConfig, attach_backend, build_plan
from repro.sparse import CSRMatrix


@pytest.fixture
def matrix(rng):
    return random_csr(rng, 40, 32, density=0.1)


@pytest.fixture
def no_compiler(monkeypatch):
    """``CC`` names a missing compiler; the in-process artifact cache is empty."""
    from repro.kernels.backends import registry

    monkeypatch.setenv("CC", "/nonexistent/cc")
    monkeypatch.setattr(registry, "_ARTIFACTS", {})


class TestRegistry:
    def test_numpy_is_first_and_always_available(self):
        names = backend_names()
        assert names == ("numpy", "cc")
        assert "numpy" in available_backends()

    def test_numpy_session_compiles_nothing(self, matrix, rng):
        compile_counter = METRICS.counter("kernels.backend_compile")
        before = compile_counter.value
        with FaultInjector(rate=1.0, seed=0, sites=["backend.compile"]) as inj:
            session = KernelSession(matrix, backend="numpy")
        assert inj.checked["backend.compile"] == 0
        assert compile_counter.value == before
        assert session.backend == "numpy"
        assert session.artifact == ()
        X = rng.normal(size=(matrix.n_cols, 8))
        np.testing.assert_array_equal(session.run(X), spmm(matrix, X))

    def test_get_backend_unknown_raises_config_error(self):
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            get_backend("cuda")

    def test_resolve_none_and_numpy_are_the_reference(self):
        for request in (None, "numpy"):
            backend, provenance = resolve_backend(request)
            assert backend.name == "numpy"
            assert provenance == ()

    def test_resolve_unknown_raises_config_error(self):
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            resolve_backend("cuda")

    def test_resolve_unavailable_degrades_with_provenance(self):
        class Ghost(KernelBackend):
            name = "ghost-unit"

            @classmethod
            def available(cls):
                return False

            @classmethod
            def unavailable_reason(cls):
                return "unit-test ghost"

            def compile(self, spec):  # pragma: no cover - never reached
                raise AssertionError

        from repro.kernels.backends.registry import _REGISTRY

        _REGISTRY["ghost-unit"] = Ghost()
        try:
            fallback = METRICS.counter("kernels.backend_fallback")
            before = fallback.value
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                backend, provenance = resolve_backend("ghost-unit")
            assert backend.name == "numpy"
            assert provenance == ("backend:ghost-unit->numpy: unit-test ghost",)
            assert fallback.value == before + 1
            assert any(w.category is DegradedExecution for w in caught)
        finally:
            del _REGISTRY["ghost-unit"]


class TestSpecializationSpec:
    def test_fingerprint_is_stable_and_field_sensitive(self):
        a = SpecializationSpec(kernel="spmm", dtype="float64")
        b = SpecializationSpec(kernel="spmm", dtype="float64")
        c = SpecializationSpec(kernel="spmm", dtype="float32")
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_descriptor_round_trip(self):
        spec = SpecializationSpec(kernel="spmm", dtype="float32")
        assert SpecializationSpec.from_descriptor(spec.to_descriptor()) == spec

    def test_from_descriptor_ignores_unknown_keys(self):
        spec = SpecializationSpec(dtype="float64")
        # Descriptors written before the matrix-derived spec fields were
        # dropped still carry them.
        parts = spec.to_descriptor() + (
            "future_field=1",
            "panel_height=16",
            "dense_bucket=7",
            "chunk_k=64",
            "nonempty_rows=True",
            "k_hint=512",
        )
        assert SpecializationSpec.from_descriptor(parts) == spec

    def test_specialize_needs_no_matrix(self):
        spec = specialize(kernel="spmm", dtype="float64")
        assert spec == SpecializationSpec(kernel="spmm", dtype="float64")
        # One artifact for every matrix: the default spec is dtype-generic.
        assert specialize() == SpecializationSpec(kernel="spmm", dtype="any")

    def test_specialize_rejects_unknown_target(self, matrix):
        # specialize() takes no target at all: passing a matrix or a plan
        # is a mistake, not a hint.
        with pytest.raises(TypeError):
            specialize(object())
        plan = build_plan(matrix, ReorderConfig(siglen=16, panel_height=8))
        with pytest.raises(TypeError):
            specialize(plan)


class TestSpecializedKernels:
    def test_compiled_kernel_descriptor_names_backend_and_fingerprint(
        self, compiled_backend
    ):
        spec = SpecializationSpec(kernel="spmm")
        kernel = get_backend(compiled_backend).compile(spec)
        descriptor = kernel.descriptor()
        assert f"backend={compiled_backend}" in descriptor
        assert f"fingerprint={spec.fingerprint()}" in descriptor
        assert isinstance(kernel, CompiledKernel)

    def test_cc_compiles_only_spmm(self, compiled_backend):
        with pytest.raises(BackendUnavailable, match="only spmm"):
            get_backend(compiled_backend).compile(SpecializationSpec(kernel="sddmm"))


class TestArtifactCache:
    def test_warm_artifact_skips_recompilation(self, compiled_backend):
        spec = SpecializationSpec(kernel="spmm", dtype="float64")
        compile_counter = METRICS.counter("kernels.backend_compile")
        backend = get_backend(compiled_backend)
        cold = compiled_artifact(backend, spec)
        after_cold = compile_counter.value
        warm = compiled_artifact(backend, spec)
        assert warm is cold
        assert compile_counter.value == after_cold  # no second compile
        assert cold.compile_seconds >= 0.0

    def test_unavailable_backend_compile_raises(self, no_compiler):
        cc = get_backend("cc")
        assert not cc.available()
        assert "/nonexistent/cc" in cc.unavailable_reason()
        with pytest.raises(BackendUnavailable):
            compiled_artifact(cc, SpecializationSpec(kernel="spmm"))


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
        assert session.backend_provenance
        assert session.backend_provenance[0].startswith("backend:cc->numpy")
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
        assert session.artifact


class TestPlanIntegration:
    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            ReorderConfig(backend="cuda")

    def test_build_plan_attaches_backend_and_artifact(
        self, matrix, compiled_backend
    ):
        config = ReorderConfig(siglen=16, panel_height=8, backend=compiled_backend)
        plan = build_plan(matrix, config)
        assert plan.backend == compiled_backend
        assert plan.artifact  # descriptor recorded next to the plan
        assert not plan.backend_degraded
        assert not plan.degraded  # backend state never taints plan provenance

    def test_plan_artifact_names_the_artifact_its_session_runs(
        self, matrix, compiled_backend
    ):
        config = ReorderConfig(siglen=16, panel_height=8, backend=compiled_backend)
        plan = build_plan(matrix, config)
        session = plan.session()
        assert session.backend == compiled_backend

        def fingerprint(descriptor):
            return dict(part.split("=", 1) for part in descriptor)["fingerprint"]

        assert fingerprint(session.artifact) == fingerprint(plan.artifact)

    def test_backend_degradation_stays_out_of_plan_provenance(
        self, matrix, rng, no_compiler
    ):
        config = ReorderConfig(siglen=16, panel_height=8)  # the default, cc
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            plan = build_plan(matrix, config)
        assert plan.backend == "numpy"
        assert plan.backend_degraded
        assert plan.backend_provenance[0].startswith("backend:cc->numpy: ")
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
        assert again.artifact == ()

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
        assert tuple(loaded.artifact) == tuple(plan.artifact)
        assert not loaded.backend_degraded

    def test_plan_saved_under_unregistered_backend_loads_on_numpy(
        self, matrix, rng, tmp_path, compiled_backend, monkeypatch
    ):
        # A plan saved under a backend that a later build no longer
        # registers must still load, degraded to numpy, and multiply
        # bit-equal to the reference.
        from repro.kernels.backends import registry
        from repro.reorder.pipeline import ExecutionPlan

        config = ReorderConfig(
            siglen=16, panel_height=8, force_round1=True, backend=compiled_backend
        )
        plan = build_plan(matrix, config)
        assert plan.artifact
        path = tmp_path / "plan.npz"
        plan.save(path)
        monkeypatch.delitem(registry._REGISTRY, compiled_backend)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = ExecutionPlan.load(path, matrix)
        assert any(w.category is DegradedExecution for w in caught)
        assert loaded.backend == "numpy"
        assert loaded.artifact == ()
        assert loaded.backend_degraded
        assert loaded.backend_provenance[0].startswith(
            f"backend:{compiled_backend}->numpy: "
        )
        X = rng.normal(size=(matrix.n_cols, 8))
        np.testing.assert_array_equal(loaded.session().run(X), spmm(matrix, X))


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
        cold = build_plan(matrix, config, cache=store)
        # A fresh store over the same directory must hit the disk tier
        # and come back with the same backend + artifact descriptor.
        fresh = PlanStore(cache_dir=tmp_path)
        warm = build_plan(matrix, config, cache=fresh)
        assert fresh.stats()["disk"]["hits"] == 1
        assert warm.backend == compiled_backend
        assert tuple(warm.artifact) == tuple(cold.artifact)

    def test_warm_hit_resolves_backend_in_current_environment(
        self, matrix, tmp_path, compiled_backend, monkeypatch
    ):
        """A cached cc entry must not pin cc on a host without a compiler."""
        from repro.kernels.backends import registry
        from repro.planstore import PlanDecisions, PlanStore

        config = ReorderConfig(siglen=16, panel_height=8, backend=compiled_backend)
        plan = build_plan(matrix, config, cache=PlanStore(cache_dir=tmp_path))
        assert plan.backend == compiled_backend
        decisions = PlanDecisions.from_plan(plan)
        # The same entry materialised where no compiler is found.
        monkeypatch.setenv("CC", "/nonexistent/cc")
        monkeypatch.setattr(registry, "_ARTIFACTS", {})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            rebuilt = decisions.materialise(matrix, config)
            warm = build_plan(matrix, config, cache=PlanStore(cache_dir=tmp_path))
        expected = resolve_backend(compiled_backend, warn=False)[0].name
        assert expected == "numpy"
        assert rebuilt.backend == warm.backend == expected
        assert warm.backend_provenance[0].startswith("backend:cc->numpy: ")


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


def _probe_processes(cache_home, n):
    """Start ``n`` fresh interpreters running :data:`_PROBE` on one cache."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_home))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return [
        subprocess.Popen(
            [sys.executable, "-c", _PROBE],
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
        get_backend(compiled_backend).artifact(specialize(kernel="spmm"))
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
