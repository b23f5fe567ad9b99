"""Unit tests for the pluggable compiled kernel backends.

Covers the registry (registration, resolution, graceful degradation),
the specialization spec (fingerprint stability, descriptor round trip),
per-spec code generation, the process-global artifact cache, session
integration, and the plan pipeline/persistence integration
(``attach_backend``, npz save/load, plan-store round trip).
"""

import warnings

import numpy as np
import pytest

from conftest import random_csr
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
from repro.kernels.backends.codegen_backend import (
    render_source as codegen_source,
)
from repro.kernels.backends.numba_backend import render_source as numba_source
from repro.kernels.state import CsrState
from repro.observability.metrics import METRICS
from repro.reorder import ReorderConfig, attach_backend, build_plan
from repro.sparse import CSRMatrix


@pytest.fixture
def matrix(rng):
    return random_csr(rng, 40, 32, density=0.1)


class TestRegistry:
    def test_numpy_is_first_and_always_available(self):
        names = backend_names()
        assert names[0] == "numpy"
        assert "codegen" in names and "numba" in names
        assert "numpy" in available_backends()
        assert "codegen" in available_backends()

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
        a = SpecializationSpec(kernel="spmm", chunk_k=64)
        b = SpecializationSpec(kernel="spmm", chunk_k=64)
        c = SpecializationSpec(kernel="spmm", chunk_k=32)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_descriptor_round_trip(self):
        spec = SpecializationSpec(
            kernel="sddmm",
            dtype="float32",
            chunk_k=48,
            nonempty_rows=True,
            k_hint=512,
            panel_height=16,
            dense_bucket=7,
        )
        assert SpecializationSpec.from_descriptor(spec.to_descriptor()) == spec

    def test_from_descriptor_ignores_unknown_keys(self):
        spec = SpecializationSpec(chunk_k=24)
        parts = spec.to_descriptor() + ("future_field=1",)
        assert SpecializationSpec.from_descriptor(parts) == spec

    def test_specialize_reads_matrix_structure(self, matrix):
        spec = specialize(matrix, kernel="spmm", dtype="float64", k_hint=64)
        dense_rows = np.all(matrix.row_lengths() > 0)
        assert spec.nonempty_rows == bool(dense_rows and matrix.nnz > 0)
        assert spec.k_hint == 64

    def test_specialize_reads_plan_structure(self, matrix):
        plan = build_plan(matrix, ReorderConfig(siglen=16, panel_height=8))
        spec = specialize(plan, kernel="spmm")
        assert spec.panel_height == 8
        assert 0 <= spec.dense_bucket <= 10

    def test_specialize_rejects_unknown_target(self):
        with pytest.raises(TypeError):
            specialize(object())


class TestCodegenSpecialization:
    def test_chunk_width_is_baked_into_source(self):
        source = codegen_source(SpecializationSpec(kernel="spmm", chunk_k=37))
        assert "37" in source

    def test_empty_row_epilogue_is_elided_for_dense_row_matrices(self):
        with_empties = codegen_source(
            SpecializationSpec(kernel="spmm", nonempty_rows=False)
        )
        without = codegen_source(
            SpecializationSpec(kernel="spmm", nonempty_rows=True)
        )
        assert "state.empty" in with_empties
        assert "state.empty" not in without

    def test_numba_sddmm_accumulator_follows_dtype(self):
        f32 = numba_source(SpecializationSpec(kernel="sddmm", dtype="float32"))
        f64 = numba_source(SpecializationSpec(kernel="sddmm", dtype="float64"))
        assert "np.float32(0.0)" in f32
        assert "np.float32(0.0)" not in f64

    def test_compiled_kernel_descriptor_names_backend_and_fingerprint(self):
        spec = SpecializationSpec(kernel="spmm", chunk_k=16)
        kernel = get_backend("codegen").compile(spec)
        descriptor = kernel.descriptor()
        assert "backend=codegen" in descriptor
        assert f"fingerprint={spec.fingerprint()}" in descriptor
        assert isinstance(kernel, CompiledKernel)
        assert kernel.source is not None


class TestArtifactCache:
    def test_warm_artifact_skips_recompilation(self):
        spec = SpecializationSpec(kernel="spmm", chunk_k=53, k_hint=1234)
        compile_counter = METRICS.counter("kernels.backend_compile")
        backend = get_backend("codegen")
        cold = compiled_artifact(backend, spec)
        after_cold = compile_counter.value
        warm = compiled_artifact(backend, spec)
        assert warm is cold
        assert compile_counter.value == after_cold  # no second compile
        assert cold.compile_seconds >= 0.0

    def test_unavailable_backend_compile_raises(self):
        numba = get_backend("numba")
        if numba.available():  # pragma: no cover - CI backends lane
            pytest.skip("numba importable here; unavailability not testable")
        with pytest.raises(BackendUnavailable):
            compiled_artifact(
                numba, SpecializationSpec(kernel="spmm", chunk_k=51)
            )


class TestSessionIntegration:
    def test_session_reports_backend_and_matches_reference(
        self, matrix, rng, backend_name
    ):
        X = rng.normal(size=(matrix.n_cols, 24))
        reference = spmm(matrix, X)
        session = KernelSession(matrix, backend=backend_name)
        assert session.backend == backend_name
        assert session.backend_provenance == ()
        got = session.run(X)
        if backend_name == "numba":
            np.testing.assert_array_max_ulp(got, reference, maxulp=1)
        else:
            np.testing.assert_array_equal(got, reference)

    def test_unavailable_backend_session_degrades_to_numpy(self, matrix, rng):
        numba = get_backend("numba")
        if numba.available():  # pragma: no cover - CI backends lane
            pytest.skip("numba importable here; degradation not testable")
        X = rng.normal(size=(matrix.n_cols, 8))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            session = KernelSession(matrix, backend="numba")
        assert session.backend == "numpy"
        assert session.backend_provenance
        assert session.backend_provenance[0].startswith("backend:numba->numpy")
        assert any(w.category is DegradedExecution for w in caught)
        np.testing.assert_array_equal(session.run(X), spmm(matrix, X))


class TestPlanIntegration:
    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            ReorderConfig(backend="cuda")

    def test_build_plan_attaches_backend_and_artifact(self, matrix):
        config = ReorderConfig(siglen=16, panel_height=8, backend="codegen")
        plan = build_plan(matrix, config)
        assert plan.backend == "codegen"
        assert plan.artifact  # descriptor recorded next to the plan
        assert not plan.backend_degraded
        assert not plan.degraded  # backend state never taints plan provenance

    def test_plan_artifact_names_the_artifact_its_session_runs(self, matrix):
        config = ReorderConfig(siglen=16, panel_height=8, backend="codegen")
        plan = build_plan(matrix, config)
        session = plan.session()
        assert session.backend == "codegen"

        def fingerprint(descriptor):
            return dict(part.split("=", 1) for part in descriptor)["fingerprint"]

        assert fingerprint(session.artifact) == fingerprint(plan.artifact)

    def test_backend_degradation_stays_out_of_plan_provenance(self, matrix):
        numba = get_backend("numba")
        if numba.available():  # pragma: no cover - CI backends lane
            pytest.skip("numba importable here; degradation not testable")
        config = ReorderConfig(siglen=16, panel_height=8, backend="numba")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            plan = build_plan(matrix, config)
        assert plan.backend == "numpy"
        assert plan.backend_degraded
        assert not plan.degraded
        assert plan.provenance == ()

    def test_attach_backend_is_idempotent_on_numpy(self, matrix):
        plan = build_plan(matrix, ReorderConfig(siglen=16, panel_height=8))
        again = attach_backend(plan, ReorderConfig(siglen=16, panel_height=8))
        assert again.backend == "numpy"
        assert again.artifact == ()

    def test_plan_save_load_round_trips_backend(self, matrix, tmp_path):
        config = ReorderConfig(siglen=16, panel_height=8, backend="codegen")
        plan = build_plan(matrix, config)
        path = tmp_path / "plan.npz"
        plan.save(path)
        from repro.reorder.pipeline import ExecutionPlan

        loaded = ExecutionPlan.load(path, matrix)
        assert loaded.backend == "codegen"
        assert tuple(loaded.artifact) == tuple(plan.artifact)


class TestPlanStoreIntegration:
    def test_backend_enters_the_cache_key(self, matrix):
        from repro.planstore import plan_key

        base = ReorderConfig(siglen=16, panel_height=8)
        other = ReorderConfig(siglen=16, panel_height=8, backend="codegen")
        assert plan_key(matrix, base) != plan_key(matrix, other)

    def test_disk_round_trip_preserves_backend_and_artifact(
        self, matrix, tmp_path
    ):
        from repro.planstore import PlanStore

        config = ReorderConfig(siglen=16, panel_height=8, backend="codegen")
        store = PlanStore(cache_dir=tmp_path)
        cold = build_plan(matrix, config, cache=store)
        # A fresh store over the same directory must hit the disk tier
        # and come back with the same backend + artifact descriptor.
        fresh = PlanStore(cache_dir=tmp_path)
        warm = build_plan(matrix, config, cache=fresh)
        assert fresh.stats()["disk"]["hits"] == 1
        assert warm.backend == "codegen"
        assert tuple(warm.artifact) == tuple(cold.artifact)

    def test_warm_hit_resolves_backend_in_current_environment(
        self, matrix, tmp_path
    ):
        """A cached numba entry must not pin numba on a numba-less host."""
        from repro.planstore import PlanDecisions, PlanStore

        config = ReorderConfig(siglen=16, panel_height=8, backend="numba")
        store = PlanStore(cache_dir=tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            plan = build_plan(matrix, config, cache=store)
        # Whatever environment wrote the entry, materialising re-resolves:
        # on this host the result is exactly what resolve_backend says now.
        expected = resolve_backend("numba", warn=False)[0].name
        assert plan.backend == expected
        decisions = PlanDecisions.from_plan(plan)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            rebuilt = decisions.materialise(matrix, config)
        assert rebuilt.backend == expected


class TestBackendOneShotDispatch:
    def test_spmm_backend_kwarg_dispatches(self, matrix, rng, backend_name):
        X = rng.normal(size=(matrix.n_cols, 12))
        reference = spmm(matrix, X)
        got = spmm(matrix, X, backend=backend_name)
        if backend_name == "numba":
            np.testing.assert_array_max_ulp(got, reference, maxulp=1)
        else:
            np.testing.assert_array_equal(got, reference)

    def test_spmm_backend_fills_caller_buffer(self, matrix, rng):
        X = rng.normal(size=(matrix.n_cols, 12))
        out = np.empty((matrix.n_rows, 12), dtype=np.float64)
        got = spmm(matrix, X, out=out, backend="codegen")
        assert got is out
        np.testing.assert_array_equal(out, spmm(matrix, X))


class TestCsrStateAlias:
    def test_session_module_keeps_private_aliases(self):
        # Back-compat: earlier code (and pickled references) used the
        # private names; they must stay importable.
        from repro.kernels.session import _CsrSteadyState, _DirectWorkspace

        assert _CsrSteadyState is CsrState
        assert _DirectWorkspace is not None

    def test_state_multiply_matches_spmm(self, matrix, rng):
        X = rng.normal(size=(matrix.n_cols, 16))
        state = CsrState(matrix)
        out = np.empty((matrix.n_rows, 16), dtype=np.float64)
        from repro.util.workspace import DirectWorkspace

        state.multiply(X, out, DirectWorkspace(), 8)
        np.testing.assert_array_equal(out, spmm(matrix, X))
