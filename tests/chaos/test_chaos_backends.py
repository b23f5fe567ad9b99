"""Chaos tests for the ``backend.compile`` fault site.

Contract: an injected compile failure must never crash — sessions and
plan builds degrade to the numpy reference, the
``resilience.fault_fired`` and ``kernels.backend_fallback`` counters
record the event, the degradation lands in ``backend_provenance`` (never
in the plan's resilience provenance), and results stay correct.  A
resumable sweep configured with a compiled backend completes with zero
crashes at any injection rate.  The numpy reference compiles nothing, so
every scenario runs the ``cc`` backend through the ``compiled_backend``
fixture (``conftest.py``).
"""

import warnings

import numpy as np

from conftest import random_csr
from repro.errors import DegradedExecution
from repro.experiments import ExperimentConfig, run_experiment
from repro.kernels import KernelSession, spmm
from repro.kernels.backends import load_backend
from repro.observability.metrics import METRICS
from repro.reorder import ReorderConfig, build_plan
from repro.resilience import FaultInjector


class TestCompileFaultDegradation:
    def test_session_compile_fault_falls_back_to_numpy(self, rng, compiled_backend):
        matrix = random_csr(rng, 24, 20, density=0.2)
        X = rng.normal(size=(20, 8))
        reference = spmm(matrix, X)
        fallback = METRICS.counter("kernels.backend_fallback")
        fired = METRICS.counter("resilience.fault_fired")
        before_fallback, before_fired = fallback.value, fired.value

        with FaultInjector(rate=1.0, seed=7, sites=["backend.compile"]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                session = KernelSession(matrix, backend=compiled_backend)
                got = session.run(X)

        assert session.backend == "numpy"
        assert session.backend_provenance
        assert "injected fault" in session.backend_provenance[0]
        assert fallback.value == before_fallback + 1
        assert fired.value == before_fired + 1
        assert any(w.category is DegradedExecution for w in caught)
        np.testing.assert_array_equal(got, reference)

    def test_plan_build_compile_fault_degrades_backend_only(
        self, rng, compiled_backend
    ):
        matrix = random_csr(rng, 30, 24, density=0.15)
        # compiled_backend starts from an empty in-process cache, so the
        # injected compile fault is guaranteed an arrival.
        config = ReorderConfig(siglen=16, panel_height=5, backend=compiled_backend)
        with FaultInjector(rate=1.0, seed=11, sites=["backend.compile"]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedExecution)
                plan = build_plan(matrix, config)
        assert plan.backend == "numpy"
        assert any("injected fault" in step for step in plan.backend_provenance)
        # The resilience ladder is untouched: a backend fault is not a
        # pipeline degradation and must not block plan caching.
        assert not plan.degraded
        # The degraded plan still multiplies bit-equal to the reference.
        X = rng.normal(size=(24, 8))
        np.testing.assert_array_equal(plan.spmm(X), spmm(matrix, X))

    def test_warm_artifacts_bypass_faults(self, compiled_backend):
        cold = load_backend(compiled_backend)  # fills the process-wide cache
        compile_counter = METRICS.counter("kernels.backend_compile")
        before = compile_counter.value
        with FaultInjector(rate=1.0, seed=3, sites=["backend.compile"]) as inj:
            warm = load_backend(compiled_backend)
        assert warm.spmm is cold.spmm
        assert inj.checked["backend.compile"] == 0  # cache hit: no fault arrival
        assert compile_counter.value == before  # and nothing compiled


class TestChaosSweepWithBackend:
    def test_backend_sweep_zero_crashes(
        self, tmp_path, chaos_rate, chaos_seed, compiled_backend
    ):
        reorder = ReorderConfig(panel_height=8, backend=compiled_backend)
        config = ExperimentConfig(
            scale="tiny", repeats=1, ks=(16,),
            reorder=reorder,
            plan_cache_dir=str(tmp_path / "cache"),
        )
        reference = run_experiment(
            ExperimentConfig(
                scale="tiny", repeats=1, ks=(16,),
                reorder=ReorderConfig(panel_height=8),
            )
        )
        with FaultInjector(
            rate=chaos_rate, seed=chaos_seed, sites=["backend.compile"]
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedExecution)
                records = run_experiment(config)  # zero crashes
        assert len(records) == len(reference)
        # Backend faults never surface as resilience degradation — every
        # record's ladder field stays empty (compile failures degrade the
        # backend, not the plan).
        assert all(not r.degradation for r in records)
