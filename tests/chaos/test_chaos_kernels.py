"""Chaos tests for kernel sessions under workspace-pool exhaustion.

Contract: when the pool cannot serve a lease — a ``workspace.take``
fault, which stands in for memory pressure, or a ``session.run`` fault —
the session completes through direct allocation and the result is
**bitwise-identical** to the pooled path.  The lease-path tests pin the
numpy executor, whose block buffers are leased on every call; the
default ``cc`` loop leases scratch only to widen a float32 operand.
"""

import warnings

import numpy as np
import pytest

from repro.aspt import tile_matrix
from repro.datasets import hidden_clusters
from repro.errors import DegradedExecution, WorkspaceExhausted
from repro.kernels import KernelSession, spmm
from repro.reorder import ReorderConfig, build_plan
from repro.resilience import FaultInjector
from repro.util.workspace import WorkspacePool


@pytest.fixture
def matrix():
    return hidden_clusters(12, 6, 128, 6, noise=0.1, seed=3)


@pytest.fixture
def X(matrix, rng):
    return rng.normal(size=(matrix.n_cols, 32))


class TestInjectedExhaustion:
    def test_injected_session_fault_falls_back_once(self, matrix, X, chaos_seed):
        reference = spmm(matrix, X)
        session = KernelSession(matrix)
        with FaultInjector(
            rate=1.0, seed=chaos_seed, sites=["session.run"], max_faults=1
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedExecution)
                got = session.run(X)
        np.testing.assert_array_equal(got, reference)
        assert session.fallbacks == 1
        # After the injector window the pooled path serves again.
        np.testing.assert_array_equal(session.run(X), reference)
        assert session.fallbacks == 1

    def test_take_fault_mid_multiply_warns_once(self, matrix, X, chaos_seed):
        """Every lease fails, inside the executor's multiply: each run
        falls back with the reference bits, and the session warns once."""
        reference = spmm(matrix, X)
        session = KernelSession(matrix, backend="numpy")
        with FaultInjector(rate=1.0, seed=chaos_seed, sites=["workspace.take"]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                np.testing.assert_array_equal(session.run(X), reference)
                assert session.fallbacks == 1
                # Warn once per session, not per call.
                np.testing.assert_array_equal(session.run(X), reference)
                assert session.fallbacks == 2
        degraded = [w for w in caught if w.category is DegradedExecution]
        assert len(degraded) == 1

    def test_take_fault_raises_without_a_session(self, chaos_seed):
        pool = WorkspacePool()
        with FaultInjector(rate=1.0, seed=chaos_seed, sites=["workspace.take"]):
            with pool.lease() as ws:
                with pytest.raises(WorkspaceExhausted, match="injected"):
                    ws.scratch((64, 64))

    def test_plan_session_fallback_matches_plan_spmm(self, matrix, X, chaos_seed):
        plan = build_plan(matrix, ReorderConfig(siglen=32, panel_height=8))
        reference = plan.spmm(X)
        session = KernelSession(plan, backend="numpy")
        with FaultInjector(rate=1.0, seed=chaos_seed, sites=["workspace.take"]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedExecution)
                got = session.run(X)
        np.testing.assert_array_equal(got, reference)
        assert session.fallbacks == 1

    def test_cc_widening_lease_fault_falls_back(
        self, matrix, X, compiled_backend, chaos_seed
    ):
        # The cc loop's one lease is the float64 copy of a float32 operand.
        plan = build_plan(matrix, ReorderConfig(siglen=32, panel_height=8))
        X32 = X.astype(np.float32)
        session = KernelSession(plan)
        assert session.backend == compiled_backend
        with FaultInjector(rate=1.0, seed=chaos_seed, sites=["workspace.take"]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedExecution)
                got = session.run(X32)
        np.testing.assert_array_equal(got, spmm(matrix, X32))
        assert session.fallbacks == 1

    def test_tiled_session_fallback_matches_reference(self, matrix, X, chaos_seed):
        tiled = tile_matrix(matrix, panel_height=8)
        pooled = KernelSession(tiled, backend="numpy").run(X).copy()
        session = KernelSession(tiled, backend="numpy")
        with FaultInjector(rate=1.0, seed=chaos_seed, sites=["workspace.take"]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedExecution)
                got = session.run(X)
        np.testing.assert_array_equal(got, pooled)
        assert session.fallbacks == 1

    def test_injected_take_fault_falls_back(self, matrix, X, chaos_seed):
        reference = spmm(matrix, X)
        session = KernelSession(matrix, backend="numpy")
        with FaultInjector(
            rate=1.0, seed=chaos_seed, sites=["workspace.take"], max_faults=1
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedExecution)
                got = session.run(X)
        np.testing.assert_array_equal(got, reference)
        assert session.fallbacks == 1


class TestChaosRate:
    def test_sustained_injection_never_changes_results(
        self, matrix, X, chaos_rate, chaos_seed
    ):
        reference = spmm(matrix, X)
        session = KernelSession(matrix)
        with FaultInjector(
            rate=chaos_rate,
            seed=chaos_seed,
            sites=["session.run", "workspace.take"],
        ) as injector:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedExecution)
                for _ in range(25):
                    np.testing.assert_array_equal(session.run(X), reference)
        assert injector.checked["session.run"] == 25
        assert session.fallbacks == sum(injector.fired.values())
