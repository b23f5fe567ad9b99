"""Chaos tests for kernel sessions under workspace-pool exhaustion.

Contract (ISSUE satellite): when the pool cannot serve a lease — a real
``max_lease_bytes`` cap hit mid-multiply or an injected fault — the
session completes through direct allocation and the result is
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


class TestLeaseCapFallback:
    def test_cap_hit_mid_multiply_falls_back_bitwise_identical(self, matrix, X):
        reference = spmm(matrix, X)
        # Large enough for small leases, too small for the executor's
        # block buffer — the cap fires inside the multiply, not at lease
        # time.
        session = KernelSession(
            matrix, pool=WorkspacePool(max_lease_bytes=1024), backend="numpy"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = session.run(X)
            np.testing.assert_array_equal(got, reference)
            assert session.fallbacks == 1
            # Warn once per session, not per call.
            session.run(X)
            assert session.fallbacks == 2
        degraded = [w for w in caught if w.category is DegradedExecution]
        assert len(degraded) == 1

    def test_cap_raises_without_session_wrapper(self):
        pool = WorkspacePool(max_lease_bytes=64)
        with pool.lease() as ws:
            with pytest.raises(WorkspaceExhausted, match="max_lease_bytes"):
                ws.scratch((64, 64))

    def test_plan_session_fallback_matches_plan_spmm(self, matrix, X):
        plan = build_plan(matrix, ReorderConfig(siglen=32, panel_height=8))
        reference = plan.spmm(X)
        session = KernelSession(
            plan, pool=WorkspacePool(max_lease_bytes=2048), backend="numpy"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            got = session.run(X)
        np.testing.assert_array_equal(got, reference)
        assert session.fallbacks == 1

    def test_cc_widening_lease_cap_falls_back(self, matrix, X, compiled_backend):
        # The cc loop's one lease is the float64 copy of a float32 operand.
        plan = build_plan(matrix, ReorderConfig(siglen=32, panel_height=8))
        X32 = X.astype(np.float32)
        session = KernelSession(plan, pool=WorkspacePool(max_lease_bytes=1024))
        assert session.backend == compiled_backend
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            got = session.run(X32)
        np.testing.assert_array_equal(got, spmm(matrix, X32))
        assert session.fallbacks == 1

    def test_tiled_session_fallback_matches_reference(self, matrix, X):
        tiled = tile_matrix(matrix, panel_height=8)
        pooled = KernelSession(tiled).run(X).copy()
        capped = KernelSession(tiled, pool=WorkspacePool(max_lease_bytes=2048))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            got = capped.run(X)
        np.testing.assert_array_equal(got, pooled)


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
