"""Chaos tests for kernel sessions when a scratch allocation fails.

Contract: the ``workspace.take`` fault raises ``MemoryError``, the
exception a real failed allocation raises.  It propagates out of
``KernelSession.run``, the lease hands back every block it had taken,
and the next ``run`` on the same session is **bitwise-identical** to the
one-shot reference.  The numpy-executor tests lease block buffers on
every call; the default ``cc`` loop leases scratch only to widen a
float32 operand.
"""

import numpy as np
import pytest

from repro.aspt import tile_matrix
from repro.datasets import hidden_clusters
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


def _target(kind, matrix):
    if kind == "tiled":
        return tile_matrix(matrix, panel_height=8)
    if kind == "plan":
        return build_plan(matrix, ReorderConfig(siglen=32, panel_height=8))
    return matrix


class TestInjectedExhaustion:
    @pytest.mark.parametrize("kind", ["csr", "tiled", "plan"])
    def test_take_fault_propagates(self, kind, matrix, X, chaos_seed):
        # The next run on the same session is exact.
        session = KernelSession(_target(kind, matrix), backend="numpy")
        with FaultInjector(rate=1.0, seed=chaos_seed, sites=["workspace.take"]):
            with pytest.raises(MemoryError, match="injected"):
                session.run(X)
        np.testing.assert_array_equal(session.run(X), spmm(matrix, X))

    def test_take_fault_raises_without_a_session(self, chaos_seed):
        # The lease still hands back the block it took before the fault.
        pool = WorkspacePool()
        with pytest.raises(MemoryError, match="injected"):
            with pool.lease() as ws:
                ws.scratch((64, 64))
                with FaultInjector(
                    rate=1.0, seed=chaos_seed, sites=["workspace.take"]
                ):
                    ws.scratch((64, 64))
        assert pool.stats()["held_bytes"] == 64 * 64 * 8

    def test_cc_widening_lease_fault_propagates(
        self, matrix, X, compiled_backend, chaos_seed
    ):
        # The cc loop's one lease is the float64 copy of a float32 operand.
        X32 = X.astype(np.float32)
        session = KernelSession(_target("plan", matrix))
        assert session.backend == compiled_backend
        with FaultInjector(rate=1.0, seed=chaos_seed, sites=["workspace.take"]):
            with pytest.raises(MemoryError, match="injected"):
                session.run(X32)
        np.testing.assert_array_equal(session.run(X32), spmm(matrix, X32))


class TestChaosRate:
    def test_sustained_injection_never_changes_results(
        self, matrix, X, chaos_rate, chaos_seed
    ):
        reference = spmm(matrix, X)
        session = KernelSession(matrix, backend="numpy")
        failed = 0
        with FaultInjector(
            rate=chaos_rate, seed=chaos_seed, sites=["workspace.take"]
        ) as injector:
            for _ in range(25):
                try:
                    got = session.run(X)
                except MemoryError:
                    failed += 1
                    continue
                np.testing.assert_array_equal(got, reference)
        # A float64 operand takes one block per numpy multiply.
        assert injector.checked["workspace.take"] == 25
        assert failed == injector.fired["workspace.take"]
