"""Unit tests for repro.util.workspace (size-class buffer pool)."""

import threading

import numpy as np
import pytest

from repro.util import workspace
from repro.util.workspace import WorkspacePool
from repro.util.workspace import _size_class


class TestSizeClass:
    def test_powers_of_two_are_fixed_points(self):
        for exp in range(0, 20):
            assert _size_class(2**exp) == max(1, 2**exp)

    def test_rounds_up(self):
        assert _size_class(5) == 8
        assert _size_class(1025) == 2048

    def test_empty_request_gets_minimal_class(self):
        assert _size_class(0) == 1


class TestWorkspacePool:
    def test_take_shapes_and_dtype(self):
        pool = WorkspacePool()
        a = pool.take((3, 5), np.float32)
        assert a.shape == (3, 5)
        assert a.dtype == np.float32
        assert a.flags["C_CONTIGUOUS"]

    def test_reuse_within_size_class(self):
        pool = WorkspacePool()
        a = pool.take(5)
        base = a.base
        pool.give(a)
        b = pool.take(7)  # same class (8): must reuse the parked block
        assert b.base is base
        assert pool.stats()["hits"] == 1
        assert pool.stats()["misses"] == 1

    def test_distinct_dtypes_do_not_share_blocks(self):
        pool = WorkspacePool()
        a = pool.take(8, np.float64)
        pool.give(a)
        b = pool.take(8, np.int64)
        assert pool.stats()["hits"] == 0
        assert b.dtype == np.int64

    def test_eviction_past_max_bytes(self, monkeypatch):
        monkeypatch.setattr(workspace, "MAX_BYTES", 8 * 16)  # one 16-element block
        pool = WorkspacePool()
        a = pool.take(16)
        b = pool.take(16)
        pool.give(a)
        pool.give(b)  # second give exceeds the bound -> dropped
        stats = pool.stats()
        assert stats["evictions"] == 1
        assert stats["held_bytes"] == 8 * 16

    def test_clear_drops_idle_blocks(self):
        pool = WorkspacePool()
        pool.give(pool.take(64))
        assert pool.stats()["held_bytes"] > 0
        pool.clear()
        assert pool.stats()["held_bytes"] == 0
        pool.take(64)
        assert pool.stats()["misses"] == 2  # cleared block was not reused

    def test_give_rejects_foreign_scalars(self):
        pool = WorkspacePool()
        with pytest.raises(ValueError):
            pool.give(np.float64(3.0))  # not an array leased from a pool

    def test_negative_shape_rejected(self):
        pool = WorkspacePool()
        with pytest.raises(ValueError):
            pool.take((4, -1))

    def test_thread_safety_under_churn(self, monkeypatch):
        monkeypatch.setattr(workspace, "MAX_BYTES", 1 << 20)
        pool = WorkspacePool()
        errors = []

        def churn(seed):
            try:
                rng = np.random.default_rng(seed)
                for _ in range(200):
                    n = int(rng.integers(1, 2048))
                    a = pool.take(n)
                    a[:] = seed  # touch the memory
                    pool.give(a)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = pool.stats()
        assert stats["hits"] + stats["misses"] == 8 * 200
        assert stats["held_bytes"] <= workspace.MAX_BYTES


class TestWorkspace:
    def test_context_manager_releases_blocks(self):
        pool = WorkspacePool()
        with pool.lease() as ws:
            ws.scratch((4, 4))
            ws.scratch(16, np.int64)
            assert pool.stats()["held_bytes"] == 0  # leased, not parked
        assert pool.stats()["held_bytes"] == (16 * 8) * 2

    def test_release_is_idempotent(self):
        pool = WorkspacePool()
        ws = pool.lease()
        ws.scratch(8)
        ws.release()
        held = pool.stats()["held_bytes"]
        ws.release()
        assert pool.stats()["held_bytes"] == held

    def test_scratch_reuses_released_blocks(self):
        pool = WorkspacePool()
        with pool.lease() as ws:
            ws.scratch((2, 8))
        with pool.lease() as ws:
            ws.scratch((2, 8))
        assert pool.stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "held_bytes": 16 * 8,
        }

