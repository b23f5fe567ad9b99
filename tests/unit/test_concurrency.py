"""Concurrency properties of the primitives the serve layer leans on.

Two invariants the server's correctness story depends on, exercised with
real thread contention:

* a :class:`~repro.resilience.Deadline` never *un-expires* — once any
  observer has seen ``expired() == True`` every later observation agrees,
  even when the injected clock moves backwards (NTP step, test clock
  reuse) and many threads race on the same instance;
* :class:`~repro.util.workspace.WorkspacePool` counters exactly balance —
  every lease is a hit or a miss, every returned block is parked or
  evicted, and no block is lost or double-parked under concurrent
  take/give from many threads.
"""

import threading

import numpy as np
import pytest

from repro.errors import TimeoutExceeded
from repro.resilience import Deadline
from repro.serve import SessionPool
from repro.util import workspace
from repro.util.workspace import WorkspacePool

from conftest import FakeClock


class TestDeadlineNeverUnexpires:
    def test_backwards_clock_cannot_resurrect_a_deadline(self):
        clock = FakeClock(start=0.0, step=0.0)
        deadline = Deadline.after(5.0, clock=clock)
        assert not deadline.expired()
        clock.advance(10.0)  # past the budget
        assert deadline.expired()
        clock.advance(-10.0)  # clock steps backwards below the budget
        assert deadline.expired()  # latched: still expired
        with pytest.raises(TimeoutExceeded):
            deadline.check("stage")

    def test_remaining_may_disagree_but_expired_is_latched(self):
        clock = FakeClock(start=0.0, step=0.0)
        deadline = Deadline.after(1.0, clock=clock)
        clock.advance(2.0)
        assert deadline.expired()
        clock.advance(-2.0)
        assert deadline.remaining() > 0  # raw arithmetic view
        assert deadline.expired()  # the decision is latched anyway

    def test_unexpired_deadline_stays_unexpired_while_budget_remains(self):
        clock = FakeClock(start=0.0, step=0.0)
        deadline = Deadline.after(100.0, clock=clock)
        for _ in range(10):
            clock.advance(1.0)
            assert not deadline.expired()

    def test_many_threads_agree_once_anyone_saw_expiry(self):
        # A shared clock that wobbles: each read jitters +/- around a
        # slowly advancing base, crossing the deadline repeatedly from
        # both sides.  The property: after the first True observation,
        # no thread ever observes False again.
        lock = threading.Lock()
        state = {"base": 0.0, "n": 0}

        def wobbly_clock():
            with lock:
                state["n"] += 1
                state["base"] += 0.001
                jitter = ((state["n"] * 2654435761) % 1000) / 1000.0 - 0.5
                return state["base"] + jitter

        deadline = Deadline.after(1.0, clock=wobbly_clock)
        saw_expired = threading.Event()
        violations = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(2000):
                value = deadline.expired()
                if value:
                    saw_expired.set()
                elif saw_expired.is_set():
                    violations.append("un-expired after expiry was observed")
                    return

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert saw_expired.is_set()  # the wobble did cross the deadline
        assert violations == []


class TestWorkspacePoolCounterBalance:
    def test_counters_balance_under_concurrent_lease_release(self, monkeypatch):
        monkeypatch.setattr(workspace, "MAX_BYTES", 1 << 30)  # no evictions
        pool = WorkspacePool()
        threads_n, iterations = 8, 300
        shapes = [(16,), (64,), (33, 4), (128,), (7, 7)]
        errors = []
        barrier = threading.Barrier(threads_n)

        def worker(seed):
            rng = np.random.default_rng(seed)
            barrier.wait()
            try:
                for i in range(iterations):
                    shape = shapes[int(rng.integers(len(shapes)))]
                    block = pool.take(shape)
                    block.fill(float(i))  # touch it: catches aliased blocks
                    if not np.all(block == float(i)):
                        errors.append("leased block aliased by another thread")
                    pool.give(block)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        stats = pool.stats()
        total = threads_n * iterations
        # Every lease was exactly one hit or one miss...
        assert stats["hits"] + stats["misses"] == total
        # ...and with an unbounded pool nothing was evicted, so every
        # returned block is parked: held bytes equal the misses' blocks
        # (each miss allocated one block; hits recycled parked ones).
        assert stats["evictions"] == 0
        assert stats["held_bytes"] > 0
        # Freelists now hold exactly the allocated (miss) blocks: drain
        # them and count.
        parked = sum(len(blocks) for blocks in pool._free.values())
        assert parked == stats["misses"]

    def test_eviction_accounting_balances_with_a_tiny_pool(self, monkeypatch):
        itemsize = np.dtype(np.float64).itemsize
        monkeypatch.setattr(workspace, "MAX_BYTES", 64 * itemsize)  # one 64-elem block
        pool = WorkspacePool()
        threads_n, iterations = 4, 200
        barrier = threading.Barrier(threads_n)

        def worker():
            barrier.wait()
            for _ in range(iterations):
                # Two live leases against a one-block budget: at most one
                # can park on return, so the other must be evicted.
                first = pool.take((64,))
                second = pool.take((64,))
                pool.give(first)
                pool.give(second)

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        stats = pool.stats()
        total = 2 * threads_n * iterations
        assert stats["hits"] + stats["misses"] == total
        assert stats["evictions"] > 0
        # Conservation: every allocated (miss) block is either parked in
        # a freelist right now or was dropped as an eviction on return.
        parked = sum(len(blocks) for blocks in pool._free.values())
        assert parked + stats["evictions"] == stats["misses"]
        assert stats["held_bytes"] <= workspace.MAX_BYTES


class TestSessionPoolPinBalance:
    class _Session:
        def close(self):
            pass

    def test_refcounts_return_to_zero_under_concurrent_pin_unpin(self):
        pool = SessionPool(capacity=4)
        keys = [f"matrix-{i}" for i in range(6)]  # > capacity: evicts
        threads_n, iterations = 8, 250
        errors = []
        barrier = threading.Barrier(threads_n)

        def worker(seed):
            rng = np.random.default_rng(seed)
            barrier.wait()
            try:
                for _ in range(iterations):
                    key = keys[int(rng.integers(len(keys)))]
                    entry = pool.pin(key)
                    if entry is None:
                        entry = pool.put(
                            key,
                            self._Session(),
                            provenance=("full: ok",),
                            backend="numpy",
                        )
                    if entry.refs < 1:
                        errors.append(f"pinned entry {key} with refs < 1")
                    pool.unpin(entry)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        occupancy = pool.occupancy()
        # Every pin was matched by an unpin: nothing is left pinned.
        assert occupancy["pinned"] == 0
        assert all(entry["refs"] == 0 for entry in occupancy["keys"])
        # clear() only evicts refs == 0 entries, so an empty pool after
        # clear proves no pin leaked anywhere.
        pool.clear()
        assert len(pool) == 0
