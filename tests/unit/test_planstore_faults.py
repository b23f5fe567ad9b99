"""Fault injection for the disk tier.

Contract under test: a damaged, stale or contended cache entry must
degrade to a **miss plus a warning** — never a crash, and never a wrong
plan.  Each scenario then verifies the store recovers (a subsequent put
repopulates the key).
"""

import errno
import logging
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.datasets import hidden_clusters
from repro.planstore import DiskPlanStore, PlanDecisions, PlanStore
from repro.planstore.fingerprint import PLAN_FORMAT_VERSION
from repro.reorder import ReorderConfig, build_plan

CFG = ReorderConfig(siglen=32, panel_height=8)
KEY = "0123456789abcdef0123456789abcdef"


@pytest.fixture
def matrix():
    return hidden_clusters(16, 8, 256, 8, noise=0.1, seed=7)


@pytest.fixture
def decisions(matrix):
    return PlanDecisions.from_plan(build_plan(matrix, CFG))


def _warning_count(caplog):
    return sum(1 for r in caplog.records if r.levelno >= logging.WARNING)


class TestCorruptEntries:
    def test_truncated_file_is_miss_and_quarantined(self, tmp_path, decisions, caplog):
        store = DiskPlanStore(tmp_path)
        store.put(KEY, decisions)
        path = store.path_for(KEY)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])

        with caplog.at_level(logging.WARNING, logger="repro.planstore"):
            assert store.get(KEY) is None
        assert _warning_count(caplog) == 1
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()

        # The store recovers: a fresh put serves hits again.
        store.put(KEY, decisions)
        got = store.get(KEY)
        np.testing.assert_array_equal(got.row_order, decisions.row_order)

    def test_garbage_bytes_are_miss(self, tmp_path, decisions, caplog):
        store = DiskPlanStore(tmp_path)
        store.path_for(KEY).write_bytes(b"this is not an npz archive at all")
        with caplog.at_level(logging.WARNING, logger="repro.planstore"):
            assert store.get(KEY) is None
        assert _warning_count(caplog) == 1
        assert store.stats.misses == 1

    def test_flipped_payload_bytes_are_miss(self, tmp_path, decisions, caplog):
        store = DiskPlanStore(tmp_path)
        store.put(KEY, decisions)
        path = store.path_for(KEY)
        raw = bytearray(path.read_bytes())
        mid = len(raw) // 2
        for i in range(mid, min(mid + 64, len(raw))):
            raw[i] ^= 0xFF
        path.write_bytes(bytes(raw))
        with caplog.at_level(logging.WARNING, logger="repro.planstore"):
            assert store.get(KEY) is None

    def test_missing_array_is_miss(self, tmp_path, caplog):
        store = DiskPlanStore(tmp_path)
        np.savez_compressed(
            store.path_for(KEY),
            format_version=np.int64(PLAN_FORMAT_VERSION),
            row_order=np.arange(4),
            # remainder_order / stats / preprocess_total missing
        )
        with caplog.at_level(logging.WARNING, logger="repro.planstore"):
            assert store.get(KEY) is None
        assert _warning_count(caplog) == 1

    def test_malformed_stats_block_is_miss(self, tmp_path, caplog):
        store = DiskPlanStore(tmp_path)
        np.savez_compressed(
            store.path_for(KEY),
            format_version=np.int64(PLAN_FORMAT_VERSION),
            row_order=np.arange(4),
            remainder_order=np.arange(4),
            stats=np.zeros(3),  # wrong shape
            preprocess_total=np.float64(0.1),
        )
        with caplog.at_level(logging.WARNING, logger="repro.planstore"):
            assert store.get(KEY) is None


class TestReadErrors:
    def test_oserror_read_is_a_miss_that_leaves_the_entry(
        self, tmp_path, decisions, caplog, monkeypatch
    ):
        """A read that raises ``OSError`` says nothing about the file's
        content: it is a miss, the entry stays where it is, nothing is
        quarantined, and the next read hits.  (Monkeypatched: tests run
        as root, which ignores ``chmod``.)"""
        store = DiskPlanStore(tmp_path)
        store.put(KEY, decisions)

        def eio(path):
            raise OSError(errno.EIO, "Input/output error", str(path))

        monkeypatch.setattr(DiskPlanStore, "_read", staticmethod(eio))
        with caplog.at_level(logging.WARNING, logger="repro.planstore"):
            assert store.get(KEY) is None
        assert _warning_count(caplog) == 1
        assert store.path_for(KEY).exists()
        assert not list(tmp_path.glob("*.corrupt"))
        assert store.stats.misses == 1

        monkeypatch.undo()
        got = store.get(KEY)
        np.testing.assert_array_equal(got.row_order, decisions.row_order)
        assert store.stats.hits == 1


class TestThreadedCounters:
    def test_concurrent_misses_count_exactly(self, tmp_path):
        """Threads sharing one store (serve's executor threads under
        ``--plan-cache-dir``) lose no count, and no count raises."""
        store = DiskPlanStore(tmp_path)
        n_threads, per_thread = 8, 2_000
        barrier = threading.Barrier(n_threads)

        def miss():
            barrier.wait(timeout=30)
            for _ in range(per_thread):
                assert store.get(KEY) is None

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(n_threads) as pool:
                for future in [pool.submit(miss) for _ in range(n_threads)]:
                    future.result(timeout=60)  # re-raises what it raised
        finally:
            sys.setswitchinterval(interval)
        assert store.stats.misses == n_threads * per_thread
        assert store.stats.hits == 0


class TestVersionMismatch:
    def test_other_version_is_miss_and_quarantined(
        self, tmp_path, decisions, caplog
    ):
        store = DiskPlanStore(tmp_path)
        np.savez_compressed(
            store.path_for(KEY),
            format_version=np.int64(PLAN_FORMAT_VERSION + 1),
            row_order=decisions.row_order,
            remainder_order=decisions.remainder_order,
            stats=np.zeros(8),
            preprocess_total=np.float64(0.0),
        )
        with caplog.at_level(logging.WARNING, logger="repro.planstore"):
            assert store.get(KEY) is None
        assert _warning_count(caplog) == 1
        # The entry is unusable by this reader, so it is moved aside like
        # any other unreadable file; the next put replaces it (self-heal).
        assert not store.path_for(KEY).exists()
        assert store.quarantined()
        store.put(KEY, decisions)
        assert store.get(KEY) is not None
        assert not store.quarantined()


class TestEndToEndDegradation:
    def test_corrupt_entry_never_propagates_through_build_plan(
        self, tmp_path, matrix, caplog
    ):
        """build_plan over a corrupted disk entry silently rebuilds and the
        result is bit-identical to an uncached build."""
        store = PlanStore(cache_dir=tmp_path)
        cold = build_plan(matrix, CFG, cache=store)
        path = store.disk.path_for(store.key_for(matrix, CFG))
        path.write_bytes(b"\x00" * 100)

        fresh = PlanStore(cache_dir=tmp_path)  # empty memory tier
        with caplog.at_level(logging.WARNING, logger="repro.planstore"):
            rebuilt = build_plan(matrix, CFG, cache=fresh)
        np.testing.assert_array_equal(rebuilt.row_order, cold.row_order)
        np.testing.assert_array_equal(rebuilt.remainder_order, cold.remainder_order)
        rebuilt.validate()
        assert fresh.stats()["disk"]["misses"] == 1


class TestConcurrentWriters:
    def test_two_processes_racing_on_one_key_leave_a_valid_entry(
        self, tmp_path, decisions
    ):
        """Two processes repeatedly writing the same key must never leave a
        torn file: afterwards the entry reads back complete and valid."""
        script = """
import sys
from repro.datasets import hidden_clusters
from repro.planstore import DiskPlanStore, PlanDecisions
from repro.reorder import ReorderConfig, build_plan

root, key = sys.argv[1], sys.argv[2]
m = hidden_clusters(16, 8, 256, 8, noise=0.1, seed=7)
decisions = PlanDecisions.from_plan(
    build_plan(m, ReorderConfig(siglen=32, panel_height=8))
)
store = DiskPlanStore(root)
for _ in range(30):
    store.put(key, decisions)
print("done")
"""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = (
            os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path), KEY],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        for p in procs:
            out, err = p.communicate(timeout=120)
            assert p.returncode == 0, err
            assert "done" in out

        store = DiskPlanStore(tmp_path)
        got = store.get(KEY)
        assert got is not None
        np.testing.assert_array_equal(got.row_order, decisions.row_order)
        np.testing.assert_array_equal(
            got.remainder_order, decisions.remainder_order
        )
        # No temp-file litter left behind by either writer.
        assert not list(tmp_path.glob("*.tmp"))


class TestPathHygiene:
    def test_traversal_like_keys_rejected(self, tmp_path):
        store = DiskPlanStore(tmp_path)
        for bad in ("", "../evil", "a/b", "a.b", "a\\b"):
            with pytest.raises(ValueError):
                store.path_for(bad)

    def test_unwritable_directory_put_degrades(self, tmp_path, decisions, caplog):
        if os.geteuid() == 0:
            pytest.skip("root ignores directory permissions")
        store = DiskPlanStore(tmp_path)
        os.chmod(tmp_path, 0o500)
        try:
            with caplog.at_level(logging.WARNING, logger="repro.planstore"):
                store.put(KEY, decisions)  # must not raise
            assert store.get(KEY) is None
        finally:
            os.chmod(tmp_path, 0o700)
