"""Unit tests for repro.gpu.cache and repro.gpu.device."""

import numpy as np
import pytest

from repro.errors import ConfigError, ValidationError
from repro.gpu import P100, V100, DeviceSpec, approx_lru_hits, lru_hits
from repro.gpu.coalescing import row_load_bytes, row_load_transactions


def naive_lru(stream, capacity):
    """Oracle: straightforward LRU list simulation."""
    cache = []
    hits = 0
    for b in stream:
        if b in cache:
            cache.remove(b)
            hits += 1
        elif len(cache) >= capacity:
            cache.pop(0)
        cache.append(b)
    return hits


class TestLruHits:
    def test_repeated_single_block(self):
        stats = lru_hits(np.array([7, 7, 7, 7]), 1)
        assert stats.hits == 3 and stats.misses == 1

    def test_cyclic_thrash(self):
        # Cyclic access to capacity+1 blocks: LRU always misses.
        stream = np.tile(np.arange(4), 5)
        stats = lru_hits(stream, 3)
        assert stats.hits == 0

    def test_cyclic_fits(self):
        stream = np.tile(np.arange(4), 5)
        stats = lru_hits(stream, 4)
        assert stats.hits == 16  # all after the first pass

    def test_empty_stream(self):
        stats = lru_hits(np.array([], dtype=np.int64), 8)
        assert stats.accesses == 0 and stats.hit_rate == 0.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for cap in (1, 3, 8, 32):
            stream = rng.integers(0, 20, size=300)
            assert lru_hits(stream, cap).hits == naive_lru(stream.tolist(), cap)

    def test_skewed_stream_matches_oracle(self):
        rng = np.random.default_rng(1)
        stream = rng.zipf(1.5, size=400) % 50
        for cap in (2, 10, 40):
            assert lru_hits(stream, cap).hits == naive_lru(stream.tolist(), cap)

    def test_capacity_validation(self):
        with pytest.raises(ValidationError):
            lru_hits(np.array([1]), 0)

    def test_hit_rate(self):
        stats = lru_hits(np.array([1, 1]), 4)
        assert stats.hit_rate == 0.5


class TestApproxLruHits:
    def test_lower_bound_property(self):
        # With slack=1 the approximation never over-counts hits.
        rng = np.random.default_rng(2)
        for _ in range(10):
            stream = rng.integers(0, 30, size=200)
            cap = int(rng.integers(1, 20))
            exact = lru_hits(stream, cap).hits
            approx = approx_lru_hits(stream, cap, slack=1.0).hits
            assert approx <= exact

    def test_exact_on_single_block(self):
        stream = np.array([5, 5, 5])
        assert approx_lru_hits(stream, 1).hits == lru_hits(stream, 1).hits == 2

    def test_slack_increases_hits(self):
        rng = np.random.default_rng(3)
        stream = rng.integers(0, 50, size=300)
        low = approx_lru_hits(stream, 5, slack=1.0).hits
        high = approx_lru_hits(stream, 5, slack=8.0).hits
        assert high >= low

    def test_reasonable_accuracy_on_locality_stream(self):
        # Blocks with strong locality: approximation should land close.
        rng = np.random.default_rng(4)
        stream = np.concatenate(
            [rng.integers(base, base + 8, size=100) for base in range(0, 80, 8)]
        )
        exact = lru_hits(stream, 16).hits
        approx = approx_lru_hits(stream, 16, slack=4.0).hits
        assert approx == pytest.approx(exact, rel=0.25)

    def test_empty_stream(self):
        assert approx_lru_hits(np.array([], dtype=np.int64), 4).accesses == 0

    def test_bad_slack(self):
        with pytest.raises(ValueError):
            approx_lru_hits(np.array([1]), 4, slack=0.0)


class TestDeviceSpec:
    def test_p100_matches_paper(self):
        assert P100.n_sms == 56
        assert P100.l2_bytes == 4 * 1024 * 1024
        assert P100.shared_mem_per_sm == 64 * 1024
        assert P100.dram_bandwidth == pytest.approx(732e9)

    def test_l2_capacity_rows(self):
        # K=512 fp32 rows are 2 KiB -> 2048 rows at full utilisation.
        assert P100.l2_capacity_rows(512 * 4) == 2048
        assert P100.l2_capacity_rows(512 * 4, utilization=0.5) == 1024

    def test_l2_capacity_rows_minimum_one(self):
        assert P100.l2_capacity_rows(10**9) == 1

    def test_l2_capacity_invalid(self):
        with pytest.raises(ConfigError):
            P100.l2_capacity_rows(0)

    def test_max_dense_cols(self):
        # 64 KiB shared / (32 cols * 4 B) = 512 rows.
        assert P100.max_dense_cols(32) == 512

    def test_with_overrides(self):
        d = P100.with_overrides(l2_bytes=1024)
        assert d.l2_bytes == 1024 and d.name == "P100"
        assert P100.l2_bytes == 4 * 1024 * 1024  # original untouched

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            DeviceSpec("bad", 0, 32, 1, 1, 1, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            V100.with_overrides(dram_bandwidth=0.0)


class TestCoalescing:
    def test_row_load_transactions_exact_multiple(self):
        assert row_load_transactions(512, 4, 128) == 16

    def test_row_load_transactions_padding(self):
        assert row_load_transactions(1, 4, 128) == 1
        assert row_load_transactions(33, 4, 128) == 2

    def test_row_load_bytes(self):
        assert row_load_bytes(512, 4, 128) == 2048
        assert row_load_bytes(1, 4, 128) == 128

    def test_validation(self):
        with pytest.raises(ValidationError):
            row_load_transactions(0)
