"""Unit tests for repro.util.arrayops."""

import numpy as np
import pytest

from repro.util.arrayops import (
    counts_to_offsets,
    gather_ranges,
    lengths_from_offsets,
    offsets_to_row_ids,
    rank_of_permutation,
    segment_sum,
)


class TestCountsToOffsets:
    def test_basic(self):
        out = counts_to_offsets(np.array([2, 0, 3]))
        assert out.tolist() == [0, 2, 2, 5]

    def test_empty(self):
        assert counts_to_offsets(np.array([], dtype=np.int64)).tolist() == [0]

    def test_dtype_is_int64(self):
        assert counts_to_offsets(np.array([1, 2], dtype=np.int32)).dtype == np.int64

    def test_roundtrip_with_lengths(self):
        counts = np.array([5, 0, 0, 7, 1])
        assert lengths_from_offsets(counts_to_offsets(counts)).tolist() == counts.tolist()


class TestOffsetsToRowIds:
    def test_basic(self):
        out = offsets_to_row_ids(np.array([0, 2, 2, 5]))
        assert out.tolist() == [0, 0, 2, 2, 2]

    def test_leading_empty_segment(self):
        out = offsets_to_row_ids(np.array([0, 0, 3]))
        assert out.tolist() == [1, 1, 1]

    def test_trailing_empty_segment(self):
        out = offsets_to_row_ids(np.array([0, 2, 2]))
        assert out.tolist() == [0, 0]

    def test_all_empty(self):
        assert offsets_to_row_ids(np.array([0, 0, 0])).tolist() == []

    def test_no_segments(self):
        assert offsets_to_row_ids(np.array([0])).tolist() == []

    def test_matches_naive_expansion(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 5, size=50)
        offsets = counts_to_offsets(counts)
        expected = np.repeat(np.arange(50), counts)
        np.testing.assert_array_equal(offsets_to_row_ids(offsets), expected)


class TestGatherRanges:
    def test_basic(self):
        out = gather_ranges(np.array([5, 0]), np.array([2, 3]))
        assert out.tolist() == [5, 6, 0, 1, 2]

    def test_empty_ranges_and_no_ranges(self):
        assert gather_ranges(np.array([4, 9, 1]), np.array([0, 2, 0])).tolist() == [9, 10]
        assert gather_ranges(np.array([], dtype=np.int64), np.array([])).tolist() == []

    def test_matches_naive_concatenation(self):
        rng = np.random.default_rng(0)
        starts = rng.integers(0, 100, size=40)
        lengths = rng.integers(0, 6, size=40)
        expected = [p for a, n in zip(starts, lengths) for p in range(a, a + n)]
        out = gather_ranges(starts, lengths)
        assert out.dtype == np.int64 and out.tolist() == expected


class TestSegmentReductions:
    def test_segment_sum_basic(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        offsets = np.array([0, 2, 2, 5])
        assert segment_sum(values, offsets).tolist() == [3.0, 0.0, 12.0]

    def test_segment_sum_empty_values(self):
        out = segment_sum(np.array([], dtype=np.float64), np.array([0, 0, 0]))
        assert out.tolist() == [0.0, 0.0]

    def test_against_naive_loop(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 6, size=30)
        offsets = counts_to_offsets(counts)
        values = rng.normal(size=int(offsets[-1]))
        got = segment_sum(values, offsets)
        for i in range(30):
            expected = values[offsets[i] : offsets[i + 1]].sum()
            assert got[i] == pytest.approx(expected)


class TestRankOfPermutation:
    def test_identity(self):
        p = np.arange(5)
        np.testing.assert_array_equal(rank_of_permutation(p), p)

    def test_inverse_property(self):
        rng = np.random.default_rng(3)
        p = rng.permutation(100)
        inv = rank_of_permutation(p)
        np.testing.assert_array_equal(inv[p], np.arange(100))
        np.testing.assert_array_equal(p[inv], np.arange(100))
