"""Additional coverage: trace helpers, autotune internals and MatrixMarket
writer details."""

import io

import numpy as np
import pytest

from repro.gpu.trace import (
    block_access_stream,
    paper_example_access_counts,
    unique_block_column_count,
)
from repro.sparse import CSRMatrix, read_matrix_market, write_matrix_market

from conftest import random_csr


class TestTraceHelpers:
    def test_unique_block_column_count_vs_stream(self, rng):
        m = random_csr(rng, 20, 12, 0.3)
        for rpb in (1, 2, 5):
            stream = block_access_stream(m, rpb)
            assert stream.size == unique_block_column_count(m, rpb)

    def test_rows_per_block_one_counts_nnz(self, rng):
        m = random_csr(rng, 15, 15, 0.2)
        # One row per block: no dedup possible, count == nnz (rows are
        # canonical, no duplicate columns within a row).
        assert unique_block_column_count(m, 1) == m.nnz

    def test_paper_counts_without_round2(self, paper_matrix):
        counts = paper_example_access_counts(
            paper_matrix, round1_order=np.array([0, 4, 2, 3, 1, 5])
        )
        # Without the second-round grouping, remainder rows don't share
        # blocks: 4 dense + 4 sparse rows' distinct cols.
        assert counts.aspt_reordered > 6
        assert counts.rowwise == 13


class TestAutotuneInternals:
    def test_result_costs_are_consistent(self, rng):
        from repro.reorder import ReorderConfig, autotune

        m = random_csr(rng, 60, 40, 0.1)
        result = autotune(m, 256, config=ReorderConfig(siglen=16, panel_height=8))
        assert result.speedup == pytest.approx(
            result.cost_plain.time_s / result.cost_reordered.time_s
        )
        assert result.cost_reordered.op == result.cost_plain.op == "spmm"


class TestMatrixMarketWriterDetails:
    def test_comment_lines_written(self, paper_matrix):
        buf = io.StringIO()
        write_matrix_market(buf, paper_matrix, comment="line one\nline two")
        text = buf.getvalue()
        assert "% line one" in text and "% line two" in text
        buf.seek(0)
        assert read_matrix_market(buf).allclose(paper_matrix)

    def test_values_roundtrip_exactly(self):
        # repr() formatting must preserve doubles bit-for-bit.
        m = CSRMatrix.from_arrays(
            (1, 3), [0, 3], [0, 1, 2], [1 / 3, 1e-300, 1.23456789012345e10]
        )
        buf = io.StringIO()
        write_matrix_market(buf, m)
        buf.seek(0)
        back = read_matrix_market(buf)
        np.testing.assert_array_equal(back.values, m.values)
