"""Unit tests for repro.aspt (panels, tiles, and the tiling statistics)."""

import numpy as np
import pytest

from repro.aspt import PanelSpec, tile_matrix
from repro.errors import ValidationError
from repro.sparse import CSRMatrix, permute_csr_rows

from conftest import random_csr


class TestPanelSpec:
    def test_n_panels_exact_division(self):
        assert PanelSpec(6, 3).n_panels == 2

    def test_n_panels_ragged(self):
        assert PanelSpec(7, 3).n_panels == 3

    def test_n_panels_empty(self):
        assert PanelSpec(0, 3).n_panels == 0

    def test_invalid_height(self):
        with pytest.raises(ValidationError):
            PanelSpec(6, 0)


class TestTileMatrix:
    def test_paper_original_dense_nnz_is_2(self, paper_matrix):
        # §2.3: with panel height 3 and threshold 2, only column 4 of the
        # first panel is dense -> 2 of 13 non-zeros in dense tiles.
        tiled = tile_matrix(paper_matrix, 3, 2)
        assert tiled.nnz_dense == 2
        assert tiled.nnz_sparse == 11
        assert tiled.panel_dense_cols[0].tolist() == [4]
        assert tiled.panel_dense_cols[1].tolist() == []

    def test_paper_reordered_dense_nnz_is_9(self, paper_matrix):
        # Fig 4b: after exchanging rows 1 and 4, dense tiles hold 9 nnz.
        reordered = permute_csr_rows(paper_matrix, np.array([0, 4, 2, 3, 1, 5]))
        tiled = tile_matrix(reordered, 3, 2)
        assert tiled.nnz_dense == 9
        assert tiled.panel_dense_cols[0].tolist() == [0, 4]
        assert tiled.panel_dense_cols[1].tolist() == [1, 5]

    def test_clustering_order_also_gives_9(self, paper_matrix):
        # Fig 6: the clustering returns [0, 2, 4, 1, 3, 5], which achieves
        # the same tiling quality (panel {0,2,4} has dense cols {0,4}... )
        reordered = permute_csr_rows(paper_matrix, np.array([0, 2, 4, 1, 3, 5]))
        tiled = tile_matrix(reordered, 3, 2)
        assert tiled.panel_dense_cols[0].tolist() == [0, 4]
        assert tiled.nnz_dense >= 5

    def test_partition_is_exact(self, rng):
        m = random_csr(rng, 30, 20, 0.2)
        tiled = tile_matrix(m, 4, 2)
        tiled.validate()

    def test_dense_ratio_bounds(self, rng):
        m = random_csr(rng, 30, 20, 0.2)
        tiled = tile_matrix(m, 4, 2)
        assert 0.0 <= tiled.dense_ratio <= 1.0
        assert tiled.dense_ratio == pytest.approx(tiled.nnz_dense / m.nnz)

    def test_threshold_one_puts_everything_dense(self, rng):
        m = random_csr(rng, 20, 10, 0.3)
        tiled = tile_matrix(m, 4, 1)
        assert tiled.nnz_sparse == 0
        assert tiled.dense_ratio == 1.0

    def test_huge_threshold_puts_everything_sparse(self, rng):
        m = random_csr(rng, 20, 10, 0.3)
        tiled = tile_matrix(m, 4, 100)
        assert tiled.nnz_dense == 0

    def test_empty_matrix(self):
        tiled = tile_matrix(CSRMatrix.empty((6, 6)), 3)
        assert tiled.nnz_dense == 0 and tiled.nnz_sparse == 0
        assert len(tiled.panel_dense_cols) == 2

    def test_diagonal_matrix_no_dense_tiles(self):
        tiled = tile_matrix(CSRMatrix.from_dense(np.eye(12)), 4, 2)
        assert tiled.nnz_dense == 0

    def test_identical_rows_all_dense(self):
        dense = np.zeros((6, 8))
        dense[:, [1, 3, 6]] = 1.0
        tiled = tile_matrix(CSRMatrix.from_dense(dense), 3, 2)
        assert tiled.dense_ratio == 1.0
        assert tiled.panel_dense_cols[0].tolist() == [1, 3, 6]

    def test_max_dense_cols_cap(self):
        dense = np.zeros((4, 10))
        dense[:, 0:3] = 1.0  # three columns with 4 nnz each
        dense[0:2, 5] = 1.0  # one column with 2 nnz
        m = CSRMatrix.from_dense(dense)
        uncapped = tile_matrix(m, 4, 2)
        assert uncapped.panel_dense_cols[0].tolist() == [0, 1, 2, 5]
        capped = tile_matrix(m, 4, 2, max_dense_cols=2)
        # Keeps the two densest (count 4, tie-broken by column index).
        assert capped.panel_dense_cols[0].tolist() == [0, 1]
        assert capped.nnz_dense == 8
        capped.validate()

    def test_max_dense_cols_across_panels(self, rng):
        m = random_csr(rng, 40, 12, 0.4)
        capped = tile_matrix(m, 4, 2, max_dense_cols=3)
        for cols in capped.panel_dense_cols:
            assert cols.size <= 3
        capped.validate()

    def test_invalid_args(self, paper_matrix):
        with pytest.raises(ValidationError):
            tile_matrix(paper_matrix, 0)
        with pytest.raises(ValidationError):
            tile_matrix(paper_matrix, 3, 0)
        with pytest.raises(ValidationError):
            tile_matrix(paper_matrix, 3, 2, max_dense_cols=0)

    def test_ragged_last_panel(self, rng):
        m = random_csr(rng, 7, 10, 0.4)
        tiled = tile_matrix(m, 3, 2)
        assert len(tiled.panel_dense_cols) == 3
        tiled.validate()


class TestStats:
    """The paper's worked example (Fig. 1a, panel height 3) read from the
    :class:`TiledMatrix` of the original order."""

    def test_dense_ratio_helper(self, paper_matrix):
        assert tile_matrix(paper_matrix, 3, 2).dense_ratio == pytest.approx(2 / 13)

    def test_tiling_stats(self, paper_matrix):
        tiled = tile_matrix(paper_matrix, 3, 2)
        assert tiled.spec.n_panels == 2
        assert tiled.original.nnz == 13 and tiled.nnz_dense == 2
        assert tiled.nnz_sparse == 11
        assert sum(c.size for c in tiled.panel_dense_cols) == 1

    def test_histogram(self, paper_matrix):
        # Dense columns per panel: one in panel 0, none in panel 1.
        tiled = tile_matrix(paper_matrix, 3, 2)
        assert [c.size for c in tiled.panel_dense_cols] == [1, 0]
