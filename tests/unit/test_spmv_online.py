"""Unit tests for the SpMV cost model and the staircase generator."""

import numpy as np
import pytest

from repro.datasets import staircase
from repro.errors import ConfigError, ValidationError
from repro.gpu import GPUExecutor, P100
from repro.sparse import CSRMatrix, permute_csr_rows

from conftest import random_csr


class TestSpmvCost:
    def test_basic_fields(self, rng):
        m = random_csr(rng, 200, 200, 0.05)
        cost = GPUExecutor(cache_mode="exact").spmv_cost(m)
        assert cost.op == "spmv" and cost.k == 1
        assert cost.flops == 2.0 * m.nnz
        assert cost.time_s > 0

    def test_spatial_locality_matters(self):
        # Ordered staircase: consecutive rows use adjacent x cache lines.
        ordered = staircase(512, 8, seed=0)
        rng = np.random.default_rng(1)
        scrambled = permute_csr_rows(ordered, rng.permutation(512).astype(np.int64))
        executor = GPUExecutor(
            P100.with_overrides(l2_bytes=16 * 1024), cache_mode="exact"
        )
        t_ordered = executor.spmv_cost(ordered).time_s
        t_scrambled = executor.spmv_cost(scrambled).time_s
        assert t_ordered < t_scrambled

    def test_requires_csr(self, rng):
        from repro.aspt import tile_matrix

        m = random_csr(rng, 20, 20, 0.2)
        with pytest.raises(ConfigError):
            GPUExecutor().spmv_cost(tile_matrix(m, 4))

    def test_unknown_variant(self, rng):
        with pytest.raises(ConfigError):
            GPUExecutor().spmv_cost(random_csr(rng, 10, 10, 0.3), "aspt")

    def test_empty_matrix(self):
        cost = GPUExecutor().spmv_cost(CSRMatrix.empty((8, 8)))
        assert cost.flops == 0.0 and cost.time_s > 0


class TestStaircase:
    def test_structure(self):
        m = staircase(5, 3, seed=0)
        assert m.shape == (5, 15)
        assert m.row_cols(2).tolist() == [6, 7, 8]

    def test_no_shared_columns(self):
        m = staircase(10, 4, seed=0)
        from repro.similarity import pairwise_jaccard_dense

        full = pairwise_jaccard_dense(m)
        np.fill_diagonal(full, 0.0)
        assert full.max() == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            staircase(0, 3)

