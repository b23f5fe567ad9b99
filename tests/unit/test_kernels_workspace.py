"""Pooled vs unpooled kernels must be bitwise identical.

Every kernel that accepts ``workspace=`` leases its scratch from a
size-class pool instead of allocating per call; these tests pin down that
the pooled path changes *nothing* about the results — same bits, same
dtypes — and that ``out=`` buffers are reused correctly across calls.
"""

import numpy as np
import pytest

from repro.aspt import tile_matrix
from repro.datasets import hidden_clusters
from repro.kernels import (
    sddmm,
    sddmm_tiled,
    spmm,
    spmm_tiled,
    spmv,
)
from repro.util.workspace import WorkspacePool

from conftest import random_csr


@pytest.fixture
def csr(rng):
    return random_csr(rng, 32, 24, density=0.15)


@pytest.fixture
def dense(rng, csr):
    X = rng.normal(size=(csr.n_cols, 7))
    Y = rng.normal(size=(csr.n_rows, 7))
    return X, Y


class TestPooledBitwise:
    def test_spmm(self, csr, dense):
        X, _ = dense
        pool = WorkspacePool()
        np.testing.assert_array_equal(spmm(csr, X, workspace=pool), spmm(csr, X))
        # second call reuses the parked blocks and still matches
        np.testing.assert_array_equal(spmm(csr, X, workspace=pool), spmm(csr, X))
        assert pool.stats()["hits"] > 0

    def test_spmv(self, csr, rng):
        x = rng.normal(size=csr.n_cols)
        pool = WorkspacePool()
        np.testing.assert_array_equal(spmv(csr, x, workspace=pool), spmv(csr, x))

    def test_sddmm(self, csr, dense):
        X, Y = dense
        pool = WorkspacePool()
        got = sddmm(csr, X, Y, workspace=pool)
        want = sddmm(csr, X, Y)
        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(got.colidx, want.colidx)

    def test_spmm_tiled(self, csr, dense):
        X, _ = dense
        tiled = tile_matrix(csr, 8, 2)
        pool = WorkspacePool()
        np.testing.assert_array_equal(
            spmm_tiled(tiled, X, workspace=pool), spmm_tiled(tiled, X)
        )

    def test_sddmm_tiled(self, csr, dense):
        X, Y = dense
        tiled = tile_matrix(csr, 8, 2)
        pool = WorkspacePool()
        got = sddmm_tiled(tiled, X, Y, workspace=pool)
        want = sddmm_tiled(tiled, X, Y)
        np.testing.assert_array_equal(got.values, want.values)

    def test_leased_workspace_accepted_directly(self, csr, dense):
        X, _ = dense
        pool = WorkspacePool()
        with pool.lease() as ws:
            np.testing.assert_array_equal(spmm(csr, X, workspace=ws), spmm(csr, X))


class TestTiledLeasesPerCall:
    """Pooled tiled kernels lease each buffer once per call, sized to the
    largest panel, so a call's pool misses do not grow with its panels."""

    @pytest.mark.parametrize("kernel", [spmm_tiled, sddmm_tiled])
    def test_misses_do_not_grow_with_panel_count(self, kernel):
        m = hidden_clusters(40, 8, 512, 12, noise=0.1, seed=0)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(m.n_cols, 16))
        operands = (X,) if kernel is spmm_tiled else (X, rng.normal(size=(m.n_rows, 16)))
        misses = []
        for panel_height in (8, 32):
            tiled = tile_matrix(m, panel_height, 2)
            panels = sum(1 for cols in tiled.panel_dense_cols if cols.size)
            assert panels >= 10 and tiled.sparse_part.nnz
            pool = WorkspacePool()
            got = kernel(tiled, *operands, workspace=pool)
            want = kernel(tiled, *operands)
            if kernel is sddmm_tiled:
                got, want = got.values, want.values
            np.testing.assert_array_equal(got, want)
            misses.append(pool.stats()["misses"])
        assert misses[0] == misses[1]


class TestFloat32Preservation:
    def test_spmm_float32_pooled(self, csr, rng):
        X32 = rng.normal(size=(csr.n_cols, 5)).astype(np.float32)
        pool = WorkspacePool()
        got = spmm(csr, X32, workspace=pool)
        want = spmm(csr, X32)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestOutBuffers:
    def test_spmm_out_is_returned(self, csr, dense):
        X, _ = dense
        out = np.empty((csr.n_rows, X.shape[1]))
        got = spmm(csr, X, out=out)
        assert got is out
        np.testing.assert_array_equal(out, spmm(csr, X))

    def test_spmm_out_reused_across_calls(self, csr, dense):
        X, _ = dense
        out = np.full((csr.n_rows, X.shape[1]), np.nan)  # stale garbage
        spmm(csr, X, out=out)
        spmm(csr, X * -1.0, out=out)
        np.testing.assert_array_equal(out, spmm(csr, X * -1.0))

    def test_spmm_out_with_pool(self, csr, dense):
        X, _ = dense
        pool = WorkspacePool()
        out = np.empty((csr.n_rows, X.shape[1]))
        spmm(csr, X, out=out, workspace=pool)
        np.testing.assert_array_equal(out, spmm(csr, X))

    def test_spmm_out_view_of_larger_buffer(self, csr, dense):
        X, _ = dense
        backing = np.empty((csr.n_rows + 4, X.shape[1]))
        out = backing[2 : 2 + csr.n_rows]  # aliases the middle of backing
        spmm(csr, X, out=out)
        np.testing.assert_array_equal(out, spmm(csr, X))
