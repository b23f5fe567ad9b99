"""``out=`` buffers of the one-shot ``spmm``: returned as the result,
reused across calls with stale contents, and written through a view of
a larger buffer — each bitwise equal to the allocating call.

Scratch pooling is the session's (``tests/unit/test_session.py``).
"""

import numpy as np
import pytest

from repro.kernels import spmm

from conftest import random_csr


@pytest.fixture
def csr(rng):
    return random_csr(rng, 32, 24, density=0.15)


@pytest.fixture
def dense(rng, csr):
    X = rng.normal(size=(csr.n_cols, 7))
    Y = rng.normal(size=(csr.n_rows, 7))
    return X, Y


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

    def test_spmm_out_view_of_larger_buffer(self, csr, dense):
        X, _ = dense
        backing = np.empty((csr.n_rows + 4, X.shape[1]))
        out = backing[2 : 2 + csr.n_rows]  # aliases the middle of backing
        spmm(csr, X, out=out)
        np.testing.assert_array_equal(out, spmm(csr, X))
