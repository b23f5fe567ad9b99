"""Hypothesis properties for the compiled kernel backends.

The differential matrix (tests/unit/test_backend_differential.py) pins
hand-picked corners; these properties sweep random CSR structures and
operand dtypes and assert the same contract: every available backend is
bitwise equal to the one-shot numpy reference (SpMV's included, as the
one-column SpMM), and within each backend the workspace-pooled session
is bitwise-identical to the direct one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cc_missing
from repro.kernels import KernelSession, spmm, spmv
from repro.kernels.backends import BACKENDS
from repro.util.workspace import WorkspacePool

from test_sparse_properties import csr_matrices

#: Backends usable here (``cc`` needs a C compiler).
AVAILABLE = tuple(name for name in BACKENDS if name == "numpy" or not cc_missing())


class TestBackendSpmmProperties:
    @pytest.mark.parametrize("backend_name", AVAILABLE)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=lambda d: d.__name__)
    @given(csr=csr_matrices(), k=st.integers(0, 9), seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_spmm_matches_numpy_reference(self, backend_name, dtype, csr, k, seed):
        X = np.random.default_rng(seed).normal(
            size=(csr.n_cols, k)
        ).astype(dtype)
        reference = spmm(csr, X)
        np.testing.assert_array_equal(spmm(csr, X, backend=backend_name), reference)

    @pytest.mark.parametrize("backend_name", AVAILABLE)
    @given(csr=csr_matrices(), seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_spmv_matches_numpy_reference(self, backend_name, csr, seed):
        # SpMV has only its numpy reference: each backend's one-column
        # SpMM must reproduce it bit for bit.
        x = np.random.default_rng(seed).normal(size=csr.n_cols)
        reference = spmv(csr, x)
        got = spmm(csr, x[:, None], backend=backend_name)[:, 0]
        np.testing.assert_array_equal(got, reference)


class TestPooledVsDirectProperties:
    @pytest.mark.parametrize("backend_name", AVAILABLE)
    @given(csr=csr_matrices(), k=st.integers(1, 9), seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_pooled_session_bitwise_identical_to_direct(
        self, backend_name, csr, k, seed
    ):
        X = np.random.default_rng(seed).normal(size=(csr.n_cols, k))
        pooled = KernelSession(csr, backend=backend_name, pool=WorkspacePool())
        direct = KernelSession(csr, backend=backend_name, pool=None)
        try:
            np.testing.assert_array_equal(pooled.run(X), direct.run(X))
        finally:
            pooled.close()
            direct.close()
