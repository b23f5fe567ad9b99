"""Cross-validation helpers for the kernels.

Used by the test suite: every production kernel is checked against a
dense NumPy computation of the same contraction.  The experiment
runner's ``--verify`` mode runs :meth:`repro.reorder.ExecutionPlan.validate`
instead.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["assert_spmm_correct", "assert_sddmm_correct"]


def assert_spmm_correct(
    csr: CSRMatrix, X: np.ndarray, Y: np.ndarray, *, rtol=1e-10, atol=1e-9
) -> None:
    """Assert ``Y == csr @ X`` against the dense oracle.

    Raises ``AssertionError`` with a maximum-deviation message on mismatch.
    """
    expected = csr.to_dense() @ np.asarray(X, dtype=np.float64)
    np.testing.assert_allclose(
        Y,
        expected,
        rtol=rtol,
        atol=atol,
        err_msg="SpMM kernel output deviates from the dense oracle",
    )


def assert_sddmm_correct(
    csr: CSRMatrix,
    X: np.ndarray,
    Y: np.ndarray,
    result: CSRMatrix,
    *,
    rtol=1e-10,
    atol=1e-9,
) -> None:
    """Assert ``result == (Y @ X.T) * csr`` sampled at ``csr``'s pattern."""
    if not result.same_pattern(csr):
        raise AssertionError("SDDMM result pattern differs from the sampling matrix")
    dense = (np.asarray(Y, dtype=np.float64) @ np.asarray(X, dtype=np.float64).T)
    rows = csr.row_ids()
    expected = dense[rows, csr.colidx] * csr.values
    np.testing.assert_allclose(
        result.values,
        expected,
        rtol=rtol,
        atol=atol,
        err_msg="SDDMM kernel values deviate from the dense oracle",
    )
