"""Cross-validation of the whole numeric stack against scipy.

scipy is banned from the library path (everything is from scratch) but is
the ideal independent oracle: these tests run corpus-class matrices through
our formats, kernels and plans and compare against ``scipy.sparse``
results computed from the same raw data.
"""

import numpy as np
import pytest

sp = pytest.importorskip("scipy.sparse")

from repro.datasets import bipartite_ratings, hidden_clusters, power_law_rows, rmat
from repro.kernels import sddmm, spmm, spmv
from repro.reorder import ReorderConfig, build_plan
from repro.sparse import csr_to_csc, transpose_csr

from conftest import maybe_streamed


def to_scipy(csr):
    return sp.csr_matrix(
        (csr.values, csr.colidx, csr.rowptr), shape=csr.shape
    )


MATRICES = [
    ("hidden", lambda: hidden_clusters(64, 8, 1024, 16, noise=0.1, seed=1)),
    ("rmat", lambda: rmat(9, 8, seed=1)),
    ("powerlaw", lambda: power_law_rows(500, 500, 10, seed=1)),
    ("bipartite", lambda: bipartite_ratings(400, 300, 12, seed=1)),
]


@pytest.mark.parametrize("name,factory", MATRICES, ids=[m[0] for m in MATRICES])
class TestAgainstScipy:
    def test_spmm(self, name, factory, rng, backend_name, streamed):
        m = maybe_streamed(factory(), streamed)
        X = rng.normal(size=(m.n_cols, 16))
        np.testing.assert_allclose(
            spmm(m, X, backend=backend_name),
            to_scipy(m) @ X,
            rtol=1e-10,
            atol=1e-9,
        )

    def test_spmv(self, name, factory, rng, backend_name, streamed):
        m = maybe_streamed(factory(), streamed)
        x = rng.normal(size=m.n_cols)
        got = spmv(m, x)
        np.testing.assert_allclose(got, to_scipy(m) @ x, rtol=1e-10, atol=1e-9)
        # SpMV has only its numpy reference; each backend's SpMM over x as
        # one column reproduces it bit for bit.
        np.testing.assert_array_equal(
            spmm(m, x[:, None], backend=backend_name)[:, 0], got
        )

    def test_plan_spmm(self, name, factory, rng, streamed):
        m = maybe_streamed(factory(), streamed)
        plan = build_plan(m, ReorderConfig(siglen=32, panel_height=16))
        X = rng.normal(size=(m.n_cols, 8))
        np.testing.assert_allclose(
            plan.spmm(X), to_scipy(m) @ X, rtol=1e-10, atol=1e-8
        )

    def test_sddmm(self, name, factory, rng, backend_name, streamed):
        m = maybe_streamed(factory(), streamed)
        X = rng.normal(size=(m.n_cols, 8))
        Y = rng.normal(size=(m.n_rows, 8))
        got = sddmm(m, X, Y)
        s = to_scipy(m)
        # scipy oracle: sample (Y @ X.T) at the stored coordinates.
        dense_vals = np.einsum("pk,pk->p", Y[m.row_ids()], X[m.colidx])
        expected = dense_vals * s.data
        np.testing.assert_allclose(got.values, expected, rtol=1e-10, atol=1e-9)
        # SDDMM has only its numpy reference; its result then aggregates
        # through each backend's SpMM (an attention or GNN layer).
        V = rng.normal(size=(m.n_cols, 4))
        np.testing.assert_allclose(
            spmm(got, V, backend=backend_name),
            to_scipy(got) @ V,
            rtol=1e-10,
            atol=1e-9,
        )

    def test_transpose(self, name, factory, rng, streamed):
        m = maybe_streamed(factory(), streamed)
        ours = transpose_csr(m)
        theirs = to_scipy(m).T.tocsr()
        theirs.sort_indices()
        np.testing.assert_array_equal(ours.rowptr, theirs.indptr)
        np.testing.assert_array_equal(ours.colidx, theirs.indices)
        np.testing.assert_allclose(ours.values, theirs.data)

    def test_csc(self, name, factory, rng, streamed):
        m = maybe_streamed(factory(), streamed)
        ours = csr_to_csc(m)
        theirs = to_scipy(m).tocsc()
        theirs.sort_indices()
        np.testing.assert_array_equal(ours.colptr, theirs.indptr)
        np.testing.assert_array_equal(ours.rowidx, theirs.indices)
        np.testing.assert_allclose(ours.values, theirs.data)
