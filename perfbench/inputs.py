"""Seeded inputs: the three matrix classes, dense operands and delta streams.

Every input is drawn from ``numpy.random.default_rng([seed, *tag])`` with a
tag naming its workload and position, so one seed always yields the same
inputs and no two inputs of a run share a stream.

The classes cover the three cases of the paper's Sec. 4 heuristics under
the default ``ReorderConfig`` (64-row panels, dense threshold 2, 10% gate).
A column is dense in a panel when two of its 64 rows hit it, so random
column collisions alone put about ``63 * 10 / n_cols`` of the non-zeros in
dense tiles; 12288 columns keep that near 5%, which leaves the shuffled
two-row clusters of ``clustered`` under the gate (measured 6.7-7.7%) and
the grouped copies of ``dense`` far above it (~81%).  The classes have
2048 rows like ``BENCH_preproc.json``'s matrix but ~20k non-zeros instead
of ~31k, so that ten runs of every workload fit the benchmark's time
budget; the roles need the wide column space either way.
"""

from __future__ import annotations

import zlib

import numpy as np

CLASSES = ("clustered", "dense", "scattered")

#: Round-1 decision each class is chosen to produce; a plan that takes the
#: other one fails its op.
EXPECTED_ROUND1 = {"clustered": True, "dense": False, "scattered": True}

_FULL = {
    "n_clusters": 1024, "rows_per_cluster": 2, "n_cols": 12288,
    "pattern_nnz": 10, "rows": 2048,
}
#: Smoke scale keeps the rows (fewer rows would put many cluster pairs in
#: one panel and lift ``clustered`` over the gate) and thins the rows out.
_SMOKE = {
    "n_clusters": 1024, "rows_per_cluster": 2, "n_cols": 8192,
    "pattern_nnz": 3, "rows": 2048,
}
#: Served matrices are small in both dimensions: operands and results
#: travel as nested JSON floats, so n_cols x 512 and n_rows x 512 floats
#: bound what one K=512 request costs in the codec.
_SERVE_FULL = {"n_clusters": 32, "rows_per_cluster": 4, "n_cols": 128, "pattern_nnz": 16}
_SERVE_SMOKE = {"n_clusters": 16, "rows_per_cluster": 4, "n_cols": 64, "pattern_nnz": 8}


def _tag(part) -> int:
    return part if isinstance(part, int) else zlib.crc32(str(part).encode())


class Inputs:
    """Input factory for one run (``seed``), at full or smoke scale."""

    def __init__(self, seed: int, *, smoke: bool = False) -> None:
        self.seed = int(seed)
        self.smoke = smoke
        self.shape = _SMOKE if smoke else _FULL
        self.serve_shape = _SERVE_SMOKE if smoke else _SERVE_FULL
        self.n_cols = self.shape["n_cols"]

    def rng(self, *tag) -> np.random.Generator:
        return np.random.default_rng([self.seed, *(_tag(p) for p in tag)])

    def params(self) -> dict:
        return {"class_shape": dict(self.shape), "serve_shape": dict(self.serve_shape)}

    def matrix(self, cls: str, *tag):
        """One fresh matrix of class ``cls``."""
        from repro.datasets import hidden_clusters, preclustered, uniform_random

        s = self.shape
        rng = self.rng("matrix", cls, *tag)
        if cls == "scattered":
            return uniform_random(s["rows"], s["n_cols"], s["pattern_nnz"], seed=rng)
        make = hidden_clusters if cls == "clustered" else preclustered
        return make(
            s["n_clusters"], s["rows_per_cluster"], s["n_cols"], s["pattern_nnz"],
            noise=0.1, seed=rng,
        )

    def serve_matrix(self, *tag):
        """One served matrix (``hidden_clusters`` at serving size)."""
        from repro.datasets import hidden_clusters

        s = self.serve_shape
        return hidden_clusters(
            s["n_clusters"], s["rows_per_cluster"], s["n_cols"], s["pattern_nnz"],
            noise=0.1, seed=self.rng("serve", *tag),
        )

    def operand(self, n_rows: int, k: int, *tag) -> np.ndarray:
        """A dense ``n_rows x k`` float64 operand."""
        return self.rng("operand", n_rows, k, *tag).standard_normal((n_rows, k))

    def deltas(self, csr, n_ops: int, *tag) -> list:
        """``n_ops`` pairs of (value-only ``set``, inserting ``add``) deltas.

        Each ``set`` overwrites ~0.1% of the entries of ``csr``; ``add``
        only inserts, so those entries exist for every later ``set``.  Each
        ``add`` puts two entries into each of ~0.5% of the rows: far below
        the 25% replan threshold, and too few to move the round-1 gate.
        """
        from repro.streaming import DeltaBatch

        rng = self.rng("deltas", *tag)
        rows = csr.row_ids()
        n_set = max(1, round(0.001 * csr.nnz))
        n_add_rows = max(1, round(0.005 * csr.n_rows))
        out = []
        for _ in range(n_ops):
            pick = rng.choice(csr.nnz, size=n_set, replace=False)
            set_delta = DeltaBatch(
                rows[pick], csr.colidx[pick], rng.uniform(0.5, 1.5, n_set), mode="set"
            )
            add_rows = np.repeat(rng.choice(csr.n_rows, size=n_add_rows, replace=False), 2)
            add_delta = DeltaBatch(
                add_rows,
                rng.integers(0, csr.n_cols, size=add_rows.size),
                rng.uniform(0.5, 1.5, add_rows.size),
                mode="add",
            )
            out.append((set_delta, add_delta))
        return out
