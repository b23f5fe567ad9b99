#!/usr/bin/env python
"""Streaming row arrival on a growing matrix (the paper's §4 online scenario).

A recommender ingests users in arrival order; users with similar taste
(similar rating columns) arrive interleaved, so the stored matrix has no
row locality.  A :class:`repro.streaming.StreamingPlan` follows the matrix
as it grows: each batch of arriving users is one row-appending ``add``
delta.  Such a delta changes the sparsity pattern, so the plan is rebuilt
through the batch MinHash/LSH pipeline (:func:`repro.reorder.build_plan`);
a value-only delta would keep the plan instead.

The script streams a taste-clustered rating matrix in 8 batches, prints
each update's mode and time, checks that the final plan orders the rows
exactly as a batch build of the whole matrix does, and compares the
modelled GPU cost of arrival order against plan order.

Run:  python examples/streaming_updates.py
"""

import numpy as np

from repro.aspt import tile_matrix
from repro.datasets import bipartite_ratings
from repro.experiments.config import ExperimentConfig
from repro.gpu import GPUExecutor
from repro.reorder import ReorderConfig, build_plan
from repro.streaming import StreamingPlan, split_into_deltas
from repro.util.timing import Timer


def main() -> None:
    ratings = bipartite_ratings(
        n_users=2048, n_items=2048, mean_ratings=20,
        n_taste_groups=64, concentration=0.95, seed=7,
    )
    print(f"stream: {ratings.n_rows} users x {ratings.n_cols} items, "
          f"{ratings.nnz} ratings")

    # ---- grow the matrix batch by batch -------------------------------------
    config = ReorderConfig(panel_height=16, force_round1=True)
    base, deltas = split_into_deltas(ratings, 8, seed=0, grow_rows=True)
    stream = StreamingPlan(base, config)
    with Timer() as t_stream:
        for delta in deltas:
            report = stream.apply(delta)
            print(f"  +{delta.new_rows:4d} users -> {stream.matrix.n_rows:4d}: "
                  f"{report.mode} in {report.seconds['total'] * 1e3:6.1f} ms")
    print(f"streamed: {t_stream.elapsed:.2f}s over {len(deltas)} batches")

    # ---- the grown plan is the batch pipeline's plan ------------------------
    with Timer() as t_batch:
        batch = build_plan(ratings, config)
    print(f"batch pipeline on the whole matrix: {t_batch.elapsed:.2f}s")
    np.testing.assert_array_equal(stream.matrix.values, ratings.values)
    np.testing.assert_array_equal(stream.plan.row_order, batch.row_order)

    # ---- modelled SpMM cost: arrival order vs plan order --------------------
    device, cost = ExperimentConfig(scale="small").effective_model()
    executor = GPUExecutor(device, cost)
    arrival = executor.spmm_cost(tile_matrix(ratings, 16), 512, "aspt").time_s
    planned = executor.spmm_cost(stream.plan.cost_view(), 512, "aspt").time_s
    print("modelled SpMM (K=512):")
    print(f"  arrival order : {arrival * 1e6:8.1f} us")
    print(f"  plan order    : {planned * 1e6:8.1f} us  ({arrival / planned:.2f}x)")


if __name__ == "__main__":
    main()
