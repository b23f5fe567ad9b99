"""Extension bench: a growing matrix served by a `StreamingPlan`.

A taste-clustered rating matrix arrives as 8 row-appending `add` deltas
(the paper's §4 online scenario on a matrix that grows).  Each delta
changes the sparsity pattern, so the plan replans through the batch
MinHash/LSH pipeline.  The bench times the stream and one batch build of
the whole matrix, and checks that the grown plan orders the rows exactly
as the batch build does and beats arrival order on the modelled GPU.
"""

import time

import numpy as np

from conftest import emit
from repro.aspt import tile_matrix
from repro.datasets import bipartite_ratings
from repro.experiments.config import ExperimentConfig
from repro.gpu import GPUExecutor
from repro.reorder import ReorderConfig, build_plan
from repro.streaming import StreamingPlan, split_into_deltas


def _measure():
    ratings = bipartite_ratings(
        2048, 2048, 20, n_taste_groups=64, concentration=0.95, seed=7
    )
    config = ReorderConfig(panel_height=16, force_round1=True)
    base, deltas = split_into_deltas(ratings, 8, seed=0, grow_rows=True)
    t0 = time.perf_counter()
    stream = StreamingPlan(base, config)
    for delta in deltas:
        stream.apply(delta)
    stream_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    plan = build_plan(ratings, config)
    batch_s = time.perf_counter() - t0

    device, cost = ExperimentConfig(scale="small").effective_model()
    executor = GPUExecutor(device, cost)
    arrival_t = executor.spmm_cost(tile_matrix(ratings, 16), 512, "aspt").time_s
    plan_t = executor.spmm_cost(stream.plan.cost_view(), 512, "aspt").time_s
    return {
        "stream_preproc_s": stream_s,
        "batch_preproc_s": batch_s,
        "batches": len(deltas),
        "arrival_us": arrival_t * 1e6,
        "plan_us": plan_t * 1e6,
        "speedup": arrival_t / plan_t,
        "same_order_as_batch": bool(
            np.array_equal(stream.plan.row_order, plan.row_order)
        ),
    }


def test_growing_matrix_keeps_batch_order(benchmark):
    out = benchmark.pedantic(_measure, rounds=1, iterations=1)
    emit(
        benchmark,
        "Growing matrix (StreamingPlan) vs one batch build — rating matrix, K=512\n"
        f"  preprocessing: {out['batches']} row-appending deltas "
        f"{out['stream_preproc_s']:.2f}s, batch {out['batch_preproc_s']:.2f}s\n"
        f"  modelled SpMM: arrival {out['arrival_us']:.1f}us, "
        f"plan {out['plan_us']:.1f}us ({out['speedup']:.2f}x)",
        **out,
    )
    # Every row-appending delta replans through the batch pipeline, so the
    # grown plan is the batch build's...
    assert out["same_order_as_batch"]
    # ...and its order beats arrival order on the modelled GPU.
    assert out["speedup"] > 1.3
