"""Differential tests: tracing must never influence the computation.

The observability layer's determinism contract (see
``repro.observability.tracing``) is that an installed tracer changes
*nothing* about what the library computes — plans and kernel results
must be bitwise identical with and without tracing, on every
degradation-ladder rung, with metrics flowing either way.
"""

import numpy as np
import pytest

from repro.datasets import hidden_clusters
from repro.kernels import KernelSession
from repro.observability import Tracer, tracing
from repro.reorder import ReorderConfig, build_plan
from repro.resilience.policy import ladder_rungs


@pytest.fixture(scope="module")
def matrix():
    return hidden_clusters(40, 8, 1024, 12, noise=0.1, seed=3)


def _rung_configs():
    """One ``(label, config)`` per ladder rung, built the ladder's way."""
    base = ReorderConfig(panel_height=8, force_round1=True, force_round2=True)
    rungs = ladder_rungs(base)
    assert [label for label, _ in rungs] == [
        label for label, _ in ladder_rungs(ReorderConfig())
    ]
    return rungs


@pytest.mark.parametrize(
    ("label", "config"),
    _rung_configs(),
    ids=[label for label, _ in _rung_configs()],
)
class TestTracedRunsAreBitwiseIdentical:
    def test_plan_and_kernel_output_match_untraced(self, matrix, label, config):
        X = np.random.default_rng(7).normal(size=(matrix.n_cols, 16))

        plain_plan = build_plan(matrix, config)
        plain_session = KernelSession(plain_plan)
        plain_out = plain_session.run(X).copy()

        with tracing(Tracer()) as tracer:
            traced_plan = build_plan(matrix, config)
            traced_session = KernelSession(traced_plan)
            traced_out = traced_session.run(X).copy()

        np.testing.assert_array_equal(traced_plan.row_order, plain_plan.row_order)
        np.testing.assert_array_equal(
            traced_plan.remainder_order, plain_plan.remainder_order
        )
        assert traced_plan.stats == plain_plan.stats
        np.testing.assert_array_equal(traced_out, plain_out)
        # The tracer really was recording during the traced run.
        assert any(
            e["name"] == "kernel.run"
            for e in tracer.chrome_trace()["traceEvents"]
        )
