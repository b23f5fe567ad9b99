"""Tests for the stochastic block model generator and example smoke runs."""

import runpy
import sys

import numpy as np
import pytest

from repro.datasets import GENERATORS, list_generators, stochastic_block_model
from repro.similarity import average_consecutive_similarity
from repro.sparse import CSRMatrix


class TestStochasticBlockModel:
    def test_shape_and_symmetry(self):
        m = stochastic_block_model(8, 10, p_in=0.4, p_out=0.01, seed=0)
        assert m.shape == (80, 80)
        dense = m.to_dense()
        np.testing.assert_allclose(dense != 0, (dense != 0).T)
        assert np.diag(dense).sum() == 0.0

    def test_shuffle_hides_structure(self):
        hidden = stochastic_block_model(32, 16, p_in=0.3, p_out=0.001, seed=1)
        grouped = stochastic_block_model(
            32, 16, p_in=0.3, p_out=0.001, shuffle=False, seed=1
        )
        assert (
            average_consecutive_similarity(grouped)
            > average_consecutive_similarity(hidden) + 0.05
        )

    def test_p_out_zero_block_diagonal_when_unshuffled(self):
        m = stochastic_block_model(4, 8, p_in=0.9, p_out=0.0, shuffle=False, seed=0)
        dense = m.to_dense()
        assert dense[:8, 8:].sum() == 0.0

    def test_deterministic(self):
        a = stochastic_block_model(6, 8, seed=9)
        b = stochastic_block_model(6, 8, seed=9)
        assert a.allclose(b)

    def test_invalid_probability(self):
        with pytest.raises(Exception):
            stochastic_block_model(4, 4, p_in=1.5)

    def test_registered(self):
        assert "stochastic_block_model" in list_generators()
        gen = GENERATORS["stochastic_block_model"]
        assert isinstance(gen(4, 4, seed=0), CSRMatrix)


@pytest.mark.parametrize(
    "script",
    [
        "examples/quickstart.py",
        "examples/gnn_graph_convolution.py",
        "examples/collaborative_filtering.py",
        "examples/reordering_analysis.py",
        "examples/streaming_updates.py",
        "examples/plan_caching.py",
    ],
)
def test_example_runs(script, capsys, monkeypatch):
    """Each shipped example must execute cleanly end to end."""
    monkeypatch.setattr(sys, "argv", [script])
    runpy.run_path(script, run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # produced some report
    assert "Traceback" not in out
