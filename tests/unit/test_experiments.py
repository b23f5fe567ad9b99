"""Unit tests for repro.experiments (config, records, runner, tables, figures)."""

import numpy as np
import pytest

from repro.datasets import build_corpus
from repro.errors import ConfigError, ValidationError
from repro.experiments import (
    ExperimentConfig,
    MatrixRecord,
    fig8_speedup_histogram,
    fig9_effectiveness_scatter,
    fig10_throughput_series,
    fig11_throughput_series,
    fig12_preprocessing_times,
    load_records,
    metis_comparison,
    render_experiments_markdown,
    run_experiment,
    save_records,
)
from repro.experiments.config import PANEL_HEIGHTS, SCALE_FACTORS, scale_model
from repro.experiments.tables import (
    format_band_table,
    needing_reordering,
    preprocessing_ratio_bands,
    records_at_k,
    speedup_bands,
    summary_stats,
)
from repro.gpu import P100
from repro.gpu.costmodel import CostModelConfig


def _record(name="m", k=512, **overrides) -> MatrixRecord:
    base = dict(
        name=name,
        category="hidden",
        expected_benefit="high",
        n_rows=100,
        n_cols=100,
        nnz=1000,
        k=k,
        spmm_cusparse_s=1.0e-3,
        spmm_aspt_nr_s=0.8e-3,
        spmm_aspt_rr_s=0.5e-3,
        sddmm_bidmach_s=2.0e-3,
        sddmm_aspt_nr_s=0.9e-3,
        sddmm_aspt_rr_s=0.6e-3,
        needs_reordering=True,
        round1_applied=True,
        round2_applied=False,
        round1_changed=True,
        round2_changed=False,
        delta_dense_ratio=0.2,
        delta_avg_sim=0.05,
        dense_ratio_before=0.05,
        dense_ratio_after=0.25,
        preprocess_s=2.0,
    )
    base.update(overrides)
    return MatrixRecord(**base)


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.reorder.panel_height == PANEL_HEIGHTS["small"]

    def test_invalid_k(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(ks=(0,))
        with pytest.raises(ConfigError):
            ExperimentConfig(ks=())

    def test_invalid_scale(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scale="huge")

    def test_invalid_cache_mode(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(cache_mode="psychic")

    def test_scale_model_shrinks(self):
        dev, cost = scale_model(P100, CostModelConfig(), 8.0)
        assert dev.l2_bytes == P100.l2_bytes // 8
        assert cost.launch_overhead_s == pytest.approx(5e-6 / 8)
        assert cost.panel_overhead_cycles == pytest.approx(400.0 / 8)

    def test_scale_model_identity(self):
        dev, cost = scale_model(P100, CostModelConfig(), 1.0)
        assert dev is P100

    def test_scale_model_invalid(self):
        with pytest.raises(ConfigError):
            scale_model(P100, CostModelConfig(), 0.0)

    def test_effective_model_paper_scale_unchanged(self):
        cfg = ExperimentConfig(scale="paper")
        dev, _ = cfg.effective_model()
        assert dev.l2_bytes == P100.l2_bytes

    def test_effective_model_shrinks_by_the_scale_factor(self):
        cfg = ExperimentConfig(scale="tiny")
        dev, cost = cfg.effective_model()
        assert (dev, cost) == scale_model(
            P100, CostModelConfig(), SCALE_FACTORS["tiny"]
        )
        assert dev.l2_bytes < P100.l2_bytes

    def test_scale_factors_cover_corpus_scales(self):
        from repro.datasets.corpus import _SCALES

        assert set(SCALE_FACTORS) == set(_SCALES)
        assert set(PANEL_HEIGHTS) == set(_SCALES)


class TestRecords:
    def test_derived_metrics(self):
        r = _record()
        assert r.spmm_rr_speedup_vs_best == pytest.approx(0.8 / 0.5)
        assert r.sddmm_rr_speedup == pytest.approx(0.9 / 0.6)
        assert r.spmm_nr_speedup_vs_cusparse == pytest.approx(1.0 / 0.8)
        assert r.spmm_flops == 2.0 * 1000 * 512
        assert r.preprocess_ratio("spmm") == pytest.approx(2.0 / 0.5e-3)

    def test_gflops(self):
        r = _record()
        assert r.spmm_gflops("aspt_rr") == pytest.approx(
            r.spmm_flops / 0.5e-3 / 1e9
        )
        assert r.sddmm_gflops("bidmach") > 0

    def test_save_load_roundtrip(self, tmp_path):
        records = [_record("a"), _record("b", k=1024)]
        path = tmp_path / "r.json"
        save_records(records, path)
        back = load_records(path)
        assert back == records


class TestTables:
    def test_records_at_k(self):
        records = [_record(k=512), _record(k=1024)]
        assert len(records_at_k(records, 512)) == 1

    def test_needing_reordering(self):
        records = [_record(), _record(needs_reordering=False)]
        assert len(needing_reordering(records)) == 1

    def test_speedup_bands_sum_to_100(self):
        rng = np.random.default_rng(0)
        records = [
            _record(f"m{i}", spmm_aspt_rr_s=float(rng.uniform(0.3e-3, 1.5e-3)))
            for i in range(50)
        ]
        bands = speedup_bands(records, "spmm_vs_best")
        assert sum(bands.values()) == pytest.approx(100.0)

    def test_speedup_bands_classification(self):
        fast = _record("fast", spmm_aspt_rr_s=0.25e-3)  # 3.2x -> >100%
        slow = _record("slow", spmm_aspt_rr_s=1.0e-3)  # 0.8x -> slowdown band
        bands = speedup_bands([fast, slow], "spmm_vs_best")
        assert bands["speedup >100%"] == 50.0
        assert bands["slowdown 0%~10%"] == 50.0

    def test_preprocessing_ratio_bands(self):
        records = [
            _record("a", preprocess_s=0.5e-3),  # 1x -> 0~5x
            _record("b", preprocess_s=4.0e-3),  # 8x -> 5~10x
            _record("c", preprocess_s=30e-3),  # 60x -> 10~100x
            _record("d", preprocess_s=100e-3),  # 200x -> >100x
        ]
        bands = preprocessing_ratio_bands(records, "spmm")
        assert all(v == 25.0 for v in bands.values())

    def test_summary_stats(self):
        records = [
            _record("a", spmm_aspt_rr_s=0.4e-3),  # 2.0x
            _record("b", spmm_aspt_rr_s=0.8e-3),  # 1.0x
        ]
        stats = summary_stats(records, "spmm_vs_best")
        assert stats["max"] == pytest.approx(2.0)
        assert stats["geomean"] == pytest.approx(np.sqrt(2.0))
        assert stats["median"] == pytest.approx(1.5)

    def test_summary_stats_empty(self):
        assert summary_stats([], "spmm_vs_best")["n"] == 0

    def test_format_band_table(self):
        bands = {512: {"speedup 0%~10%": 60.0, "speedup >100%": 40.0}}
        text = format_band_table("T", bands)
        assert "K=512" in text and "60.0%" in text

    def test_format_band_table_empty(self):
        assert "(no data)" in format_band_table("T", {})


@pytest.fixture(scope="module")
def small_run():
    """One shared tiny corpus run for the figure/report tests."""
    cfg = ExperimentConfig(ks=(512, 1024), scale="tiny", repeats=1)
    entries = build_corpus("tiny", repeats=1, categories=("hidden", "diagonal", "uniform"))
    return run_experiment(cfg, entries=entries)


class TestRunner:
    def test_record_counts(self, small_run):
        names = {r.name for r in small_run}
        assert len(small_run) == 2 * len(names)

    def test_all_times_positive(self, small_run):
        for r in small_run:
            assert r.spmm_cusparse_s > 0
            assert r.spmm_aspt_nr_s > 0
            assert r.spmm_aspt_rr_s > 0
            assert r.sddmm_aspt_rr_s > 0

    def test_diagonal_rr_equals_nr(self, small_run):
        # No candidate pairs on a diagonal matrix: RR must equal NR exactly.
        for r in small_run:
            if r.category == "diagonal":
                assert r.spmm_aspt_rr_s == pytest.approx(r.spmm_aspt_nr_s)

    def test_verify_mode(self):
        cfg = ExperimentConfig(ks=(8,), scale="tiny", repeats=1, verify=True)
        entries = build_corpus("tiny", repeats=1, categories=("uniform",))[:1]
        records = run_experiment(cfg, entries=entries)
        assert len(records) == 1


class TestFigures:
    def test_fig8(self, small_run):
        out = fig8_speedup_histogram(small_run, 512)
        assert sum(out["bands_nr"].values()) == pytest.approx(100.0)
        assert "Fig 8" in out["text"]

    def test_fig9(self, small_run):
        out = fig9_effectiveness_scatter(small_run, 512)
        assert out["n_total"] >= out["n_improved"] >= 0
        assert len(out["delta_dense_ratio"]) == out["n_total"]

    def test_fig10(self, small_run):
        out = fig10_throughput_series(small_run, 512)
        series = out["series"]
        assert set(series) == {"cusparse", "nr(aspt)", "rr(aspt)"}
        # Sorted by NR throughput.
        nr = series["nr(aspt)"]
        assert nr == sorted(nr)

    def test_fig11(self, small_run):
        out = fig11_throughput_series(small_run, 1024)
        assert set(out["series"]) == {"nr(aspt)", "rr(aspt)"}

    def test_fig12(self, small_run):
        out = fig12_preprocessing_times(small_run)
        assert out["stats"]["n"] > 0
        assert out["stats"]["max_s"] >= out["stats"]["min_s"]

    def test_metis_comparison(self):
        entries = build_corpus("tiny", repeats=1, categories=("smallworld",))[:2]
        out = metis_comparison(entries, 512)
        assert out["n_total"] == 2
        assert len(out["speedup_vs_original"]) == 2


class TestReport:
    def test_render_markdown(self, small_run):
        text = render_experiments_markdown(small_run)
        assert "Table 1" in text and "Table 4" in text
        assert "geomean" in text
        assert "paper" in text.lower()


class TestCategoryBreakdown:
    def test_groups_and_orders_by_geomean(self):
        from repro.experiments.tables import category_breakdown

        records = [
            _record("a", category="hidden", spmm_aspt_rr_s=0.4e-3),  # 2.0x
            _record("b", category="hidden", spmm_aspt_rr_s=0.4e-3),
            _record("c", category="banded", spmm_aspt_rr_s=0.8e-3),  # 1.0x
        ]
        out = category_breakdown(records)
        assert list(out) == ["hidden", "banded"]
        assert out["hidden"]["n"] == 2
        assert out["hidden"]["geomean"] == pytest.approx(2.0)

    def test_format(self):
        from repro.experiments.tables import category_breakdown, format_category_table

        out = category_breakdown([_record("a")])
        text = format_category_table("T", out)
        assert "hidden" in text and "T" in text

    def test_format_empty(self):
        from repro.experiments.tables import format_category_table

        assert "(no data)" in format_category_table("T", {})


class TestParallelRunner:
    def test_parallel_equals_sequential(self):
        entries = build_corpus("tiny", repeats=1, categories=("uniform", "hidden"))[:3]
        cfg = ExperimentConfig(ks=(512,), scale="tiny", repeats=1)
        seq = run_experiment(cfg, entries=entries, n_jobs=1)
        par = run_experiment(cfg, entries=entries, n_jobs=2)
        assert len(seq) == len(par)
        for a, b in zip(seq, par):
            # Everything except host wall-clock must match exactly.
            da, db = a.as_dict(), b.as_dict()
            da.pop("preprocess_s")
            db.pop("preprocess_s")
            da.pop("stage_seconds")
            db.pop("stage_seconds")
            assert da == db

    def test_invalid_jobs(self):
        # A bool or a fraction is not a job count.
        for n_jobs in (0, True, 1.5):
            with pytest.raises(ValidationError, match="n_jobs"):
                run_experiment(
                    ExperimentConfig(ks=(512,), scale="tiny", repeats=1),
                    entries=[],
                    n_jobs=n_jobs,
                )
