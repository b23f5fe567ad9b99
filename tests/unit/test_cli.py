"""Unit tests for the repro CLI."""

import json

import numpy as np
import pytest

from repro.cli import _HANDLERS, build_parser, main
from repro.errors import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_USAGE
from repro.sparse import CSRMatrix, read_matrix_market, write_matrix_market


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.k == [512, 1024]
        assert args.scale == "small"

    def test_table_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "5"])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "9", "--k", "1024"])
        assert args.number == 9 and args.k == 1024


class TestCommands:
    def test_generators(self, capsys):
        assert main(["generators"]) == 0
        out = capsys.readouterr().out
        assert "rmat" in out and "hidden_clusters" in out

    def test_corpus_listing(self, capsys):
        assert main(["corpus", "--scale", "tiny", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "total:" in out
        assert "hidden" in out

    def test_run_table_figure_roundtrip(self, tmp_path, capsys, monkeypatch):
        out_path = tmp_path / "results.json"
        # Run on the tiny scale to keep CI fast.
        assert (
            main(
                [
                    "run",
                    "--scale",
                    "tiny",
                    "--repeats",
                    "1",
                    "--k",
                    "512",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        assert out_path.exists()
        data = json.loads(out_path.read_text())
        assert len(data) > 0

        for table in ("1", "2", "3", "4"):
            assert main(["table", table, "--records", str(out_path)]) == 0
        for fig in ("8", "9", "10", "11", "12"):
            assert main(["figure", fig, "--records", str(out_path), "--k", "512"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Fig 8" in out

    def test_reorder_mtx(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        dense = np.zeros((40, 40))
        pattern = rng.choice(40, size=6, replace=False)
        for group in range(8):
            rows = rng.choice(40, size=5, replace=False)
            cols = rng.choice(40, size=6, replace=False)
            for r in rows:
                dense[r, cols] = 1.0
        m = CSRMatrix.from_dense(dense)
        src = tmp_path / "in.mtx"
        dst = tmp_path / "out.mtx"
        write_matrix_market(src, m)
        assert (
            main(["reorder", "--mtx", str(src), "--out", str(dst), "--panel-height", "4"])
            == 0
        )
        reordered = read_matrix_market(dst)
        assert reordered.shape == m.shape
        assert reordered.nnz == m.nnz
        out = capsys.readouterr().out
        assert "dense ratio" in out

    def test_metis_command(self, capsys):
        assert main(["metis", "--scale", "tiny", "--k", "512"]) == 0
        out = capsys.readouterr().out
        assert "vertex reordering" in out


class TestBackendsCommand:
    @staticmethod
    def _rows(out):
        """``{name: (available, note)}`` from the command's table."""
        rows = {}
        for line in out.splitlines()[1:]:
            name, available, *note = line.split(maxsplit=2)
            rows[name] = (available, note[0] if note else "")
        return rows

    def test_lists_both_backends(self, compiled_backend, capsys):
        assert main(["backends"]) == EXIT_OK
        rows = self._rows(capsys.readouterr().out)
        assert rows == {
            "numpy": ("yes", "reference (degradation target)"),
            "cc": ("yes", "default"),
        }

    def test_missing_compiler_reads_no_with_its_reason(self, no_compiler, capsys):
        assert main(["backends"]) == EXIT_OK
        rows = self._rows(capsys.readouterr().out)
        assert rows["numpy"][0] == "yes"
        assert rows["cc"] == ("no", "C compiler '/nonexistent/cc' not found (set CC)")


class TestFigureJsonExport:
    def test_json_dump(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        assert (
            main(["run", "--scale", "tiny", "--repeats", "1", "--k", "512",
                  "--out", str(out_path)]) == 0
        )
        fig_path = tmp_path / "fig9.json"
        assert (
            main(["figure", "9", "--records", str(out_path), "--k", "512",
                  "--json", str(fig_path)]) == 0
        )
        data = json.loads(fig_path.read_text())
        assert "delta_dense_ratio" in data and "text" not in data


class TestReportCommand:
    def test_report_writes_markdown(self, tmp_path, capsys):
        records_path = tmp_path / "r.json"
        assert (
            main(["run", "--scale", "tiny", "--repeats", "1", "--k", "512",
                  "--out", str(records_path)]) == 0
        )
        out_md = tmp_path / "EXP.md"
        assert (
            main(["report", "--records", str(records_path), "--out", str(out_md)]) == 0
        )
        text = out_md.read_text()
        assert "Table 1" in text and "per-category" in text


class TestHtmlReport:
    def test_html_report_from_cli(self, tmp_path, capsys):
        records_path = tmp_path / "r.json"
        assert (
            main(["run", "--scale", "tiny", "--repeats", "1", "--k", "512",
                  "--out", str(records_path)]) == 0
        )
        html_path = tmp_path / "report.html"
        assert (
            main(["report", "--records", str(records_path),
                  "--out", str(tmp_path / "EXP.md"), "--html", str(html_path)]) == 0
        )
        text = html_path.read_text()
        assert text.count("<svg") == 5
        assert "Table 1" in text and "prefers-color-scheme" in text

    def test_render_html_report_direct(self, tmp_path):
        from repro.experiments import (
            ExperimentConfig,
            render_html_report,
            run_experiment,
        )
        from repro.datasets import build_corpus

        entries = build_corpus("tiny", repeats=1, categories=("hidden",))[:2]
        records = run_experiment(
            ExperimentConfig(ks=(512, 1024), scale="tiny", repeats=1),
            entries=entries,
        )
        html = render_html_report(records, mode="dark")
        assert "#1a1a19" in html  # dark figures embedded
        assert "Table 4" in html


class TestAutotuneCommand:
    def test_autotune_mtx(self, tmp_path, capsys):
        from repro.datasets import hidden_clusters
        from repro.sparse import write_matrix_market

        m = hidden_clusters(60, 6, 1024, 12, seed=0)
        path = tmp_path / "m.mtx"
        write_matrix_market(path, m)
        assert main(["autotune", "--mtx", str(path), "--k", "256",
                     "--panel-height", "8"]) == 0
        out = capsys.readouterr().out
        assert "decision:" in out and "modelled spmm" in out


class TestErrorRouting:
    """repro CLI errors map to repro.errors exit codes, not tracebacks."""

    def test_every_subcommand_is_registered(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if a.dest == "command"
        )
        assert set(subparsers.choices) == set(_HANDLERS)

    def test_missing_mtx_exits_io(self, tmp_path, capsys):
        code = main(["reorder", "--mtx", str(tmp_path / "missing.mtx"),
                     "--out", str(tmp_path / "out.mtx")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "repro reorder: error" in err

    def test_malformed_mtx_exits_data(self, tmp_path, capsys):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n1 1\n1.0\n")
        code = main(["reorder", "--mtx", str(path),
                     "--out", str(tmp_path / "out.mtx")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "FormatError" in err

    @pytest.mark.parametrize("deadline", ["nan", "inf", "-1"])
    def test_bad_stage_deadline_exits_usage_in_one_line(
        self, deadline, tmp_path, capsys
    ):
        """A NaN deadline never expires and a negative one cannot start,
        so both are refused before the sweep runs."""
        out = tmp_path / "out.json"
        code = main(["run", "--scale", "tiny", "--repeats", "1", "--k", "32",
                     "--out", str(out), "--stage-deadline", deadline])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("repro run: error (ConfigError): deadline_s")
        assert not out.exists()

    def test_missing_records_exits_io(self, tmp_path, capsys):
        code = main(["table", "1", "--records", str(tmp_path / "none.json")])
        assert code == EXIT_IO
        assert "repro table: error" in capsys.readouterr().err

    def test_lint_subcommand_clean_path(self, tmp_path, monkeypatch, capsys):
        good = tmp_path / "fine.py"
        good.write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main(["lint", str(good)]) == EXIT_OK
        assert "no findings" in capsys.readouterr().out

    def test_lint_subcommand_missing_path_exits_usage(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["lint", str(tmp_path / "gone")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "repro lint: error" in err and "ValidationError" in err

    def test_lint_subcommand_findings_exit_failure(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("y = 2 == 2.0\n")
        monkeypatch.chdir(tmp_path)
        code = main(["lint", str(bad)])
        assert code == 1
        assert "RD201" in capsys.readouterr().out


class TestJobsFlag:
    def test_jobs_parse_default(self):
        args = build_parser().parse_args(["run"])
        assert args.jobs == 1

    def test_run_with_jobs(self, tmp_path):
        out_path = tmp_path / "r.json"
        assert (
            main(["run", "--scale", "tiny", "--repeats", "1", "--k", "512",
                  "--jobs", "2", "--out", str(out_path)]) == 0
        )
        assert out_path.exists()
