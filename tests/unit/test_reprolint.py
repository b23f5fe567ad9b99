"""Tests for the reprolint static-analysis pass (repro.analysis).

Each rule is exercised against a *flagged* fixture (every violation the
rule knows about) and a *clean* counterpart, plus suppression handling,
configuration semantics, the reporters (including a JSON snapshot), and
the CLI front ends.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    DEFAULT_SCOPES,
    REGISTRY,
    LintConfig,
    lint_paths,
    lint_source,
    load_config,
    render_json,
    render_text,
)
from repro.analysis.report import render_rule_list
from repro.analysis.runner import module_rel
from repro.analysis.suppressions import collect_suppressions, unjustified
from repro.errors import ConfigError, ValidationError

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "reprolint"

#: module_rel placing a fixture inside every determinism/numerical scope.
IN_SCOPE = "repro/aspt/fixture.py"


def lint_fixture(name: str, module_path: str = IN_SCOPE, config=None):
    """Lint one fixture file under a chosen package-relative path."""
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(
        source,
        display=name,
        config=config or LintConfig(),
        module_path=module_path,
    )


def codes_of(findings):
    """The multiset of codes as a sorted list."""
    return sorted(f.code for f in findings)


class TestDeterminismRules:
    def test_flagged_fixture_fires_all_rd1xx(self):
        findings = lint_fixture("flagged_determinism.py")
        assert codes_of(findings) == [
            "RD101", "RD101",
            "RD102", "RD102",
            "RD103", "RD103", "RD103",
            "RD104", "RD104",
            "RD107",  # the perf_counter read doubles as a direct-call site
        ]

    def test_clean_fixture_is_silent(self):
        assert lint_fixture("clean_determinism.py") == []

    def test_rng_module_is_exempt(self):
        findings = lint_fixture(
            "flagged_determinism.py", module_path="repro/util/rng.py"
        )
        assert "RD101" not in codes_of(findings)
        assert "RD102" not in codes_of(findings)

    def test_set_iteration_only_in_ordering_scopes(self):
        findings = lint_fixture(
            "flagged_determinism.py", module_path="repro/viz/fixture.py"
        )
        assert "RD103" not in codes_of(findings)

    def test_wallclock_only_in_kernel_scopes(self):
        findings = lint_fixture(
            "flagged_determinism.py", module_path="repro/util/timing.py"
        )
        assert "RD104" not in codes_of(findings)


class TestInjectableClockRule:
    #: In RD107's library-wide scope but outside RD104's kernel scopes,
    #: so the clock fixtures exercise RD107 alone.
    CLOCK_SCOPE = "repro/util/fixture.py"

    def test_flagged_fixture_fires_rd107(self):
        findings = lint_fixture("flagged_clock.py", module_path=self.CLOCK_SCOPE)
        assert codes_of(findings) == ["RD107"] * 5

    def test_clean_fixture_is_silent(self):
        assert lint_fixture("clean_clock.py", module_path=self.CLOCK_SCOPE) == []

    def test_observability_layer_is_exempt(self):
        findings = lint_fixture(
            "flagged_clock.py", module_path="repro/observability/tracing.py"
        )
        assert findings == []

    def test_inactive_outside_library_code(self):
        findings = lint_fixture(
            "flagged_clock.py", module_path="scripts/tool.py"
        )
        assert findings == []

    def test_message_points_at_clock_injection(self):
        findings = lint_fixture("flagged_clock.py", module_path=self.CLOCK_SCOPE)
        assert all("clock" in f.message for f in findings)


class TestPerformanceRules:
    def test_flagged_fixture_fires_rd105(self):
        findings = lint_fixture(
            "flagged_performance.py", module_path="repro/kernels/fixture.py"
        )
        assert codes_of(findings) == ["RD105"] * 4 + ["RD109"] * 3

    def test_clean_fixture_is_silent(self):
        assert (
            lint_fixture(
                "clean_performance.py", module_path="repro/kernels/fixture.py"
            )
            == []
        )

    def test_rd105_inactive_outside_kernel_scopes(self):
        findings = lint_fixture("flagged_performance.py")  # repro/aspt path
        assert "RD105" not in codes_of(findings)

    def test_rd109_flags_scratch_in_loop_bodies(self):
        findings = lint_fixture(
            "flagged_performance.py", module_path="repro/kernels/fixture.py"
        )
        rd109 = [f for f in findings if f.code == "RD109"]
        source = (FIXTURES / "flagged_performance.py").read_text().splitlines()
        assert all(".scratch(" in source[f.line - 1] for f in rd109)
        assert all("lease before the loop and slice" in f.message for f in rd109)
        outside = lint_fixture("flagged_performance.py")  # repro/aspt path
        assert "RD109" not in codes_of(outside)


class TestAsyncBlockingRule:
    def test_flagged_fixture_fires_rd108(self):
        findings = lint_fixture(
            "flagged_async.py", module_path="repro/serve/fixture.py"
        )
        assert codes_of(findings) == ["RD108"] * 6

    def test_messages_name_the_blocking_call(self):
        findings = lint_fixture(
            "flagged_async.py", module_path="repro/serve/fixture.py"
        )
        messages = " ".join(f.message for f in findings)
        assert "time.sleep" in messages
        assert "subprocess.run" in messages
        assert ".read_text" in messages

    def test_clean_fixture_is_silent(self):
        assert (
            lint_fixture("clean_async.py", module_path="repro/serve/fixture.py")
            == []
        )

    def test_rd108_inactive_outside_serve_scope(self):
        findings = lint_fixture("flagged_async.py")  # repro/aspt path
        assert "RD108" not in codes_of(findings)


class TestNumericalRules:
    def test_flagged_fixture_fires_all_rd2xx(self):
        findings = lint_fixture("flagged_numerical.py")
        assert codes_of(findings) == [
            "RD201", "RD201",
            "RD202", "RD202", "RD202",
            "RD203", "RD203",
        ]

    def test_clean_fixture_is_silent(self):
        assert lint_fixture("clean_numerical.py") == []

    def test_rd203_names_the_unvalidated_operand(self):
        findings = lint_fixture("flagged_numerical.py")
        messages = [f.message for f in findings if f.code == "RD203"]
        assert any("'csr'" in m for m in messages)
        assert any("'X'" in m for m in messages)

    def test_rd203_inactive_outside_entrypoint_paths(self):
        findings = lint_fixture(
            "flagged_numerical.py", module_path="repro/viz/fixture.py"
        )
        assert "RD203" not in codes_of(findings)

    BACKEND_SCOPE = "repro/kernels/backends/fixture.py"

    def test_rd204_fires_on_dtypeless_allocations(self):
        findings = lint_fixture(
            "flagged_backend.py", module_path=self.BACKEND_SCOPE
        )
        assert codes_of(findings) == ["RD204", "RD204", "RD204", "RD204"]

    def test_rd204_clean_fixture_is_silent(self):
        assert (
            lint_fixture("clean_backend.py", module_path=self.BACKEND_SCOPE)
            == []
        )

    def test_rd204_inactive_outside_backend_paths(self):
        findings = lint_fixture(
            "flagged_backend.py", module_path="repro/kernels/spmm.py"
        )
        assert "RD204" not in codes_of(findings)


class TestHygieneRules:
    def test_flagged_fixture_fires_rd301_302_303(self):
        findings = lint_fixture("flagged_hygiene.py")
        assert codes_of(findings) == ["RD301", "RD302", "RD302", "RD303"]

    def test_clean_fixture_is_silent(self):
        assert lint_fixture("clean_hygiene.py") == []

    def test_print_exempt_in_cli_modules(self):
        findings = lint_fixture(
            "flagged_hygiene.py", module_path="repro/cli.py"
        )
        assert "RD303" not in codes_of(findings)

    def test_rd304_flags_unrouted_handler(self):
        findings = lint_fixture("flagged_cli.py", module_path="repro/cli.py")
        assert codes_of(findings) == ["RD304"]

    def test_rd304_accepts_registered_handler(self):
        assert lint_fixture("clean_cli.py", module_path="repro/cli.py") == []

    def test_rd304_inactive_outside_cli_paths(self):
        assert lint_fixture("flagged_cli.py", module_path=IN_SCOPE) == []


class TestBroadExceptRule:
    def test_flagged_fixture_fires_rd106(self):
        findings = lint_fixture("flagged_resilience.py")
        assert codes_of(findings) == ["RD106", "RD106", "RD106"]

    def test_clean_fixture_is_silent(self):
        assert lint_fixture("clean_resilience.py") == []

    def test_resilience_layer_is_exempt(self):
        findings = lint_fixture(
            "flagged_resilience.py", module_path="repro/resilience/faults.py"
        )
        assert findings == []

    def test_inactive_outside_library_paths(self):
        findings = lint_fixture(
            "flagged_resilience.py", module_path="scripts/tool.py"
        )
        assert findings == []

    def test_message_names_the_broad_type(self):
        findings = lint_fixture("flagged_resilience.py")
        assert any("except BaseException" in f.message for f in findings)


class TestSuppressions:
    def test_suppressed_codes_are_filtered(self):
        findings = lint_fixture("suppressed.py")
        # Both RD201s are suppressed; the bare suppression of the second
        # is reported as RD002, and the RD301 survives because its
        # suppression names the wrong code.
        assert codes_of(findings) == ["RD002", "RD301"]
        assert [f.line for f in findings if f.code == "RD002"] == [11]

    def test_bare_suppression_is_reported_as_rd002(self):
        source = "x = 1 == 2.0  # reprolint: disable=RD201\n"
        findings = lint_source(source, display="s.py", config=LintConfig())
        assert [(f.code, f.line) for f in findings] == [("RD002", 1)]
        assert "RD201" in findings[0].message
        assert "justification" in findings[0].message

    def test_rd002_obeys_select_and_ignore(self):
        source = "x = 1 == 2.0  # reprolint: disable=RD201\n"
        for config in (
            LintConfig(select=frozenset({"RD201"})),
            LintConfig(ignore=frozenset({"RD002"})),
        ):
            assert lint_source(source, display="s.py", config=config) == []

    def test_unjustified_lists_bare_suppressions(self):
        lines = (FIXTURES / "suppressed.py").read_text().splitlines()
        suppressions = collect_suppressions(lines)
        assert len(suppressions) == 3
        bare = unjustified(suppressions)
        assert len(bare) == 1
        assert bare[0].codes == frozenset({"RD201"})

    def test_multiple_codes_one_comment(self):
        source = (
            "import time\n"
            "def f():\n"
            '    """D."""\n'
            "    for v in {1, 2}:  # reprolint: disable=RD103,RD104 -- both\n"
            "        time.time()  # reprolint: disable=RD104 -- fixture\n"
        )
        findings = lint_source(source, display="s.py", config=LintConfig(),
                               module_path=IN_SCOPE)
        assert findings == []


class TestParseErrors:
    def test_syntax_error_becomes_rd001(self):
        findings = lint_source("def broken(:\n", display="bad.py",
                               config=LintConfig())
        assert [f.code for f in findings] == ["RD001"]
        assert "could not be parsed" in findings[0].message


class TestConfig:
    def test_select_restricts_codes(self):
        config = LintConfig(select=frozenset({"RD301"}))
        findings = lint_fixture("flagged_hygiene.py", config=config)
        assert codes_of(findings) == ["RD301"]

    def test_ignore_drops_codes(self):
        config = LintConfig(ignore=frozenset({"RD302"}))
        findings = lint_fixture("flagged_hygiene.py", config=config)
        assert "RD302" not in codes_of(findings)

    def test_per_path_ignores_match_ancestors(self):
        config = LintConfig(per_path_ignores={"pkg": frozenset({"RD301"})})
        assert config.ignored_at("pkg/sub/mod.py", "RD301")
        assert not config.ignored_at("other/mod.py", "RD301")

    def test_scope_star_matches_everything(self):
        config = LintConfig()
        config.scopes["ordered-iteration-paths"] = ("*",)
        findings = lint_fixture(
            "flagged_determinism.py", module_path="anywhere.py", config=config
        )
        assert "RD103" in codes_of(findings)

    def test_load_config_reads_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.reprolint]\n"
            'ignore = ["RD303"]\n'
            'exclude = ["vendored"]\n'
            "[tool.reprolint.per-path-ignores]\n"
            '"legacy" = ["RD201"]\n'
            "[tool.reprolint.scopes]\n"
            'cli-paths = ["app/cli.py"]\n'
        )
        config = load_config(tmp_path)
        assert config.ignore == frozenset({"RD303"})
        assert config.exclude == ("vendored",)
        assert config.per_path_ignores["legacy"] == frozenset({"RD201"})
        assert config.scope("cli-paths") == ("app/cli.py",)
        # Unset scopes keep their defaults.
        assert config.scope("entrypoint-paths") == DEFAULT_SCOPES["entrypoint-paths"]

    def test_load_config_rejects_unknown_scope_key(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.reprolint.scopes]\nnot-a-scope = []\n"
        )
        with pytest.raises(ConfigError):
            load_config(tmp_path)

    def test_load_config_rejects_bad_types(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.reprolint]\nignore = "RD303"\n'
        )
        with pytest.raises(ConfigError):
            load_config(tmp_path)


class TestRunner:
    def test_module_rel_anchors_at_package(self, tmp_path):
        path = tmp_path / "src" / "repro" / "kernels" / "spmm.py"
        assert module_rel(path, tmp_path) == "repro/kernels/spmm.py"

    def test_module_rel_falls_back_to_root_relative(self, tmp_path):
        path = tmp_path / "scripts" / "tool.py"
        assert module_rel(path, tmp_path) == "scripts/tool.py"

    def test_lint_paths_missing_path_raises(self, tmp_path):
        with pytest.raises(ValidationError):
            lint_paths([tmp_path / "nope"], LintConfig(root=tmp_path))

    def test_lint_paths_honours_exclude(self, tmp_path):
        (tmp_path / "skipme").mkdir()
        (tmp_path / "skipme" / "bad.py").write_text("x = 1 == 1.0\n")
        config = LintConfig(root=tmp_path, exclude=("skipme",))
        assert lint_paths([tmp_path], config) == []

    def test_repo_src_is_clean(self):
        """The acceptance gate: `repro lint src/` reports nothing."""
        root = Path(__file__).resolve().parents[2]
        findings = lint_paths([root / "src"], load_config(root))
        assert findings == [], render_text(findings)


class TestReporters:
    SOURCE = "def f(x):\n    return x == 0.5\n"

    def findings(self):
        return lint_source(self.SOURCE, display="pkg/mod.py",
                           config=LintConfig())

    def test_text_report(self):
        text = render_text(self.findings())
        assert text.splitlines()[0].startswith("pkg/mod.py:2:11: RD201 ")
        assert text.splitlines()[-1] == "1 finding (RD201×1)"

    def test_text_report_empty(self):
        assert render_text([]) == "no findings"

    def test_json_snapshot(self):
        expected = json.dumps(
            {
                "version": 1,
                "summary": {"total": 1, "by_code": {"RD201": 1}},
                "findings": [
                    {
                        "path": "pkg/mod.py",
                        "line": 2,
                        "col": 11,
                        "code": "RD201",
                        "message": "exact float comparison; prefer "
                        "math.isclose / np.isclose (or an integer/None "
                        "sentinel)",
                    }
                ],
            },
            indent=1,
        )
        assert render_json(self.findings()) == expected

    def test_rule_list_covers_registry(self):
        listing = render_rule_list()
        for code in REGISTRY:
            assert code in listing


class TestCli:
    def run_main(self, argv, capsys):
        from repro.analysis.cli import main

        code = main(argv)
        return code, capsys.readouterr().out

    def test_flagged_file_exits_one(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1 == 2.0\n")
        monkeypatch.chdir(tmp_path)
        code, out = self.run_main([str(bad)], capsys)
        assert code == 1
        assert "RD201" in out

    def test_clean_file_exits_zero(self, tmp_path, monkeypatch, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        code, out = self.run_main([str(good)], capsys)
        assert code == 0
        assert "no findings" in out

    def test_bare_suppression_fails_every_format_until_baselined(
        self, tmp_path, monkeypatch, capsys
    ):
        bare = tmp_path / "bare.py"
        bare.write_text("x = 1 == 2.0  # reprolint: disable=RD201\n")
        monkeypatch.chdir(tmp_path)
        code, out = self.run_main([str(bare)], capsys)
        assert code == 1 and "RD002" in out
        code, out = self.run_main([str(bare), "--format", "json"], capsys)
        assert code == 1
        assert json.loads(out)["summary"]["by_code"] == {"RD002": 1}
        code, out = self.run_main([str(bare), "--format", "sarif"], capsys)
        assert code == 1
        assert [r["ruleId"] for r in json.loads(out)["runs"][0]["results"]] == ["RD002"]
        baseline = str(tmp_path / "baseline.json")
        self.run_main([str(bare), "--baseline", baseline, "--update-baseline"], capsys)
        code, _ = self.run_main([str(bare), "--baseline", baseline], capsys)
        assert code == 0

    def test_json_format_is_parseable(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1 == 2.0\n")
        monkeypatch.chdir(tmp_path)
        code, out = self.run_main([str(bad), "--format", "json"], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["summary"]["by_code"] == {"RD201": 1}

    def test_select_and_ignore_flags(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1 == 2.0\n")
        monkeypatch.chdir(tmp_path)
        code, _ = self.run_main([str(bad), "--select", "RD301"], capsys)
        assert code == 0
        code, _ = self.run_main([str(bad), "--ignore", "RD201"], capsys)
        assert code == 0

    def test_list_rules(self, capsys):
        code, out = self.run_main(["--list-rules"], capsys)
        assert code == 0
        assert "RD101" in out and "RD304" in out

    def test_python_dash_m_entry(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1 == 2.0\n")
        import os
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(bad)],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert proc.returncode == 1
        assert "RD201" in proc.stdout
