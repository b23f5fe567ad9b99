"""Tests for the inter-procedural dataflow engine (RD4xx-RD6xx).

Covers the engine building blocks (call graph, CFG solver, dtype
lattice), each rule family against flagged/clean fixtures, the
inter-procedural mini-project corpus, SARIF rendering against a golden
snapshot, baseline round-trips, and the content-addressed incremental
session (correct dirty closure *and* the cold/warm speedup).
"""

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import LintConfig, lint_paths, lint_session, lint_source
from repro.analysis.core import Finding
from repro.analysis.dataflow.baseline import (
    apply_baseline,
    finding_fingerprint,
    load_baseline,
    save_baseline,
)
from repro.analysis.dataflow.callgraph import (
    CallGraph,
    module_imports,
    module_name_for,
    parse_module,
)
from repro.analysis.dataflow.cfg import build_cfg, solve_forward
from repro.analysis.dataflow.engine import DATAFLOW_CODES
from repro.analysis.dataflow.lattice import (
    BOT,
    BOTTOM_VAL,
    F32,
    F64,
    INT,
    TOP,
    dtype_join,
    join_vals,
    make_const,
    make_params,
)
from repro.analysis.dataflow.sarif import (
    render_sarif,
    render_sarif_json,
    validate_sarif,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "reprolint"
MINIPROJ = FIXTURES / "miniproj"

#: Restrict runs to the dataflow families so per-file rules stay quiet.
DF_CODES = frozenset(DATAFLOW_CODES)

#: module_rel giving a fixture every dataflow scope, including the
#: kernel-return RD402 sink.
KERNEL_SCOPE = "repro/kernels/fixture.py"


def df_config(**kwargs):
    return LintConfig(select=DF_CODES, **kwargs)


def lint_fixture(name, module_path=KERNEL_SCOPE):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(
        source, display=name, config=df_config(), module_path=module_path
    )


def lint_snippet(source, module_path=KERNEL_SCOPE):
    return lint_source(
        source, display="snippet.py", config=df_config(), module_path=module_path
    )


def codes_of(findings):
    return sorted(f.code for f in findings)


def make_module(name, source, module_rel=None):
    tree = ast.parse(source)
    return parse_module(
        name, f"{name}.py", module_rel or f"{name}.py", tree,
        source.splitlines(),
    )


def calls_in(module):
    """``name/attr -> ast.Call.func`` for every call in the module."""
    out = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            func = node.func
            label = func.attr if isinstance(func, ast.Attribute) else func.id
            out[label] = func
    return out


class TestCallGraph:
    SOURCE = (
        "import numpy as np\n"
        "from repro.util.hashing import stable_digest\n"
        "def helper(x):\n"
        "    return x\n"
        "def main(x):\n"
        "    helper(x)\n"
        "    np.zeros(3)\n"
        "    stable_digest(x)\n"
        "    sorted(x)\n"
    )

    def graph(self):
        module = make_module("pkg.mod", self.SOURCE)
        return CallGraph({"pkg.mod": module}), module

    def test_internal_resolution(self):
        graph, module = self.graph()
        tag, key = graph.resolve(module, calls_in(module)["helper"])
        assert (tag, key) == ("internal", "pkg.mod:helper")

    def test_external_resolution_canonicalises_np(self):
        graph, module = self.graph()
        tag, name = graph.resolve(module, calls_in(module)["zeros"])
        assert (tag, name) == ("external", "numpy.zeros")

    def test_from_import_resolves_to_source_module(self):
        graph, module = self.graph()
        tag, name = graph.resolve(module, calls_in(module)["stable_digest"])
        assert (tag, name) == ("external", "repro.util.hashing.stable_digest")

    def test_builtin_resolution(self):
        graph, module = self.graph()
        assert graph.resolve(module, calls_in(module)["sorted"]) == (
            "builtin", "sorted",
        )

    def test_module_name_for(self):
        assert module_name_for("repro/kernels/spmm.py") == "repro.kernels.spmm"
        assert module_name_for("repro/util/__init__.py") == "repro.util"

    def test_module_imports_lists_both_forms(self):
        module = make_module("pkg.mod", self.SOURCE)
        imports = module_imports(module)
        assert "numpy" in imports
        assert "repro.util.hashing" in imports
        assert "repro.util.hashing.stable_digest" in imports


class TestCfg:
    def fn(self, body):
        return ast.parse(f"def f(x):\n{body}").body[0]

    def test_branch_has_exit_edges_and_merge(self):
        cfg = build_cfg(self.fn("    if x:\n        return 1\n    return 2\n"))
        exit_preds = [b.id for b in cfg.blocks if cfg.exit in b.succs]
        assert len(exit_preds) == 2  # both returns reach the exit block

    def test_reachability_excludes_early_return_branch(self):
        cfg = build_cfg(
            self.fn("    if x:\n        return 1\n    y = 2\n    return y\n")
        )
        reach = cfg.reachable_from()
        # The then-branch block (holding `return 1`) reaches only exit.
        then_blocks = [
            b.id for b in cfg.blocks
            if any(
                isinstance(node, ast.Return)
                and isinstance(node.value, ast.Constant)
                and node.value.value == 1
                for _, node in b.items
            )
        ]
        assert then_blocks
        assert reach[then_blocks[0]] == {cfg.exit}

    def test_loop_back_edge_makes_body_self_reachable(self):
        cfg = build_cfg(self.fn("    for i in x:\n        y = i\n    return x\n"))
        reach = cfg.reachable_from()
        body = [
            b.id for b in cfg.blocks
            if any(isinstance(n, ast.Assign) for _, n in b.items)
        ][0]
        assert body in reach[body]  # around the loop and back

    def test_solve_forward_reaches_fixpoint_on_loop(self):
        cfg = build_cfg(
            self.fn("    y = 0\n    while x:\n        y = y + 1\n    return y\n")
        )

        def transfer(kind, node, env):
            if isinstance(node, ast.Assign):
                env = dict(env)
                env[node.targets[0].id] = env.get(node.targets[0].id, 0) + 1
            return env

        def join(a, b, succ):
            return {k: max(a.get(k, 0), b.get(k, 0)) for k in set(a) | set(b)}

        envs = solve_forward(cfg, {}, transfer, join)
        assert envs[cfg.exit]["y"] >= 1  # terminated despite the cycle


class TestLattice:
    def test_join_table(self):
        assert dtype_join(F32, F64) == F64  # the upcast the analysis hunts
        assert dtype_join(F32, INT) == TOP
        assert dtype_join(BOT, F32) == F32
        assert dtype_join(TOP, F64) == TOP

    def test_f32_meets_f64_emits_f32_event(self):
        origin = (3, 0, "np.zeros(...)", True)
        joined, event = join_vals(make_const(F32), make_const(F64, origin))
        assert joined[0] == F64
        assert event == ("f32", origin)

    def test_param_path_meets_f64_emits_param_event(self):
        origin = (7, 4, "explicit dtype=float64", False)
        joined, event = join_vals(make_params(["x"]), make_const(F64, origin))
        assert joined == (F64, frozenset({"x"}), origin)
        assert event == ("param", origin)

    def test_agreeing_values_emit_nothing(self):
        _, event = join_vals(make_const(F64), make_const(F64))
        assert event is None
        _, event = join_vals(BOTTOM_VAL, make_params(["x"]))
        assert event is None


class TestFlaggedFixture:
    def test_all_dataflow_rules_fire(self):
        findings = lint_fixture("flagged_dataflow.py")
        assert codes_of(findings) == [
            "RD401", "RD401",
            "RD402", "RD402", "RD402", "RD402",
            "RD501", "RD501",
            "RD601", "RD601",
            "RD602",
        ]

    def test_rd401_names_source_and_sink(self):
        findings = [f for f in lint_fixture("flagged_dataflow.py")
                    if f.code == "RD401"]
        assert any("time.time()" in f.message and "stable_digest" in f.message
                   for f in findings)
        assert any("set iteration order" in f.message and "update" in f.message
                   for f in findings)

    def test_rd601_reports_both_target_kinds(self):
        findings = [f for f in lint_fixture("flagged_dataflow.py")
                    if f.code == "RD601"]
        messages = " | ".join(f.message for f in findings)
        assert "noisy_validator()" in messages  # direct @checked reference
        assert "Plan.validate()" in messages  # via the validates() factory

    def test_kernel_sink_inactive_outside_kernel_paths(self):
        findings = lint_fixture(
            "flagged_dataflow.py", module_path="repro/measures/fixture.py"
        )
        assert "RD402" not in codes_of(findings)


class TestCleanFixture:
    def test_clean_fixture_is_silent(self):
        assert lint_fixture("clean_dataflow.py") == []

    def test_dict_order_is_not_a_kernel_sink(self):
        # Insertion order is per-run deterministic; listing a registry is
        # not nondeterministic kernel output (it IS still an RD401 sink).
        findings = lint_snippet(
            "def available(registry):\n"
            "    return tuple(k for k, v in registry.items() if v)\n"
        )
        assert findings == []

    def test_exit_merges_do_not_report(self):
        # The early return leaves `x` un-coerced on one path; the paths
        # only meet after the function is over, which is not an upcast.
        findings = lint_snippet(
            "import numpy as np\n"
            "def f(x, fast):\n"
            "    if fast:\n"
            "        return x\n"
            "    x = np.asarray(x, dtype=np.float64)\n"
            "    return x * 2\n"
        )
        assert findings == []


class TestMiniproj:
    def run(self):
        return lint_paths([MINIPROJ], df_config(root=MINIPROJ))

    def test_interprocedural_findings(self):
        got = {(f.path, f.line, f.code) for f in self.run()}
        assert got == {
            ("repro/kernels/compute.py", 12, "RD401"),
            ("repro/kernels/compute.py", 16, "RD402"),
            ("repro/kernels/compute.py", 21, "RD501"),
            ("repro/kernels/compute.py", 29, "RD602"),
            ("repro/kernels/helpers.py", 10, "RD402"),
            ("repro/plans.py", 13, "RD601"),
        }

    def test_taint_crosses_two_call_edges(self):
        finding = [f for f in self.run() if f.code == "RD401"][0]
        assert "time.perf_counter()" in finding.message

    def test_param_mutation_needs_observable_argument(self):
        # staged() passes its own parameter into bump() -> flagged;
        # staged_fresh() passes a fresh dict -> silent.  Same callee.
        lines = [f.line for f in self.run() if f.code == "RD602"]
        assert lines == [29]

    def test_contract_purity_is_binding_aware(self):
        # build's target audit() mutates through bump(); assemble's
        # target inspect() calls the same bump() on a fresh dict.
        findings = [f for f in self.run() if f.code == "RD601"]
        assert len(findings) == 1
        assert "audit()" in findings[0].message
        assert "bump()" in findings[0].message


class TestSuppressionSpans:
    IMPURE = (
        "_LOG = []\n"
        "def checked(*c):\n"
        "    def wrap(fn):\n"
        "        return fn\n"
        "    return wrap\n"
        "def validator(plan):\n"
        "    _LOG.append(plan)\n"
        "    return True\n"
        "@checked(validator)\n"
        "def build(plan):\n"
        "    return plan\n"
    )

    def test_finding_anchors_at_def_line(self):
        findings = lint_snippet(self.IMPURE)
        assert [(f.code, f.line) for f in findings] == [("RD601", 6)]

    def test_suppression_on_def_line_covers_it(self):
        patched = self.IMPURE.replace(
            "def validator(plan):",
            "def validator(plan):  # reprolint: disable=RD601 -- audit log",
        )
        assert lint_snippet(patched) == []

    def test_decorated_span_attribution(self):
        # The regression: a suppression on the *decorator* line must
        # cover a finding anchored at the `def` line below it.
        decorated = self.IMPURE.replace(
            "def validator(plan):",
            "@staticmethod  # reprolint: disable=RD601 -- audit log\n"
            "def validator(plan):",
        )
        assert lint_snippet(decorated) == []


class TestRelativePaths:
    def test_reports_never_leak_absolute_paths(self, tmp_path):
        target = tmp_path / "pkg" / "mod.py"
        target.parent.mkdir()
        target.write_text("x = 1 == 2.0\n")
        findings = lint_paths([tmp_path], LintConfig(root=tmp_path))
        assert findings and all(not Path(f.path).is_absolute() for f in findings)
        assert findings[0].path == "pkg/mod.py"

    def test_paths_outside_root_use_relative_components(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        outside = tmp_path / "elsewhere.py"
        outside.write_text("x = 1 == 2.0\n")
        findings = lint_paths([outside], LintConfig(root=root))
        assert findings[0].path == "../elsewhere.py"


class TestSarif:
    def findings(self):
        return lint_fixture("flagged_dataflow.py")

    def test_golden_snapshot(self):
        golden = (FIXTURES / "golden_dataflow.sarif").read_text(encoding="utf-8")
        rendered = render_sarif_json(self.findings(), tool_version="golden")
        assert rendered + "\n" == golden

    def test_document_validates(self):
        doc = render_sarif(self.findings())
        assert validate_sarif(doc) == []

    def test_rule_metadata_and_indices_line_up(self):
        doc = render_sarif(self.findings())
        run = doc["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            rule = rules[result["ruleIndex"]]
            assert rule["id"] == result["ruleId"]

    def test_validator_catches_absolute_uris(self):
        doc = render_sarif(self.findings())
        location = doc["runs"][0]["results"][0]["locations"][0]
        location["physicalLocation"]["artifactLocation"]["uri"] = "/abs/path.py"
        assert any("uri" in p for p in validate_sarif(doc))

    def test_validator_catches_missing_version(self):
        doc = render_sarif(self.findings())
        del doc["version"]
        assert any("version" in p for p in validate_sarif(doc))


class TestBaseline:
    def finding(self, line=3, message="bad thing"):
        return Finding(path="pkg/mod.py", line=line, col=0, code="RD401",
                       message=message)

    def test_round_trip_suppresses_known_findings(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline([self.finding()], path)
        new, baselined = apply_baseline([self.finding()], load_baseline(path))
        assert new == [] and len(baselined) == 1

    def test_new_findings_survive(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline([self.finding()], path)
        fresh = self.finding(message="different defect")
        new, _ = apply_baseline([self.finding(), fresh], load_baseline(path))
        assert new == [fresh]

    def test_fingerprints_ignore_line_numbers(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline([self.finding(line=3)], path)
        moved = self.finding(line=40)  # imports added above: pure motion
        new, baselined = apply_baseline([moved], load_baseline(path))
        assert new == [] and baselined == [moved]

    def test_load_normalises_foreign_paths(self, tmp_path):
        finding = self.finding()
        doc = {
            "version": 1,
            "count": 1,
            "findings": [{
                "fingerprint": "stale-or-wrong",
                "path": ".\\pkg\\mod.py",  # windows-captured baseline
                "code": finding.code,
                "message": finding.message,
            }],
        }
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(doc))
        assert finding_fingerprint(finding) in load_baseline(path)


def write_chain_project(root, n_extra=0):
    """``a -> b -> c`` import chain plus ``loner`` (and padding files)."""
    (root / "c.py").write_text(
        "def leaf(x):\n    return x == 0.5\n"
    )
    (root / "b.py").write_text(
        "import c\n\ndef mid(x):\n    return c.leaf(x)\n"
    )
    (root / "a.py").write_text(
        "import b\n\ndef top(x):\n    return b.mid(x)\n"
    )
    (root / "loner.py").write_text("def alone():\n    return 1\n")
    for i in range(n_extra):
        body = "\n".join(
            f"def fn_{i}_{j}(x):\n    y = x + {j}\n    return y\n"
            for j in range(20)
        )
        (root / f"pad_{i}.py").write_text(body + "\n")


class TestIncremental:
    def session(self, root):
        return lint_session(
            [root], LintConfig(root=root), cache_dir=root / ".cache"
        )

    def test_cold_then_warm(self, tmp_path):
        write_chain_project(tmp_path)
        cold_findings, cold = self.session(tmp_path)
        assert cold.misses == 4 and cold.hits == 0
        warm_findings, warm = self.session(tmp_path)
        assert warm.misses == 0 and warm.hits == 4
        assert warm_findings == cold_findings  # cached findings verbatim

    def test_touching_a_leaf_dirties_only_its_importers(self, tmp_path):
        write_chain_project(tmp_path)
        self.session(tmp_path)
        (tmp_path / "c.py").write_text(
            "def leaf(x):\n    return x == 0.25\n"
        )
        _, stats = self.session(tmp_path)
        assert sorted(stats.dirty) == ["a.py", "b.py", "c.py"]
        assert stats.hits == 1  # loner.py untouched

    def test_stats_render_mentions_counts(self, tmp_path):
        write_chain_project(tmp_path)
        _, stats = self.session(tmp_path)
        assert stats.render() == "incremental: 4/4 files re-analysed, 0 cached"
        assert stats.to_dict()["misses"] == 4

    def test_warm_run_parses_and_analyses_no_file(self, tmp_path, monkeypatch):
        """The cache's saving, counted rather than timed: the cold run
        parses and analyses each of the 16 files once, the warm run
        none of them."""
        from repro.analysis import runner

        calls = {"_parse": 0, "_file_findings": 0}
        for name in calls:

            def counting(*args, _real=getattr(runner, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(runner, name, counting)
        write_chain_project(tmp_path, n_extra=12)
        _, cold = self.session(tmp_path)
        assert cold.misses == 16
        assert calls == {"_parse": 16, "_file_findings": 16}
        _, warm = self.session(tmp_path)
        assert warm.misses == 0
        assert calls == {"_parse": 16, "_file_findings": 16}

    def test_corrupt_cache_degrades_to_cold_run(self, tmp_path):
        write_chain_project(tmp_path)
        self.session(tmp_path)
        cache_file = tmp_path / ".cache" / "reprolint-cache.json"
        cache_file.write_text("{not json")
        _, stats = self.session(tmp_path)
        assert stats.misses == 4


class TestDataflowCli:
    def run_main(self, argv, capsys):
        from repro.analysis.cli import main

        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def bad_file(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1 == 2.0\n")
        return bad

    def test_sarif_flag_writes_valid_report(self, tmp_path, monkeypatch, capsys):
        bad = self.bad_file(tmp_path)
        monkeypatch.chdir(tmp_path)
        out_file = tmp_path / "report.sarif"
        code, _, _ = self.run_main([str(bad), "--sarif", str(out_file)], capsys)
        assert code == 1
        doc = json.loads(out_file.read_text())
        assert validate_sarif(doc) == []
        assert doc["runs"][0]["results"][0]["ruleId"] == "RD201"

    def test_sarif_format_prints_document(self, tmp_path, monkeypatch, capsys):
        bad = self.bad_file(tmp_path)
        monkeypatch.chdir(tmp_path)
        code, out, _ = self.run_main([str(bad), "--format", "sarif"], capsys)
        assert code == 1
        assert json.loads(out)["version"] == "2.1.0"

    def test_baseline_cycle(self, tmp_path, monkeypatch, capsys):
        bad = self.bad_file(tmp_path)
        monkeypatch.chdir(tmp_path)
        baseline = tmp_path / "baseline.json"
        code, _, err = self.run_main(
            [str(bad), "--baseline", str(baseline), "--update-baseline"], capsys
        )
        assert code == 0 and "baseline updated" in err
        code, _, err = self.run_main(
            [str(bad), "--baseline", str(baseline)], capsys
        )
        assert code == 0  # the old debt no longer fails the run
        assert "1 finding suppressed" in err

    def test_incremental_flag_reports_stats(self, tmp_path, monkeypatch, capsys):
        self.bad_file(tmp_path)
        monkeypatch.chdir(tmp_path)
        code, _, err = self.run_main(["."], capsys)
        assert code == 1
        code, _, err = self.run_main([".", "--incremental"], capsys)
        assert code == 1 and "re-analysed" in err
        code, _, err = self.run_main([".", "--incremental"], capsys)
        assert code == 1 and "0/1" in err


class TestRegistryWiring:
    def test_dataflow_codes_are_registered(self):
        from repro.analysis import REGISTRY
        from repro.analysis.core import ProjectRule

        for code in DATAFLOW_CODES:
            assert code in REGISTRY
            assert isinstance(REGISTRY[code], ProjectRule)
