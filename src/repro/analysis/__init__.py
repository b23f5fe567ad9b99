"""reprolint — codebase-specific static analysis for the repro library.

An AST-based lint pass enforcing the invariants this reproduction's
results depend on but Python cannot type-check: bit-deterministic
reordering (RD1xx), numerically safe index/value handling (RD2xx),
library hygiene (RD3xx), and the inter-procedural dataflow families
(RD4xx nondeterminism taint, RD5xx dtype propagation, RD6xx purity —
see :mod:`repro.analysis.dataflow` and ``docs/ANALYSIS.md``).
Configured through ``[tool.reprolint]`` in ``pyproject.toml``;
individual findings are silenced inline with
``# reprolint: disable=RD103 -- justification``.

Run it as ``repro lint src/ tests/`` or ``python -m repro.analysis``;
programmatic use::

    from repro.analysis import lint_paths, load_config
    findings = lint_paths(["src"], load_config())

The runtime complement is :mod:`repro.contracts`, which executes the same
``validate()`` / ``check_*`` machinery at function boundaries when
``REPRO_CONTRACTS=1``.
"""

from repro.analysis.config import DEFAULT_SCOPES, LintConfig, load_config
from repro.analysis.core import REGISTRY, Finding, ProjectRule, Rule, all_rules
from repro.analysis.report import render_json, render_text
from repro.analysis.runner import lint_paths, lint_session, lint_source

__all__ = [
    "Finding",
    "Rule",
    "ProjectRule",
    "REGISTRY",
    "all_rules",
    "LintConfig",
    "DEFAULT_SCOPES",
    "load_config",
    "lint_paths",
    "lint_source",
    "lint_session",
    "render_text",
    "render_json",
]
