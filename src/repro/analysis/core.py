"""Core types of the reprolint static-analysis pass.

A :class:`Rule` inspects one parsed file (via a :class:`FileContext`) and
yields :class:`Finding` objects.  Rules self-register into the module-level
:data:`REGISTRY` through the :func:`register` decorator; the runner iterates
the registry, applying each rule's path scoping before visiting.

Rule codes follow the ``RD<band><nn>`` convention documented in
CONTRIBUTING.md:

* ``RD1xx`` — determinism (seeding, ordered iteration, wall clocks),
* ``RD2xx`` — numerical safety (float equality, index narrowing, unchecked
  entry points),
* ``RD3xx`` — hygiene (bare except, mutable defaults, stray prints,
  unrouted CLI handlers),
* ``RD4xx``/``RD5xx``/``RD6xx`` — inter-procedural dataflow families
  (nondeterminism taint, dtype propagation, purity), implemented as
  :class:`ProjectRule` subclasses over a whole-project call graph (see
  :mod:`repro.analysis.dataflow`).

``RD001`` is reserved for files that fail to parse, and ``RD002`` for
inline suppressions that carry no ``-- justification``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "ProjectRule",
    "REGISTRY",
    "register",
    "all_rules",
    "PARSE_ERROR_CODE",
    "UNJUSTIFIED_SUPPRESSION_CODE",
]

#: Pseudo-rule code attached to files that fail :func:`ast.parse`.
PARSE_ERROR_CODE = "RD001"

#: Pseudo-rule code of an inline suppression with no ``-- justification``.
UNJUSTIFIED_SUPPRESSION_CODE = "RD002"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    Sortable by ``(path, line, col, code)`` so reports are stable across
    filesystem iteration orders.
    """

    path: str  #: file path as reported (posix, relative to the lint root)
    line: int  #: 1-based line number
    col: int  #: 0-based column offset
    code: str  #: rule code, e.g. ``"RD103"``
    message: str  #: human-readable description of the violation

    def to_dict(self) -> dict:
        """JSON-serialisable representation (used by the JSON reporter)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }

    def render(self) -> str:
        """The conventional one-line ``path:line:col: CODE message`` form."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class FileContext:
    """Everything a rule needs to inspect one file."""

    display: str  #: path used in findings (posix, relative to lint root)
    module_rel: str  #: package-relative path used for rule scoping
    tree: ast.AST  #: parsed module
    lines: list[str] = field(default_factory=list)  #: raw source lines
    config: object = None  #: the active :class:`~repro.analysis.config.LintConfig`

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``'s location."""
        return Finding(
            path=self.display,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
        )


class Rule:
    """Base class for reprolint rules.

    Subclasses set the class attributes and implement :meth:`visit`.
    ``scope_key`` / ``exempt_key`` name entries of the config's scope map
    (see :data:`repro.analysis.config.DEFAULT_SCOPES`): when ``scope_key``
    is set the rule only runs on files under one of those paths; when
    ``exempt_key`` is set, files under those paths are skipped.
    """

    code: str = ""  #: unique rule code (``RD...``)
    name: str = ""  #: short kebab-case rule name
    summary: str = ""  #: one-line description for ``--list-rules`` and docs
    scope_key: str | None = None  #: config scope limiting where the rule runs
    exempt_key: str | None = None  #: config scope exempting paths

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for ``ctx`` (subclass responsibility)."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for type checkers


class ProjectRule(Rule):
    """Base class for whole-project (inter-procedural) rules.

    Unlike per-file :class:`Rule` subclasses, a project rule sees every
    parsed file at once through a :class:`repro.analysis.dataflow.Project`
    and may follow calls across module boundaries.  Findings are still
    anchored to one file/line, and the runner applies path scoping and
    inline suppressions per finding (using the *finding's* file), so the
    configuration surface is identical to per-file rules.
    """

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        """Project rules do not run per-file; the runner calls :meth:`analyze`."""
        return iter(())

    def analyze(self, project) -> Iterator[Finding]:
        """Yield findings over a whole :class:`~repro.analysis.dataflow.Project`."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for type checkers


#: Global rule registry: code -> rule instance.
REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type) -> type:
    """Class decorator adding a rule (by instance) to :data:`REGISTRY`."""
    rule = rule_cls()
    if not rule.code:
        raise ValueError(f"rule {rule_cls.__name__} has no code")
    if rule.code in REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    REGISTRY[rule.code] = rule
    return rule_cls


def all_rules() -> Iterable[Rule]:
    """All registered rules, sorted by code."""
    return [REGISTRY[code] for code in sorted(REGISTRY)]
