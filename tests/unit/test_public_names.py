"""A public name needs a caller outside its own tests (CONTRIBUTING.md).

Every name in an ``__all__`` under ``src/repro`` must be read somewhere
in ``src/``, ``examples/``, ``benchmarks/``, ``perfbench/`` or
``scripts/``.  Only a load of the name (``name`` or ``obj.name``)
counts: an import, the name's own definition, an ``__all__`` entry and
a docstring do not.
"""

import ast
import fnmatch
from pathlib import Path

import pytest

from repro.analysis.core import REGISTRY

ROOT = Path(__file__).resolve().parents[2]
CALLER_DIRS = ("src", "examples", "benchmarks", "perfbench", "scripts")

#: CONTRIBUTING.md's exempt names: reference oracles, and the accessors
#: and harnesses through which tests observe, reset or drive
#: process-wide state.
EXEMPT = (
    "*_rowwise_reference", "assert_*_correct", "jaccard_rows",
    "pairwise_jaccard_dense", "spmm_tiled", "sddmm_tiled", "validate_sarif",
    "active_tracer", "uninstall_tracer", "active_injector",
    "contracts_enabled", "enable_contracts", "lint_source", "ServerThread",
)


def _exported() -> set:
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names.update(elt.value for elt in node.value.elts)
    return names


def _read_names() -> set:
    """Names loaded anywhere in the caller trees, own bodies excluded."""
    read = set()
    for top in CALLER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text())
            own = [
                (node.name, node.lineno, node.end_lineno)
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            ]
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if not any(n == name and a <= node.lineno <= b for n, a, b in own):
                    read.add(name)
    return read


@pytest.fixture(scope="module")
def uncalled() -> set:
    return _exported() - _read_names()


def _exempt(name: str) -> bool:
    if any(fnmatch.fnmatchcase(name, pattern) for pattern in EXEMPT):
        return True
    # A registered rule's caller is the registry; its module registers it.
    return any(
        name in (type(rule).__name__, type(rule).__module__.rsplit(".", 1)[-1])
        for rule in REGISTRY.values()
    )


def test_every_public_name_has_a_caller_outside_tests(uncalled):
    flagged = sorted(n for n in uncalled if not _exempt(n))
    assert flagged == [], "public names only tests reach; delete them or exempt them in CONTRIBUTING.md"


def test_exempt_names_are_the_ones_contributing_lists():
    contributing = (ROOT / "CONTRIBUTING.md").read_text()
    assert [p for p in EXEMPT if f"`{p}`" not in contributing] == []
