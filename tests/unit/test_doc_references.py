"""The hand-written docs, and the Sphinx-role cross-references in the
library's own docstrings and comments, name only modules, attributes,
files, CLI subcommands and CLI flags that exist."""

import argparse
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOCS = [ROOT / n for n in ("README.md", "DESIGN.md", "CONTRIBUTING.md", "EXPERIMENTS.md",
                           "examples/README.md")]
DOCS += [p for p in sorted((ROOT / "docs").glob("*.md")) if p.name != "API.md"]  # API.md is generated
SOURCES = sorted((ROOT / "src" / "repro").rglob("*.py"))
ROLE_REFERENCE = re.compile(r":(?:func|class|mod|meth|attr|data|exc):`[~!]?(repro(?:\.\w+)+)`")
#: `` `repro <cmd>` ``, a ``repro <cmd>`` line of a code block, or
#: ``python -m repro.cli <cmd>``.
SUBCOMMAND = re.compile(
    r"(?:`|^[ \t]*(?:\$[ \t]+)?)repro[ \t]+([a-z][\w-]*)"
    r"|python3? -m repro\.cli[ \t]+([a-z][\w-]*)",
    re.MULTILINE,
)
#: A ``--flag`` token.
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for k in range(len(parts), 0, -1):  # longest importable module prefix, then attributes
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ImportError:
            continue
        for attr in parts[k:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_doc_references_resolve(doc):
    text = doc.read_text()
    names = set(re.findall(r"`(repro(?:\.\w+)+)", text))
    paths = set(re.findall(r"src/repro/[\w/]+\.(?:py|c)\b", text)) | set(
        re.findall(r"`((?:tests|benchmarks|examples|scripts|perfbench)/[\w/.-]*?\.py)", text)
    )
    missing = [n for n in sorted(names) if not _resolves(n)]
    missing += [p for p in sorted(paths) if not (ROOT / p).is_file()]
    assert missing == []


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_role_references_resolve(source):
    names = set(ROLE_REFERENCE.findall(source.read_text()))
    assert [n for n in sorted(names) if not _resolves(n)] == []


def test_doc_subcommands_exist():
    from repro.cli import build_parser

    (subparsers,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    named, flags = set(), set()
    for doc in DOCS:
        text = doc.read_text()
        for match in SUBCOMMAND.finditer(text):
            where, command = str(doc.relative_to(ROOT)), match[1] or match[2]
            named.add((where, command))
            # The flags after the command on its line, up to the backtick
            # that closes an inline command.
            rest = text[match.end():].split("\n", 1)[0].split("`", 1)[0]
            flags.update((where, command, flag) for flag in FLAG.findall(rest))
    assert named  # the pattern still finds the docs' commands
    assert flags  # ... and their flags
    assert sorted(n for n in named if n[1] not in subparsers.choices) == []
    assert sorted(
        f for f in flags
        if f[1] in subparsers.choices
        and f[2] not in subparsers.choices[f[1]]._option_string_actions
    ) == []
