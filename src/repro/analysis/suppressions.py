"""Inline suppression comments.

A finding is suppressed by a trailing comment on its line::

    x = frozen_set_iteration()  # reprolint: disable=RD103 -- order irrelevant here

Multiple codes are comma-separated (``disable=RD103,RD201``).  Everything
after ``--`` is the *justification*, and every suppression must carry
one: the runner reports each one :func:`unjustified` lists as an
``RD002`` finding (the suppressed finding itself stays suppressed).

Decorated definitions get span attribution: a suppression written on any
line of the declaration header — the first decorator line through the
``def``/``class`` signature — covers the whole header.  Rules anchor
function-level findings at the ``def`` line while authors naturally hang
the comment off the decorator (or vice versa); before
:func:`expand_decorated_spans` the two could silently miss each other.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

__all__ = [
    "Suppression",
    "collect_suppressions",
    "expand_decorated_spans",
    "unjustified",
]

_PATTERN = re.compile(
    r"#\s*reprolint:\s*disable=(?P<codes>[A-Z0-9_,\s]+?)"
    r"(?:\s*--\s*(?P<why>.*\S))?\s*$"
)


@dataclass(frozen=True)
class Suppression:
    """One inline suppression: the codes disabled on a line and its reason."""

    line: int  #: 1-based line number the suppression applies to
    codes: frozenset  #: rule codes disabled on that line
    justification: str  #: text after ``--`` (empty when absent)


def collect_suppressions(lines) -> dict[int, Suppression]:
    """Parse ``lines`` (raw source) into a line-number -> suppression map."""
    out: dict[int, Suppression] = {}
    for number, text in enumerate(lines, start=1):
        match = _PATTERN.search(text)
        if match is None:
            continue
        codes = frozenset(
            code.strip() for code in match.group("codes").split(",") if code.strip()
        )
        if codes:
            out[number] = Suppression(number, codes, match.group("why") or "")
    return out


def expand_decorated_spans(
    suppressions: dict[int, Suppression], tree: ast.AST
) -> dict[int, Suppression]:
    """Attribute header suppressions to the full decorated-definition span.

    For every decorated ``def``/``class`` the header span runs from the
    first decorator line to the line before the first body statement.  A
    suppression on any line of that span is copied to every other line of
    the span (codes merged where lines already carry one), so a comment on
    the decorator suppresses a finding anchored at the ``def`` line and
    vice versa.  Lines outside decorated headers are returned unchanged.
    """
    out = dict(suppressions)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.decorator_list or not node.body:
            continue
        start = min(dec.lineno for dec in node.decorator_list)
        stop = node.body[0].lineno - 1  # header ends before the body
        span = range(start, stop + 1)
        in_span = [suppressions[n] for n in span if n in suppressions]
        if not in_span:
            continue
        codes = frozenset().union(*(s.codes for s in in_span))
        why = "; ".join(sorted({s.justification for s in in_span if s.justification}))
        for line in span:
            existing = out.get(line)
            if existing is not None and existing not in in_span:
                merged = existing.codes | codes
                merged_why = existing.justification or why
                out[line] = Suppression(line, merged, merged_why)
            else:
                out[line] = Suppression(line, codes, why)
    return out


def unjustified(suppressions: dict[int, Suppression]) -> list[Suppression]:
    """The suppressions lacking a ``-- justification`` clause."""
    return [s for s in suppressions.values() if not s.justification]
