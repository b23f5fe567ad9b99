"""RD3xx — hygiene rules (plus RD106, the resilience-contract catch rule).

General Python failure modes that have outsized blast radius in a
numerical library: bare ``except`` swallowing ``KeyboardInterrupt`` and
real bugs, mutable default arguments shared across calls, ``print`` in
library code bypassing logging, and CLI handlers that surface raw
tracebacks instead of structured :mod:`repro.errors` exit codes.

RD106 lives here too despite its band number: broad ``except Exception``
handlers in library code silently swallow the resilience layer's control
exceptions (:class:`repro.errors.TimeoutExceeded`, ``MemoryError``,
injected faults), which defeats the degradation ladder and makes chaos
runs nondeterministic — hence the determinism-band code.
"""

from __future__ import annotations

import ast

from repro.analysis.core import FileContext, Rule, register

__all__ = [
    "BroadExceptRule",
    "BareExceptRule",
    "MutableDefaultRule",
    "PrintInLibraryRule",
    "UnroutedCliHandlerRule",
]


@register
class BroadExceptRule(Rule):
    """RD106: ``except Exception``/``except BaseException`` outside the
    resilience layer.

    The resilience layer signals through exceptions — ``TimeoutExceeded``
    and ``MemoryError`` drive the degradation ladder, and the chaos suite
    injects faults that must surface.  A broad catch anywhere else in the
    library absorbs those signals and turns a controlled degradation into
    a silent wrong path.
    Catch named exception types; where capture really is the job (e.g. a
    pool worker marshalling failures), suppress with
    ``# reprolint: disable=RD106 -- <why>``.  Bare ``except`` (broader
    still) is RD301.
    """

    code = "RD106"
    name = "broad-except"
    summary = (
        "except Exception/BaseException swallows resilience-layer control "
        "exceptions; catch named types"
    )

    scope_key = "library-paths"
    exempt_key = "resilience-exempt-paths"

    _BROAD = ("Exception", "BaseException")

    def _broad_names(self, type_node: ast.AST):
        """Yield the broad names appearing in an ``except`` type expression."""
        nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        for node in nodes:
            if isinstance(node, ast.Name) and node.id in self._BROAD:
                yield node.id

    def visit(self, ctx: FileContext):
        """Flag handlers whose type mentions ``Exception``/``BaseException``."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            for name in self._broad_names(node.type):
                yield ctx.finding(
                    node, self.code,
                    f"except {name} swallows TimeoutExceeded/MemoryError "
                    "and injected faults, defeating the degradation ladder; "
                    "catch named exception types",
                )


@register
class BareExceptRule(Rule):
    """RD301: bare ``except:`` clause."""

    code = "RD301"
    name = "bare-except"
    summary = "bare except catches SystemExit/KeyboardInterrupt; name the exception"

    def visit(self, ctx: FileContext):
        """Flag ``except:`` handlers with no exception type."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield ctx.finding(
                    node, self.code,
                    "bare except also catches SystemExit/KeyboardInterrupt; "
                    "catch a named exception (ReproError for library errors)",
                )


@register
class MutableDefaultRule(Rule):
    """RD302: mutable default argument values."""

    code = "RD302"
    name = "mutable-default-argument"
    summary = "list/dict/set default argument is shared across calls; use None"

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "dict", "set", "bytearray")
        )

    def visit(self, ctx: FileContext):
        """Flag function defaults that evaluate to mutable containers."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    yield ctx.finding(
                        default, self.code,
                        f"mutable default argument in {name}() is shared "
                        "across calls; default to None and construct inside",
                    )


@register
class PrintInLibraryRule(Rule):
    """RD303: ``print`` in library code (CLI front ends are exempt)."""

    code = "RD303"
    name = "print-in-library"
    summary = "print() in library code; use repro.util.log or return the text"

    scope_key = "library-paths"
    exempt_key = "print-exempt-paths"

    def visit(self, ctx: FileContext):
        """Flag ``print(...)`` calls."""
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield ctx.finding(
                    node, self.code,
                    "print() in library code; log via repro.util.log or "
                    "return the text to the caller",
                )


@register
class UnroutedCliHandlerRule(Rule):
    """RD304: CLI handler not routed through the structured-error layer.

    ``repro.cli`` handlers (``_cmd_*``) must be registered with the
    ``@cli_handler`` decorator so ``main()`` maps :mod:`repro.errors`
    exceptions to exit codes instead of surfacing raw tracebacks.
    """

    code = "RD304"
    name = "unrouted-cli-handler"
    summary = (
        "CLI handler function lacks the @cli_handler decorator and will "
        "surface raw tracebacks"
    )
    scope_key = "cli-paths"

    def visit(self, ctx: FileContext):
        """Flag ``_cmd_*`` functions without ``@cli_handler``."""
        module = ctx.tree
        if not isinstance(module, ast.Module):
            return
        for stmt in module.body:
            if not isinstance(stmt, ast.FunctionDef):
                continue
            if not stmt.name.startswith("_cmd_"):
                continue
            routed = False
            for deco in stmt.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                if isinstance(target, ast.Name) and target.id == "cli_handler":
                    routed = True
                if isinstance(target, ast.Attribute) and target.attr == "cli_handler":
                    routed = True
            if not routed:
                yield ctx.finding(
                    stmt, self.code,
                    f"{stmt.name}() is not registered via @cli_handler; "
                    "errors will escape as raw tracebacks",
                )
