"""RD1xx (cont.) — hot-path allocation and event-loop rules.

The workspace-pool layer (:mod:`repro.util.workspace`) exists so kernel
scratch proportional to the number of stored non-zeros is leased and
reused instead of re-allocated on every call — the steady-state serving
path depends on it.  RD105 keeps that property from silently eroding: a
fresh ``np.zeros``/``np.empty`` of nnz-proportional size inside a kernel
that offers no ``workspace`` parameter re-introduces exactly the per-call
allocation the pool removed.  Reference oracles (which deliberately
mirror the paper's pseudocode, allocations included) carry justified
inline suppressions.

RD109 guards the same pool from the other side: ``Workspace.scratch``
keeps every block it hands out until the lease ends, so a scratch call
inside a loop body holds one block per iteration at once — a pooled
per-panel loop that looks bounded in fact peaks at the sum of every
panel's buffers.  Lease once before the loop, sized to the largest
iteration, and slice.

RD108 protects the serving layer's event loop: one asyncio loop owns
every connection of :mod:`repro.serve`, so a single blocking call inside
an ``async def`` — ``time.sleep``, synchronous file IO, a subprocess
wait — stalls *all* tenants at once, exactly the head-of-line blocking
the admission controller exists to prevent.  Blocking work belongs on
the executor (``loop.run_in_executor``) or behind the asyncio
equivalents (``asyncio.sleep``, stream APIs).
"""

from __future__ import annotations

import ast

from repro.analysis.core import FileContext, Rule, register

__all__ = ["NnzScratchAllocationRule", "ScratchInLoopRule", "AsyncBlockingCallRule"]

#: Allocation constructors the rule watches.
_ALLOCATORS = {"zeros", "empty"}


def _mentions_nnz(node: ast.AST) -> bool:
    """True when the expression references ``nnz`` (name or attribute)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "nnz":
            return True
        if isinstance(sub, ast.Name) and sub.id == "nnz":
            return True
    return False


def _is_nnz_allocation(node: ast.Call) -> bool:
    """``np.zeros``/``np.empty`` whose shape expression mentions ``nnz``."""
    func = node.func
    if not (
        isinstance(func, ast.Attribute)
        and func.attr in _ALLOCATORS
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    ):
        return False
    shape = node.args[0] if node.args else None
    if shape is None:
        for kw in node.keywords:
            if kw.arg == "shape":
                shape = kw.value
                break
    return shape is not None and _mentions_nnz(shape)


@register
class NnzScratchAllocationRule(Rule):
    """RD105: per-call nnz-proportional scratch in workspace-less kernels.

    Flags ``np.zeros``/``np.empty`` calls whose size expression mentions
    ``nnz`` inside a kernel function that (itself or via an enclosing
    function) accepts no ``workspace`` parameter.  Such scratch is the
    exact allocation the workspace pool exists to amortise; either thread
    ``workspace=`` through the function and lease the buffer, or carry a
    justified suppression (reference oracles do).
    """

    code = "RD105"
    name = "nnz-scratch-without-workspace"
    summary = (
        "per-call np.zeros/np.empty of nnz-proportional scratch in a kernel "
        "without a workspace parameter; lease it from repro.util.workspace"
    )
    scope_key = "workspace-scratch-paths"

    @staticmethod
    def _has_workspace_param(fn: ast.AST) -> bool:
        args = fn.args
        every = (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        )
        return any(arg.arg == "workspace" for arg in every)

    def _walk(self, ctx: FileContext, node: ast.AST, pooled: bool):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pooled = pooled or self._has_workspace_param(node)
        elif (
            not pooled
            and isinstance(node, ast.Call)
            and _is_nnz_allocation(node)
        ):
            yield ctx.finding(
                node, self.code,
                "nnz-proportional scratch allocated per call; accept a "
                "workspace parameter and lease the buffer from "
                "repro.util.workspace instead",
            )
        for child in ast.iter_child_nodes(node):
            yield from self._walk(ctx, child, pooled)

    def visit(self, ctx: FileContext):
        """Flag nnz-sized allocations outside workspace-threaded code.

        Module-level allocations are ignored: they run once at import,
        not per kernel call.
        """
        for top in ast.iter_child_nodes(ctx.tree):
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from self._walk(ctx, top, False)


@register
class ScratchInLoopRule(Rule):
    """RD109: workspace scratch leased inside a loop body.

    Flags a ``<x>.scratch(...)`` call in the body of a ``for`` or
    ``while`` statement of the same function.  A leased block stays held
    until the lease ends, so such a loop holds every iteration's block at
    once.  Comprehensions are not flagged, and neither are nested
    ``def``/``lambda`` bodies (they are not run by the loop itself).
    """

    code = "RD109"
    name = "scratch-leased-in-loop"
    summary = (
        "workspace scratch leased inside a loop is held until the lease "
        "ends; lease before the loop and slice"
    )
    scope_key = "workspace-scratch-paths"

    def _walk(self, ctx: FileContext, node: ast.AST, in_loop: bool):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            in_loop = False
        elif (
            in_loop
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "scratch"
        ):
            yield ctx.finding(
                node, self.code,
                "workspace scratch leased inside a loop stays held until "
                "the lease ends; lease before the loop and slice",
            )
        # Only the body repeats: a loop's header and else-clause run once.
        body = node.body if isinstance(node, (ast.For, ast.AsyncFor, ast.While)) else ()
        for child in ast.iter_child_nodes(node):
            yield from self._walk(ctx, child, in_loop or child in body)

    def visit(self, ctx: FileContext):
        """Flag scratch leases lexically inside loop bodies."""
        yield from self._walk(ctx, ctx.tree, False)


#: ``module.attr`` call targets that block the calling thread.
_BLOCKING_MODULE_CALLS = {
    ("time", "sleep"),
    ("io", "open"),
    ("os", "system"),
    ("subprocess", "run"),
    ("subprocess", "call"),
    ("subprocess", "check_call"),
    ("subprocess", "check_output"),
    ("subprocess", "Popen"),
    ("socket", "create_connection"),
    ("shutil", "copy"),
    ("shutil", "copy2"),
    ("shutil", "copytree"),
    ("shutil", "rmtree"),
}

#: Method names that are synchronous file IO wherever they appear
#: (``Path.read_text`` and friends); scoped to attribute calls so a
#: local helper named ``read_text`` still flags — in an async frame it
#: is equally suspect.
_BLOCKING_METHODS = {
    "read_text",
    "read_bytes",
    "write_text",
    "write_bytes",
}


def _blocking_call_name(node: ast.Call) -> str | None:
    """The dotted name of a blocking call, or ``None``."""
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "open"
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name):
            pair = (func.value.id, func.attr)
            if pair in _BLOCKING_MODULE_CALLS:
                return f"{pair[0]}.{pair[1]}"
        if func.attr in _BLOCKING_METHODS:
            return f"<expr>.{func.attr}"
    return None


@register
class AsyncBlockingCallRule(Rule):
    """RD108: blocking calls inside ``async def`` on serve paths.

    Flags ``time.sleep``, synchronous file IO (``open``,
    ``Path.read_text``/``write_bytes``/...), subprocess invocations and
    other thread-blocking calls lexically inside an ``async def`` body.
    Nested *synchronous* ``def``s are excluded — they are exactly what
    gets shipped to ``loop.run_in_executor``, where blocking is fine.
    """

    code = "RD108"
    name = "blocking-call-in-async"
    summary = (
        "blocking call inside async def stalls the entire event loop; use "
        "the asyncio equivalent or move it to loop.run_in_executor"
    )
    scope_key = "async-blocking-paths"

    def _walk(self, ctx: FileContext, node: ast.AST, in_async: bool):
        if isinstance(node, ast.AsyncFunctionDef):
            in_async = True
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            # A nested sync function is executor-bound, not loop-bound.
            in_async = False
        elif in_async and isinstance(node, ast.Call):
            name = _blocking_call_name(node)
            if name is not None:
                yield ctx.finding(
                    node, self.code,
                    f"{name} blocks the event loop for every connection; "
                    "await the asyncio equivalent or dispatch through "
                    "loop.run_in_executor",
                )
        for child in ast.iter_child_nodes(node):
            yield from self._walk(ctx, child, in_async)

    def visit(self, ctx: FileContext):
        """Flag blocking calls reachable from async frames in this file."""
        yield from self._walk(ctx, ctx.tree, False)
