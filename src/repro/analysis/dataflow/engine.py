"""The dataflow driver: project assembly, summary fixpoint, reporting.

A :class:`Project` owns the parsed modules, the
:class:`~repro.analysis.dataflow.callgraph.CallGraph` over them, and the
per-function summaries of the three analyses.  Summaries are computed
optimistically (empty/pure/bottom) and iterated to a least fixpoint over
the call graph, so mutual recursion converges; the purity analysis needs
no fixpoint because transitivity is resolved lazily through
:meth:`~repro.analysis.dataflow.purity.PurityAnalysis.impurity_chain`.

Cache-restored modules participate without ASTs: their function lists,
summaries and contract references are deserialised from the incremental
cache, and only parsed modules are (re-)reported on.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding
from repro.analysis.dataflow.callgraph import CallGraph, FunctionInfo, \
    ModuleInfo, module_name_for, parse_module
from repro.analysis.dataflow.cfg import BIND, build_cfg
from repro.analysis.dataflow.dtypes import DtypeAnalysis, DtypeSummary
from repro.analysis.dataflow.purity import (
    CONTRACT_CODE,
    FAULT_CODE,
    PurityAnalysis,
    PuritySummary,
)
from repro.analysis.dataflow.taint import TaintAnalysis, TaintSummary

__all__ = ["Project", "build_project", "DATAFLOW_CODES"]

#: Every code the project rules can emit (the runner uses this to decide
#: whether building a project is needed at all).
DATAFLOW_CODES = ("RD401", "RD402", "RD501", CONTRACT_CODE, FAULT_CODE)

#: Upper bound on summary fixpoint rounds (converges in 2-4 in practice).
_MAX_ROUNDS = 12


class Project:
    """All parsed modules plus cached stubs, ready for analysis."""

    def __init__(self, modules, cached=None):
        self.modules: dict[str, ModuleInfo] = modules
        self.cached = cached or {}  # module name -> serialised module data
        self._install_stubs()
        self.callgraph = CallGraph(self.modules)
        self._summaries: dict[str, dict] = {"taint": {}, "dtype": {}, "purity": {}}
        self._results: dict[str, list] | None = None
        self.taint = TaintAnalysis(self.callgraph, self.get_summary)
        self.dtypes = DtypeAnalysis(self.callgraph, self.get_summary)
        self.purity = PurityAnalysis(self.callgraph, self.get_summary)

    # -- cached-module stubs ------------------------------------------------

    def _install_stubs(self) -> None:
        for name, data in self.cached.items():
            if name in self.modules:
                continue  # parsed version wins
            stub = ModuleInfo(
                name=name,
                display=data.get("display", name),
                module_rel=data.get("module_rel", name),
                tree=None,
            )
            for qualname, fdata in data.get("functions", {}).items():
                stub.functions[qualname] = FunctionInfo(
                    key=f"{name}:{qualname}",
                    module=name,
                    qualname=qualname,
                    node=None,
                    params=list(fdata.get("params", ())),
                    class_name=qualname.split(".")[0] if "." in qualname else None,
                    display=stub.display,
                )
            self.modules[name] = stub

    def get_summary(self, kind: str, key: str):
        """Summary lookup for the analyses (fresh first, then cached)."""
        fresh = self._summaries[kind].get(key)
        if fresh is not None:
            return fresh
        module, _, qualname = key.partition(":")
        fdata = self.cached.get(module, {}).get("functions", {}).get(qualname)
        if fdata is None:
            return None
        loader = {
            "taint": TaintSummary, "dtype": DtypeSummary, "purity": PuritySummary,
        }[kind]
        raw = fdata.get(kind)
        return loader.from_dict(raw) if raw is not None else None

    # -- summaries ----------------------------------------------------------

    def _parsed_functions(self):
        for name in sorted(self.modules):
            module = self.modules[name]
            if module.tree is None:
                continue
            for qualname in sorted(module.functions):
                fn = module.functions[qualname]
                if fn.node is not None:
                    yield fn, module

    def compute_summaries(self) -> None:
        """Run the summary fixpoint over all parsed functions.

        Purity participates in the same fixpoint as taint and dtype:
        its alias tracking reads callee taint passthrough sets, so it
        must be re-run as those stabilise.
        """
        kinds = (("taint", self.taint), ("dtype", self.dtypes),
                 ("purity", self.purity))
        for _ in range(_MAX_ROUNDS):
            changed = False
            for fn, module in self._parsed_functions():
                for kind, analysis in kinds:
                    new = analysis.summarize(fn, module)
                    old = self._summaries[kind].get(fn.key)
                    if old is None or old.key() != new.key():
                        self._summaries[kind][fn.key] = new
                        changed = True
            if not changed:
                break

    # -- reporting ----------------------------------------------------------

    def results(self) -> dict[str, list]:
        """Findings per rule code, over the parsed modules (memoised)."""
        if self._results is not None:
            return self._results
        self.compute_summaries()
        findings: dict[str, list] = {code: [] for code in DATAFLOW_CODES}
        seen: set = set()

        def emitter(module):
            def emit(node, code, message):
                finding = Finding(
                    path=module.display,
                    line=getattr(node, "lineno", 1) or 1,
                    col=getattr(node, "col_offset", 0) or 0,
                    code=code,
                    message=message,
                )
                if finding not in seen:
                    seen.add(finding)
                    findings.setdefault(code, []).append(finding)
            return emit

        for fn, module in self._parsed_functions():
            emit = emitter(module)
            self.taint.report(fn, module, emit)
            self.dtypes.report(fn, module, emit)
        self._report_contract_targets(findings, seen)
        self._report_fault_sites(findings, seen)
        self._results = findings
        return findings

    # -- RD601: contract-target purity --------------------------------------

    def contract_refs(self) -> tuple[set, set]:
        """``(target keys, target method names)`` referenced project-wide."""
        keys: set = set()
        method_names: set = set()
        for module in self.modules.values():
            if module.tree is None:
                data = self.cached.get(module.name, {})
                keys.update(data.get("contract_keys", ()))
                method_names.update(data.get("contract_methods", ()))
                continue
            fresh_keys, fresh_methods = _module_contract_refs(self.callgraph, module)
            keys.update(fresh_keys)
            method_names.update(fresh_methods)
        return keys, method_names

    def _report_contract_targets(self, findings, seen) -> None:
        keys, method_names = self.contract_refs()
        for name in method_names:
            keys.update(self.callgraph.methods_by_name.get(name, ()))
        for key in sorted(keys):
            fn = self.callgraph.functions.get(key)
            if fn is None or fn.node is None:
                continue  # cached module: its findings are cached too
            chain = self.purity.impurity_chain(key)
            if chain is None:
                continue
            finding = Finding(
                path=fn.display,
                line=fn.node.lineno,
                col=fn.node.col_offset,
                code=CONTRACT_CODE,
                message=(
                    f"contract target {fn.qualname}() must be observably pure "
                    f"(REPRO_CONTRACTS toggling must not change results): {chain}"
                ),
            )
            if finding not in seen:
                seen.add(finding)
                findings[CONTRACT_CODE].append(finding)

    # -- RD602: purity before fault points ----------------------------------

    def _report_fault_sites(self, findings, seen) -> None:
        for fn, module in self._parsed_functions():
            fault_calls = _fault_calls(self.callgraph, fn, module)
            if not fault_calls:
                continue
            effects = self.purity.effects_of(fn, module)
            if not effects:
                continue
            # Path-sensitive ordering over the CFG: an effect "precedes"
            # a fault point only if some execution path runs the effect
            # and then reaches the fault — an early-return branch that
            # bumps a counter does not poison a fault probe it can never
            # fall through to.
            cfg = build_cfg(fn.node)
            positions = _position_index(cfg)
            reach = cfg.reachable_from()
            for fault_node, site in fault_calls:
                fault_pos = positions.get(id(fault_node))
                for node, reason in effects:
                    if not _precedes(
                        positions.get(id(node)), fault_pos, reach, node, fault_node
                    ):
                        continue
                    self._emit_fault(findings, seen, fn, node, site, reason)

    def _emit_fault(self, findings, seen, fn, node, site, reason) -> None:
        finding = Finding(
            path=fn.display,
            line=getattr(node, "lineno", 1) or 1,
            col=getattr(node, "col_offset", 0) or 0,
            code=FAULT_CODE,
            message=(
                f"observable side effect before fault_point({site!r}): {reason} "
                "— a fired fault would leave partial state behind"
            ),
        )
        if finding not in seen:
            seen.add(finding)
            findings[FAULT_CODE].append(finding)


def _module_contract_refs(callgraph, module) -> tuple[set, set]:
    """Contract-target refs made by one parsed module's decorations."""
    keys: set = set()
    methods: set = set()
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            if _callable_name(decorator.func) != "checked":
                continue
            for arg in decorator.args:
                if isinstance(arg, (ast.Name, ast.Attribute)):
                    resolved = callgraph.resolve(module, arg)
                    if resolved is not None and resolved[0] == "internal":
                        keys.add(resolved[1])
                elif isinstance(arg, ast.Call):
                    factory = _callable_name(arg.func)
                    if factory == "validates":
                        methods.add("validate")
                    elif factory == "invokes" and arg.args:
                        first = arg.args[0]
                        if isinstance(first, ast.Constant) and isinstance(first.value, str):
                            methods.add(first.value)
    return keys, methods


def _position_index(cfg) -> dict:
    """``id(ast node) -> (block id, item index)`` for every CFG node.

    ``For`` headers index only their target/iter (the loop body lives in
    its own blocks); every other item indexes its full subtree.
    """
    positions: dict = {}
    for block in cfg.blocks:
        for index, (kind, node) in enumerate(block.items):
            if kind == BIND:
                subs = [*ast.walk(node.target), *ast.walk(node.iter)]
            else:
                subs = ast.walk(node)
            for sub in subs:
                positions.setdefault(id(sub), (block.id, index))
    return positions


def _precedes(effect_pos, fault_pos, reach, effect_node, fault_node) -> bool:
    """Whether some path runs the effect and then reaches the fault."""
    if effect_pos is None or fault_pos is None:
        # Node not in the CFG (should not happen): lexical fallback.
        return getattr(effect_node, "lineno", 0) < fault_node.lineno
    eblock, eindex = effect_pos
    fblock, findex = fault_pos
    if eblock == fblock:
        # Same block: program order, or a loop carrying the effect back
        # around to the fault on the next iteration.
        return eindex < findex or eblock in reach.get(eblock, ())
    return fblock in reach.get(eblock, ())


def _fault_calls(callgraph, fn, module):
    """``(call node, site name)`` for every ``fault_point`` call in ``fn``."""
    out = []
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        name = _callable_name(node.func)
        if name != "fault_point":
            continue
        site = "?"
        if node.args and isinstance(node.args[0], ast.Constant):
            site = str(node.args[0].value)
        out.append((node, site))
    return out


def _callable_name(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def serialize_module(project: Project, module: ModuleInfo) -> dict:
    """Cacheable form of a parsed module: functions, summaries, refs."""
    functions = {}
    for qualname, fn in module.functions.items():
        entry: dict = {"params": list(fn.params)}
        for kind in ("taint", "dtype", "purity"):
            summary = project.get_summary(kind, fn.key)
            if summary is not None:
                entry[kind] = summary.to_dict()
        functions[qualname] = entry
    keys, methods = _module_contract_refs(project.callgraph, module)
    return {
        "display": module.display,
        "module_rel": module.module_rel,
        "functions": functions,
        "contract_keys": sorted(keys),
        "contract_methods": sorted(methods),
    }


def build_project(contexts, cached=None) -> Project:
    """Assemble a :class:`Project` from runner :class:`FileContext` objects.

    ``contexts`` supply ``display``/``module_rel``/``tree``/``lines``;
    ``cached`` maps module names to serialised module data (stubs for
    files the incremental mode did not re-parse).
    """
    modules: dict[str, ModuleInfo] = {}
    for ctx in contexts:
        name = module_name_for(ctx.module_rel)
        modules[name] = parse_module(
            name, ctx.display, ctx.module_rel, ctx.tree, list(ctx.lines)
        )
    return Project(modules, cached=cached)
