"""RD4xx — taint analysis for nondeterminism.

Sources are the expressions whose value differs between runs or machines:
clock reads, unseeded RNG, ``os.urandom``/``uuid``, ``id()``, and
set/dict iteration order (dict *insertion* order is deterministic per
run, but content-addressed fingerprints must be stable across
construction paths, so unsorted iteration feeding a digest is a bug).

Taint propagates through assignments, arithmetic, f-strings, container
writes (storing into ``d[k]`` taints ``d``), and — the point of this
module — across function boundaries: every function gets a
:class:`TaintSummary` (intrinsic taint of its return value, parameters
that pass through to the return, parameters that reach a sink inside),
computed to a fixpoint over the call graph.

Sinks:

* **RD401** — content hashes and plan fingerprints: anything resolved
  into :mod:`repro.util.hashing` or :mod:`repro.planstore.fingerprint`,
  plus ``hashlib``/``zlib`` digest constructors.  A nondeterministic
  value here silently changes cache keys between runs.
* **RD402** — generated kernels: source handed to ``exec``/``compile``/
  ``eval`` (how a JIT backend builds its kernels) and values *returned*
  from ``repro.kernels`` code (the kernel output itself).

``sorted(...)`` and ``np.sort`` are order sanitisers: they strip the
iteration-order labels (but not value taint like clock reads).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.dataflow.cfg import BIND, TEST, build_cfg, solve_forward

__all__ = ["TaintSummary", "TaintAnalysis", "HASH_SINK_CODE", "KERNEL_SINK_CODE"]

HASH_SINK_CODE = "RD401"
KERNEL_SINK_CODE = "RD402"

#: External callables whose return value is nondeterministic.
_SOURCE_CALLS = {
    "time.time": "time.time()", "time.time_ns": "time.time_ns()",
    "time.monotonic": "time.monotonic()", "time.monotonic_ns": "time.monotonic_ns()",
    "time.perf_counter": "time.perf_counter()",
    "time.perf_counter_ns": "time.perf_counter_ns()",
    "time.process_time": "time.process_time()",
    "time.process_time_ns": "time.process_time_ns()",
    "datetime.datetime.now": "datetime.now()",
    "datetime.datetime.utcnow": "datetime.utcnow()",
    "datetime.datetime.today": "datetime.today()",
    "os.urandom": "os.urandom()",
    "uuid.uuid1": "uuid.uuid1()", "uuid.uuid4": "uuid.uuid4()",
    "secrets.token_bytes": "secrets.token_bytes()",
    "secrets.token_hex": "secrets.token_hex()",
}

#: ``random.<fn>`` module-level calls all read hidden global state.
_RANDOM_MODULES = ("random.", "numpy.random.")

#: Order-dependence labels stripped by ``sorted(...)``.
_ORDER_LABELS = {"set iteration order", "dict iteration order"}

#: Sink tables: resolved internal module -> (code, description).
_SINK_MODULES = {
    "repro.util.hashing": (HASH_SINK_CODE, "content hash (repro.util.hashing)"),
    "repro.planstore.fingerprint": (HASH_SINK_CODE, "plan fingerprint"),
}

#: External digest constructors treated as hash sinks.
_HASH_CALLS = {
    "hashlib.md5", "hashlib.sha1", "hashlib.sha256", "hashlib.sha512",
    "hashlib.blake2b", "hashlib.blake2s", "hashlib.new",
    "zlib.crc32", "zlib.adler32",
}

#: Builtins feeding generated code.
_CODEGEN_BUILTINS = {"exec", "compile", "eval"}


@dataclass
class TaintSummary:
    """Serialisable inter-procedural taint facts for one function."""

    intrinsic: frozenset = frozenset()  #: labels always tainting the return
    passthrough: frozenset = frozenset()  #: params whose taint reaches the return
    param_sinks: dict = field(default_factory=dict)  #: param -> (code, sink desc)

    def to_dict(self) -> dict:
        """JSON form for the incremental cache."""
        return {
            "intrinsic": sorted(self.intrinsic),
            "passthrough": sorted(self.passthrough),
            "param_sinks": {k: list(v) for k, v in sorted(self.param_sinks.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TaintSummary":
        """Inverse of :meth:`to_dict`."""
        return cls(
            intrinsic=frozenset(data.get("intrinsic", ())),
            passthrough=frozenset(data.get("passthrough", ())),
            param_sinks={
                k: tuple(v) for k, v in data.get("param_sinks", {}).items()
            },
        )

    def key(self):
        """Hashable identity used for fixpoint change detection."""
        return (self.intrinsic, self.passthrough, tuple(sorted(self.param_sinks.items())))


def _label(item) -> bool:
    return item[0] == "src"


class TaintAnalysis:
    """Summary-based taint propagation over a project call graph.

    Taint items are ``("src", label)`` for real sources and
    ``("param", name)`` for symbolic parameter taint (used while
    summarising).  ``get_summary(key)`` supplies callee summaries —
    freshly computed or restored from the incremental cache.
    """

    def __init__(self, callgraph, get_summary):
        self.callgraph = callgraph
        self.get_summary = get_summary

    # -- driver entry points ------------------------------------------------

    def summarize(self, fn, module) -> TaintSummary:
        """Compute ``fn``'s summary using current callee summaries."""
        state = _FnState(self, fn, module, emit=None)
        state.run()
        return state.summary()

    def report(self, fn, module, emit) -> None:
        """Re-run ``fn`` emitting sink findings through ``emit``."""
        state = _FnState(self, fn, module, emit=emit)
        state.run()
        state.report_kernel_returns()


class _FnState:
    """One function's CFG evaluation (shared by summary and report modes)."""

    def __init__(self, analysis, fn, module, emit):
        self.analysis = analysis
        self.fn = fn
        self.module = module
        self.emit = emit
        self.return_taint: frozenset = frozenset()
        self.param_sinks: dict = {}
        self.tainted_returns: list = []  # (node, labels) for RD402 on kernels

    def run(self) -> None:
        cfg = build_cfg(self.fn.node)
        init = {p: frozenset({("param", p)}) for p in self.fn.params}

        def transfer(kind, node, env):
            return self.transfer(kind, node, dict(env))

        def join(a, b, succ):
            merged = dict(a)
            for var, taint in b.items():
                merged[var] = merged.get(var, frozenset()) | taint
            return merged

        solve_forward(cfg, init, transfer, join)

    def summary(self) -> TaintSummary:
        intrinsic = frozenset(i[1] for i in self.return_taint if _label(i))
        passthrough = frozenset(i[1] for i in self.return_taint if i[0] == "param")
        return TaintSummary(intrinsic, passthrough, dict(self.param_sinks))

    # -- statement transfer -------------------------------------------------

    def transfer(self, kind, node, env):
        if kind == TEST:
            self.eval(node, env)
            return env
        if kind == BIND:  # For header: target bound from iter
            taint = self.eval(node.iter, env) | self.iteration_order_taint(node.iter)
            self.bind(node.target, taint, env)
            return env
        stmt = node
        if isinstance(stmt, ast.Assign):
            taint = self.eval(stmt.value, env)
            for target in stmt.targets:
                self.bind(target, taint, env)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self.bind(stmt.target, self.eval(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            taint = self.eval(stmt.value, env)
            root = _root_name(stmt.target)
            if root is not None:
                env[root] = env.get(root, frozenset()) | taint
        elif isinstance(stmt, ast.Return):
            taint = frozenset()
            if stmt.value is not None:
                taint = self.eval(stmt.value, env)
            self.return_taint |= taint
            labels = frozenset(i[1] for i in taint if _label(i))
            if labels:
                self.tainted_returns.append((stmt, labels))
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
        elif isinstance(stmt, (ast.Assert, ast.Raise)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child, env)
        return env

    def bind(self, target, taint, env):
        if isinstance(target, ast.Name):
            env[target.id] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.bind(elt, taint, env)
        else:
            # Container/attribute write: the *root* accumulates the taint
            # (storing a timestamp into d["t"] taints d).
            root = _root_name(target)
            if root is not None:
                env[root] = env.get(root, frozenset()) | taint

    # -- expression evaluation ----------------------------------------------

    def eval(self, node, env) -> frozenset:
        if isinstance(node, ast.Name):
            return env.get(node.id, frozenset())
        if isinstance(node, ast.Constant):
            return frozenset()
        if isinstance(node, ast.Call):
            return self.eval_call(node, env)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = frozenset()
            for elt in node.elts:
                out |= self.eval(elt, env)
            return out
        if isinstance(node, ast.Dict):
            out = frozenset()
            for key in node.keys:
                if key is not None:
                    out |= self.eval(key, env)
            for value in node.values:
                out |= self.eval(value, env)
            return out
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            out = frozenset()
            for gen in node.generators:
                out |= self.eval(gen.iter, env) | self.iteration_order_taint(gen.iter)
                self.bind(gen.target, out, env)
            if isinstance(node, ast.DictComp):
                out |= self.eval(node.key, env) | self.eval(node.value, env)
            else:
                out |= self.eval(node.elt, env)
            return out
        # Generic: union over child expressions (BinOp, BoolOp, Compare,
        # Subscript, Attribute, JoinedStr, IfExp, Starred, UnaryOp, ...).
        out = frozenset()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self.eval(child, env)
        return out

    def eval_call(self, node, env) -> frozenset:
        resolved = self.analysis.callgraph.resolve(
            self.module, node.func, class_name=self.fn.class_name
        )
        arg_taints = [self.eval(a, env) for a in node.args]
        kw_taints = {k.arg: self.eval(k.value, env) for k in node.keywords}
        all_args = frozenset().union(frozenset(), *arg_taints, *kw_taints.values())
        func_taint = self.eval(node.func, env)  # higher-order values stay sticky

        if resolved is not None and resolved[0] == "builtin":
            name = resolved[1]
            if name == "id":
                return frozenset({("src", "id()")})
            if name == "sorted":
                return frozenset(
                    i for i in all_args if not (_label(i) and i[1] in _ORDER_LABELS)
                )
            if name in _CODEGEN_BUILTINS:
                self.sink_check(node, arg_taints, kw_taints,
                                KERNEL_SINK_CODE, f"{name}() of generated code")
                return all_args
            return all_args | func_taint

        if resolved is not None and resolved[0] == "external":
            dotted = resolved[1]
            # A sink module may resolve as external when it is not part of
            # the current project (e.g. single-file lint of a caller).
            mod, _, attr = dotted.rpartition(".")
            sink = _SINK_MODULES.get(mod)
            if sink is not None:
                self.sink_check(node, arg_taints, kw_taints, sink[0],
                                f"{sink[1]} via {attr}()")
            if dotted in _SOURCE_CALLS:
                return all_args | {("src", _SOURCE_CALLS[dotted])}
            if dotted == "numpy.random.default_rng":
                seedless = not node.args and not node.keywords
                none_seed = (
                    len(node.args) == 1
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                )
                if seedless or none_seed:
                    return frozenset({("src", "unseeded np.random.default_rng()")})
                return all_args
            if dotted.startswith(_RANDOM_MODULES):
                return all_args | {("src", f"{dotted}() (global-state RNG)")}
            if dotted in ("numpy.sort", "numpy.argsort"):
                return frozenset(
                    i for i in all_args if not (_label(i) and i[1] in _ORDER_LABELS)
                )
            if dotted in _HASH_CALLS:
                self.sink_check(node, arg_taints, kw_taints,
                                HASH_SINK_CODE, f"{dotted}() digest")
                # The constructed digest object is itself a sink: feeding
                # it later via .update() must also be caught.
                return all_args | {("hashobj", dotted)}
            return all_args

        if resolved is not None and resolved[0] == "internal":
            key = resolved[1]
            sink = _SINK_MODULES.get(key.split(":", 1)[0])
            if sink is not None:
                self.sink_check(node, arg_taints, kw_taints, sink[0],
                                f"{sink[1]} via {key.split(':', 1)[1]}()")
            summary = self.analysis.get_summary("taint", key)
            if summary is None:
                return all_args
            out = frozenset(("src", label) for label in summary.intrinsic)
            callee = self.analysis.callgraph.functions.get(key)
            params = callee.params if callee is not None else []
            for index, taint in enumerate(arg_taints):
                name = params[index] if index < len(params) else None
                if name is not None and name in summary.passthrough:
                    out |= taint
                if name is not None and name in summary.param_sinks:
                    self.flow_into_callee(node, taint, key, summary.param_sinks[name])
            for kwname, taint in kw_taints.items():
                if kwname in summary.passthrough:
                    out |= taint
                if kwname in summary.param_sinks:
                    self.flow_into_callee(node, taint, key, summary.param_sinks[kwname])
            return out

        # Unresolvable callee (method on arbitrary object, lambda): taint
        # is sticky through the call.
        if isinstance(node.func, ast.Attribute) and node.func.attr == "update":
            obj_taint = self.eval(node.func.value, env)
            hashed = sorted(i[1] for i in obj_taint if i[0] == "hashobj")
            if hashed:
                self.sink_check(node, arg_taints, kw_taints,
                                HASH_SINK_CODE, f"{hashed[0]}().update() digest")
        return all_args | func_taint

    # -- sources and sinks --------------------------------------------------

    def iteration_order_taint(self, iterable) -> frozenset:
        """Order taint for ``for``-loop / comprehension iterables."""
        node = iterable
        if isinstance(node, (ast.Set, ast.SetComp)):
            return frozenset({("src", "set iteration order")})
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
                return frozenset({("src", "set iteration order")})
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("keys", "values", "items")
            ):
                return frozenset({("src", "dict iteration order")})
        return frozenset()

    def sink_check(self, node, arg_taints, kw_taints, code, sink_desc) -> None:
        """Record findings/summary facts for taint reaching a sink call."""
        items = frozenset().union(frozenset(), *arg_taints, *kw_taints.values())
        labels = sorted(i[1] for i in items if _label(i))
        params = sorted(i[1] for i in items if i[0] == "param")
        if labels and self.emit is not None:
            self.emit(
                node, code,
                f"nondeterministic value ({', '.join(labels)}) flows into "
                f"{sink_desc}",
            )
        for name in params:
            self.param_sinks.setdefault(name, (code, sink_desc))

    def flow_into_callee(self, node, taint, key, sink) -> None:
        """An argument's taint reaches a sink *inside* the callee."""
        code, sink_desc = sink
        labels = sorted(i[1] for i in taint if _label(i))
        params = sorted(i[1] for i in taint if i[0] == "param")
        callee = key.split(":", 1)[1]
        if labels and self.emit is not None:
            self.emit(
                node, code,
                f"nondeterministic value ({', '.join(labels)}) passed to "
                f"{callee}() reaches {sink_desc}",
            )
        for name in params:
            self.param_sinks.setdefault(name, (code, f"{sink_desc} (via {callee}())"))

    def report_kernel_returns(self) -> None:
        """RD402: tainted values returned from kernel-package code.

        Dict iteration order is excluded here: insertion order is
        deterministic within a run, so it cannot make a kernel's output
        differ between two identical runs.  (It still matters for
        fingerprints, where RD401 keeps the label — two equivalent plans
        built in different orders must hash equal.)
        """
        if self.emit is None or not self.module.module_rel.startswith("repro/kernels"):
            return
        for node, labels in self.tainted_returns:
            labels = labels - {"dict iteration order"}
            if not labels:
                continue
            self.emit(
                node, KERNEL_SINK_CODE,
                f"kernel output depends on nondeterministic value "
                f"({', '.join(sorted(labels))})",
            )


def _root_name(node) -> str | None:
    while isinstance(node, (ast.Subscript, ast.Attribute, ast.Starred)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None
