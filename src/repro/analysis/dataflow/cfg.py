"""Per-function control-flow graphs and a forward dataflow solver.

Blocks hold *simple* statements plus pseudo-statements for the compound
headers (an ``If`` test, a ``For`` header binding its target, a ``While``
test); the builder splits bodies into successor blocks, wires loop back
edges and break/continue, and routes ``try`` bodies to their handlers.
Exceptions are modelled coarsely: every handler is reachable from the
start of its ``try`` body, which over-approximates — fine for the
may-analyses built on top.

:func:`solve_forward` is a classic worklist fixpoint over the block
graph; analyses provide the environment join and the per-statement
transfer function.  All analyses in this package are may-analyses with
finite join-semilattice domains, so termination is by monotonicity.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["Block", "CFG", "build_cfg", "solve_forward"]

#: Pseudo-statement kinds placed in blocks for compound-statement headers.
TEST = "test"  #: an ``If``/``While`` condition expression
BIND = "bind"  #: a ``For`` header (binds ``target`` from ``iter``)
STMT = "stmt"  #: a plain simple statement


@dataclass
class Block:
    """One basic block: ``(kind, node)`` pairs plus successor ids."""

    id: int
    items: list = field(default_factory=list)  #: (kind, ast node) pairs
    succs: list = field(default_factory=list)  #: successor block ids


@dataclass
class CFG:
    """A function's control-flow graph.

    Block 0 is the shared *exit* block (the target of every ``return``
    and of normal fall-through); the entry block is :attr:`entry`.
    """

    blocks: list
    entry: int = 0
    exit: int = 0

    def reachable_from(self) -> dict[int, set]:
        """Map block id -> set of block ids reachable via ``succs``.

        A block is *not* considered to reach itself unless it sits on a
        cycle.  Used by path-sensitive clients (e.g. "does this effect
        precede that fault point on some execution path?").
        """
        out: dict[int, set] = {}
        for block in self.blocks:
            seen: set = set()
            frontier = list(block.succs)
            while frontier:
                bid = frontier.pop()
                if bid in seen:
                    continue
                seen.add(bid)
                frontier.extend(self.blocks[bid].succs)
            out[block.id] = seen
        return out


class _Builder:
    def __init__(self):
        self.blocks: list[Block] = []
        self.loop_stack: list[tuple[int, int]] = []  # (header, exit)
        self.exit = self.new_block()  # block 0 is entry; re-pointed below

    def new_block(self) -> int:
        block = Block(id=len(self.blocks))
        self.blocks.append(block)
        return block.id

    def edge(self, src: int, dst: int) -> None:
        if dst not in self.blocks[src].succs:
            self.blocks[src].succs.append(dst)

    def build(self, body: list, current: int, exit_id: int) -> int:
        """Lay out ``body`` starting in ``current``; returns the live tail
        block id, or ``-1`` when control never falls through."""
        for stmt in body:
            if current == -1:
                break  # unreachable code after return/raise/break
            current = self.statement(stmt, current, exit_id)
        return current

    def statement(self, stmt, current: int, exit_id: int) -> int:
        blocks, edge = self.blocks, self.edge
        if isinstance(stmt, (ast.Return, ast.Raise)):
            blocks[current].items.append((STMT, stmt))
            edge(current, exit_id)
            return -1
        if isinstance(stmt, ast.Break):
            if self.loop_stack:
                edge(current, self.loop_stack[-1][1])
                return -1
            return current
        if isinstance(stmt, ast.Continue):
            if self.loop_stack:
                edge(current, self.loop_stack[-1][0])
                return -1
            return current
        if isinstance(stmt, ast.If):
            blocks[current].items.append((TEST, stmt.test))
            then_b, merge = self.new_block(), self.new_block()
            edge(current, then_b)
            tail = self.build(stmt.body, then_b, exit_id)
            if tail != -1:
                edge(tail, merge)
            if stmt.orelse:
                else_b = self.new_block()
                edge(current, else_b)
                tail = self.build(stmt.orelse, else_b, exit_id)
                if tail != -1:
                    edge(tail, merge)
            else:
                edge(current, merge)
            return merge
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            header, exit_b = self.new_block(), self.new_block()
            edge(current, header)
            if isinstance(stmt, ast.While):
                blocks[header].items.append((TEST, stmt.test))
            else:
                blocks[header].items.append((BIND, stmt))
            body_b = self.new_block()
            edge(header, body_b)
            edge(header, exit_b)  # zero-iteration path
            self.loop_stack.append((header, exit_b))
            tail = self.build(stmt.body, body_b, exit_id)
            self.loop_stack.pop()
            if tail != -1:
                edge(tail, header)  # back edge
            if stmt.orelse:
                else_b = self.new_block()
                edge(header, else_b)
                tail = self.build(stmt.orelse, else_b, exit_id)
                if tail != -1:
                    edge(tail, exit_b)
            return exit_b
        if isinstance(stmt, ast.Try):
            body_b, merge = self.new_block(), self.new_block()
            edge(current, body_b)
            handler_ids = [self.new_block() for _ in stmt.handlers]
            for hid in handler_ids:
                edge(body_b, hid)  # coarse: any try statement may raise
            tail = self.build(stmt.body, body_b, exit_id)
            if tail != -1:
                final = self.build(stmt.orelse, tail, exit_id)
                if final != -1:
                    edge(final, merge)
            for handler, hid in zip(stmt.handlers, handler_ids):
                tail = self.build(handler.body, hid, exit_id)
                if tail != -1:
                    edge(tail, merge)
            if stmt.finalbody:
                fin = self.new_block()
                edge(merge, fin)
                tail = self.build(stmt.finalbody, fin, exit_id)
                return tail if tail != -1 else -1
            return merge
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                blocks[current].items.append((STMT, ast.Expr(value=item.context_expr)))
            return self.build(stmt.body, current, exit_id)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return current  # nested defs analysed separately
        blocks[current].items.append((STMT, stmt))
        return current


def build_cfg(fn: ast.AST) -> CFG:
    """Build the CFG of a ``FunctionDef``/``AsyncFunctionDef`` body."""
    builder = _Builder()
    entry = builder.new_block()  # id 1; 0 is the shared exit block
    tail = builder.build(fn.body, entry, builder.exit)
    if tail != -1:
        builder.edge(tail, builder.exit)
    return CFG(blocks=builder.blocks, entry=entry)


def solve_forward(cfg: CFG, init, transfer, join, *, max_iter: int = 100):
    """Worklist fixpoint: returns the entry environments per block.

    ``init`` seeds the entry block; ``transfer(kind, node, env) -> env``
    folds one block item; ``join(a, b, succ) -> env`` merges flow edges
    into block ``succ`` (clients that report on merges can ignore joins
    into ``cfg.exit`` — values merged after a ``return`` are dead).  The
    returned dict maps block id to its stabilised *entry* environment.
    """
    entry_env = {cfg.entry: init}
    work = [cfg.entry]
    iterations = 0
    limit = max_iter * max(1, len(cfg.blocks))
    while work:
        iterations += 1
        if iterations > limit:
            break  # safety valve; domains are finite so this should not hit
        bid = work.pop(0)
        out = entry_env[bid]
        for kind, node in cfg.blocks[bid].items:
            out = transfer(kind, node, out)
        for succ in cfg.blocks[bid].succs:
            previous = entry_env.get(succ)
            merged = out if previous is None else join(previous, out, succ)
            if previous is None or merged != previous:
                entry_env[succ] = merged
                if succ not in work:
                    work.append(succ)
    return entry_env
