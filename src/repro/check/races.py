"""Static interleaving lints: ``yield`` as a preemption point.

In a generator-process DES, every ``yield`` hands control back to the
calendar — any other process may run before the generator resumes.  The
two rules here flag the interleaving hazards that survive the
determinism lints in :mod:`repro.check.rules`:

* :class:`YieldRmwRule` — a shared attribute read into a local before a
  yield and written back after it.  Whatever ran during the yield may
  have updated the attribute; the write-back silently discards that
  update (the classic lost-update race).  Holding a
  ``Resource.request()`` across both ends serializes the section and
  suppresses the finding.
* :class:`LockOrderRule` — ``Resource.request()`` holds nested in
  opposite orders in different process functions.  Two processes
  entering the nests concurrently can each hold one resource while
  waiting forever on the other's.

Both rules are syntactic: lock identity is the dotted expression text
before ``.request`` (``disk.resource``, ``self.cpu``), and the RMW rule
tracks straight-line read→yield→write sequences, not data flow through
calls.  ``# repro: allow[yield-rmw]`` / ``# repro: allow[lock-order]``
suppress individual findings, as for every other rule.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional

from .findings import Finding
from .lint import Rule, dotted_name

__all__ = ["YieldRmwRule", "LockOrderRule"]


def _request_lock_name(item: ast.withitem) -> Optional[str]:
    """The lock identity of a ``with <lock>.request(...)`` item, or None."""
    expr = item.context_expr
    if not isinstance(expr, ast.Call):
        return None
    chain = dotted_name(expr.func)
    if chain is None or not chain.endswith(".request"):
        return None
    return chain[: -len(".request")]


def _function_nodes(tree: ast.Module):
    """Every function definition in the module (including methods)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class _RmwCollector:
    """Orders one function body's reads, writes and yields.

    Walks statements in source order (never descending into nested
    function definitions), assigning each a monotonically increasing
    position.  Records, with the set of enclosing ``with *.request()``
    guard regions active at that point:

    * local bindings whose right-hand side reads an attribute chain,
    * attribute-chain writes and the local names their values mention,
    * positions that contain a yield.
    """

    def __init__(self):
        self.position = 0
        #: local name -> (chain, position, node, guards)
        self.bindings: dict[str, tuple] = {}
        #: (chain, position, node, value_names, guards)
        self.writes: list[tuple] = []
        #: positions of statements containing a yield
        self.yields: list[int] = []
        self._guards: list[int] = []
        self._next_guard = 0

    def collect(self, function: ast.AST) -> None:
        for statement in function.body:
            self._statement(statement)

    # -- walking --------------------------------------------------------------

    def _statement(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested definitions are separate preemption scopes
        self.position += 1
        position = self.position
        if self._contains_yield(node):
            self.yields.append(position)
        if isinstance(node, ast.Assign):
            self._record_assign(node, position)
        elif isinstance(node, ast.AugAssign):
            # `obj.attr += x` re-reads the attribute at write time inside
            # one uninterruptible statement, so it is not a stale write.
            pass
        if isinstance(node, (ast.With, ast.AsyncWith)):
            guards = [name for item in node.items
                      if (name := _request_lock_name(item)) is not None]
            if guards:
                self._next_guard += 1
                self._guards.append(self._next_guard)
                for child in node.body:
                    self._statement(child)
                self._guards.pop()
            else:
                for child in node.body:
                    self._statement(child)
            return
        for child_block in ("body", "orelse", "finalbody"):
            for child in getattr(node, child_block, ()):
                if isinstance(child, ast.stmt):
                    self._statement(child)
        for handler in getattr(node, "handlers", ()):
            for child in handler.body:
                self._statement(child)

    def _record_assign(self, node: ast.Assign, position: int) -> None:
        guards = frozenset(self._guards)
        # Writes: any target that is an attribute chain.
        for target in node.targets:
            chain = dotted_name(target)
            if chain is not None and "." in chain:
                names = {name.id for name in ast.walk(node.value)
                         if isinstance(name, ast.Name)}
                self.writes.append((chain, position, node, names, guards))
        # Bindings: a simple local assigned from an expression that reads
        # an attribute chain.
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            local = node.targets[0].id
            for sub in ast.walk(node.value):
                chain = dotted_name(sub) if isinstance(
                    sub, ast.Attribute) else None
                if chain is not None and "." in chain:
                    self.bindings[local] = (chain, position, node, guards)
                    break

    @classmethod
    def _contains_yield(cls, node: ast.AST) -> bool:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue  # a nested definition is its own preemption scope
            if isinstance(child, (ast.Yield, ast.YieldFrom)):
                return True
            if cls._contains_yield(child):
                return True
        return False


class YieldRmwRule(Rule):
    """No read-modify-write of shared attributes across a yield.

    ``x = obj.attr`` … ``yield`` … ``obj.attr = f(x)`` loses every update
    made to ``obj.attr`` by whatever process ran during the yield.  Either
    fold the update into one uninterruptible statement, or hold a
    ``Resource.request()`` across the whole section.
    """

    summaries = {"yield-rmw":
                 "read-modify-write of a shared attribute spans a yield"}

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        for function in _function_nodes(tree):
            collector = _RmwCollector()
            collector.collect(function)
            if not collector.yields:
                continue
            for chain, w_pos, w_node, names, w_guards in collector.writes:
                for local in names:
                    binding = collector.bindings.get(local)
                    if binding is None:
                        continue
                    b_chain, b_pos, b_node, b_guards = binding
                    if b_chain != chain or b_pos >= w_pos:
                        continue
                    if not any(b_pos < y < w_pos
                               for y in collector.yields):
                        continue
                    if w_guards & b_guards:
                        continue  # one request() hold spans both ends
                    yield self.finding(
                        path, w_node,
                        f"`{chain}` read into `{local}` on line "
                        f"{b_node.lineno} is stale here: a yield between "
                        "the read and this write lets other processes "
                        f"update `{chain}`, and the write-back discards "
                        "their update; hold a Resource.request() across "
                        "the section or collapse it into one statement")
                    break


class LockOrderRule(Rule):
    """Consistent ``Resource.request()`` nesting order module-wide.

    Extracts the acquired-while-holding graph from every syntactic
    ``with a.request(): … with b.request(): …`` nest in the module and
    reports each cycle: two processes entering opposite-order nests at
    once deadlock with each holding what the other awaits.  Lock identity
    is the expression text before ``.request``, so aliases of one
    resource under different names are not unified.
    """

    summaries = {"lock-order": "Resource.request() nesting order forms a "
                               "cycle (deadlock risk)"}

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        edges: dict[tuple[str, str], ast.AST] = {}
        for function in _function_nodes(tree):
            self._collect_edges(function, [], edges)
        graph: dict[str, set[str]] = {}
        for held, acquired in edges:
            graph.setdefault(held, set()).add(acquired)
        for cycle in self._cycles(graph):
            locations = []
            for index, held in enumerate(cycle):
                acquired = cycle[(index + 1) % len(cycle)]
                node = edges[(held, acquired)]
                locations.append(
                    f"`{acquired}` requested while holding `{held}` "
                    f"(line {node.lineno})")
            first_edge = edges[(cycle[0], cycle[1 % len(cycle)])]
            ordering = " -> ".join(cycle + [cycle[0]])
            yield self.finding(
                path, first_edge,
                f"lock-order cycle {ordering}: " + "; ".join(locations) +
                "; concurrent processes entering these nests in opposite "
                "order deadlock")

    def _collect_edges(self, node: ast.AST, held: list[str],
                       edges: dict) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = [name for item in node.items
                        if (name := _request_lock_name(item)) is not None]
            for name in acquired:
                for holder in held:
                    if holder != name:
                        edges.setdefault((holder, name), node)
            held = held + acquired
            for child in node.body:
                self._collect_edges(child, held, edges)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                continue
            self._collect_edges(child, held, edges)

    @staticmethod
    def _cycles(graph: dict[str, set[str]]) -> list[list[str]]:
        """Every distinct elementary cycle, each reported once."""
        seen: set[frozenset] = set()
        found: list[list[str]] = []
        for start in sorted(graph):
            stack = [(start, [start])]
            while stack:
                node, trail = stack.pop()
                for successor in sorted(graph.get(node, ())):
                    if successor == start:
                        members = frozenset(trail)
                        if members not in seen:
                            seen.add(members)
                            found.append(list(trail))
                    elif successor not in trail:
                        stack.append((successor, trail + [successor]))
        return found
