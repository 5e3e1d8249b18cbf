"""Zero-copy aliasing lints: the ``aliasing`` pass of ``repro check``.

PR 4 rebuilt the hot data path on borrowed buffers: memoryview slices
thread through region assembly, stripe-image parity and the packetiser,
and the DES kernel recycles processed Timeout/Release/Request events
through bounded free lists.  Two invariants make that safe:

1. a borrowed view must not outlive the next mutation (or recycling) of
   its backing buffer, and
2. a recycled event must not be touched through a stale reference.

This module is the static half of that pass: a linear AST dataflow
analysis per function that tracks *view-producing expressions* —
``memoryview(...)``, slicing of known view or bytearray locals, and
attribute loads from the :data:`VIEW_ATTRIBUTES` annotation table
(``DataPacket.payload``-style borrowed fields) — and reports three rules:

* ``view-escape`` — a borrowed view stored on ``self``, appended to a
  ``self``-owned container, or *used* (returned, passed, subscripted)
  past a mutation horizon of its backing buffer.  Horizons are inferred
  from subscript writes, mutator method calls (``extend``/``clear``/…),
  ``flush``/``flush_p`` calls (which may swap self-owned buffers),
  rebinding of the backing name (buffer swap) and free-list appends.
* ``hidden-copy`` — a silent flattening copy on a hot path:
  ``bytes(view)``, ``view + ...`` concatenation, ``.ljust``-family
  padding, or a per-byte Python loop over a view.  Hot paths are the
  files in :data:`HOT_PATH_SUFFIXES` plus any module whose docstring
  contains ``repro: hot-path``.  The sanctioned spelling for a
  *deliberate* copy is ``view.tobytes()``, which is never flagged.
* ``pool-leak`` — a pooled event reference retained (loaded) after the
  statement that appended it to a free list, inside the same suite:
  past that boundary the free list may re-arm the object under the
  holder's feet.

``# repro: allow[aliasing]`` suppresses all three on a line (each
specific id also works); the analysis is deliberately linear (no branch
joins, loop back-edges ignored) so only straight-line hazards fire —
high confidence, zero findings on the current tree.

The runtime half (poisoned free lists, generation-stamped buffers) lives
in :mod:`repro.check.sanitize`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional

from .findings import Finding
from .lint import Rule, dotted_name

__all__ = [
    "AliasRule",
    "HOT_PATH_MARKER",
    "HOT_PATH_SUFFIXES",
    "VIEW_ATTRIBUTES",
    "analyze_aliasing",
]

#: Files whose bytes-handling is hot enough that a silent copy is a bug,
#: not a style choice (the PR 4 zero-copy path, see docs/PERFORMANCE.md).
HOT_PATH_SUFFIXES = (
    "des/engine.py",
    "core/parity.py",
    "core/distribution.py",
    "core/buffered.py",
    "simdisk/filesystem.py",
)

#: A module docstring containing this marker opts the file into the
#: ``hidden-copy`` pass regardless of its path (used by fixtures and by
#: future hot modules that live elsewhere).
HOT_PATH_MARKER = "repro: hot-path"

#: Annotation table: attribute names whose loads yield *borrowed* views
#: of a buffer owned by someone else.  ``DataPacket.payload`` is a
#: zero-copy slice of the writer's buffer; ``Chunk.data``-style fields
#: expose the owner's backing store.  Storing such a load beyond the
#: borrowing frame is an escape.
VIEW_ATTRIBUTES = {
    "payload": "packet payloads are zero-copy slices of the sender's buffer",
    "data": "Chunk.data-style fields expose the owner's backing buffer",
}

#: Methods that mutate their receiver in place (invalidate borrowed
#: views of it).
_MUTATOR_METHODS = frozenset({
    "append", "clear", "extend", "frombytes", "insert", "pop", "remove",
    "reverse", "sort", "truncate", "write",
})

#: Methods that may swap or drain a self-owned buffer wholesale.
_FLUSH_METHODS = frozenset({"flush", "flush_p"})

#: Padding methods that build a copy byte-by-byte; preallocate instead.
_PADDING_METHODS = frozenset({"center", "ljust", "rjust", "zfill"})


def _is_hot(tree: ast.Module, path: Path) -> bool:
    """True when ``path`` is on the hot list or opted in by docstring."""
    posix = Path(path).as_posix()
    if any(posix.endswith(suffix) for suffix in HOT_PATH_SUFFIXES):
        return True
    doc = ast.get_docstring(tree)
    return bool(doc and HOT_PATH_MARKER in doc)


class _ViewInfo:
    """One tracked view local: where it borrows from, whether stale."""

    __slots__ = ("origin", "stale")

    def __init__(self, origin: Optional[str]):
        self.origin = origin  # backing-buffer key, or None when unknown
        self.stale: Optional[str] = None  # staleness reason once horizon hit

    @property
    def borrowed(self) -> bool:
        """True when the backing buffer is not owned by ``self``."""
        return self.origin is None or not self.origin.startswith("self.")


class _FunctionScan:
    """Linear dataflow scan of one function body.

    Statements are processed in source order; branch bodies are scanned
    sequentially with shared state (no joins) and loop back-edges are
    ignored, so only straight-line hazards produce findings.
    """

    def __init__(self, path: Path, hot: bool, findings: list):
        self.path = path
        self.hot = hot
        self.findings = findings
        self.views: dict[str, _ViewInfo] = {}
        self.buffers: set[str] = set()  # known local bytearray buffers
        self._reported: set[tuple] = set()

    # -- reporting ----------------------------------------------------------

    def _report(self, rule_id: str, node: ast.AST, message: str) -> None:
        dedupe = (rule_id, message)
        if dedupe in self._reported:
            return
        self._reported.add(dedupe)
        self.findings.append(Finding(
            rule_id=rule_id,
            path=self.path,
            line=getattr(node, "lineno", 1),
            message=message,
        ))

    # -- classification -----------------------------------------------------

    def _view_origin(self, node: ast.AST) -> Optional[str]:
        """Backing-buffer key when ``node`` is a view expression.

        Returns the origin key (possibly ``"<unknown>"`` mapped to None
        by callers) or raises nothing; a non-view expression returns the
        sentinel ``_NOT_A_VIEW``.
        """
        if isinstance(node, ast.Name):
            info = self.views.get(node.id)
            if info is not None:
                return info.origin
            return _NOT_A_VIEW
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "memoryview"
                    and node.args):
                return dotted_name(node.args[0])
            return _NOT_A_VIEW
        if isinstance(node, ast.Subscript):
            base = node.value
            if isinstance(base, ast.Name):
                if base.id in self.views:
                    return self.views[base.id].origin
                if base.id in self.buffers:
                    return base.id
                return _NOT_A_VIEW
            origin = self._view_origin(base)
            return origin if origin is not _NOT_A_VIEW else _NOT_A_VIEW
        if isinstance(node, ast.Attribute):
            if node.attr in VIEW_ATTRIBUTES and isinstance(node.ctx, ast.Load):
                return None  # borrowed from an external owner
            return _NOT_A_VIEW
        return _NOT_A_VIEW

    def _is_view(self, node: ast.AST) -> bool:
        return self._view_origin(node) is not _NOT_A_VIEW

    def _describe(self, node: ast.AST) -> str:
        if isinstance(node, ast.Name):
            return repr(node.id)
        try:
            return repr(ast.unparse(node))
        except Exception:  # pragma: no cover - unparse is total on 3.9+
            return "<view expression>"

    # -- staling ------------------------------------------------------------

    def _stale_origin(self, key: Optional[str], reason: str,
                      keep: Optional[str] = None) -> None:
        if key is None:
            return
        for name, info in self.views.items():
            if name == keep:
                continue
            if info.stale is None and info.origin == key:
                info.stale = reason

    def _stale_self_views(self, reason: str) -> None:
        for info in self.views.values():
            if info.stale is None and info.origin is not None \
                    and info.origin.startswith("self."):
                info.stale = reason

    # -- entry points -------------------------------------------------------

    def run(self, func: ast.AST) -> None:
        self._suite(func.body, {})

    def _suite(self, stmts, retired: dict) -> None:
        for stmt in stmts:
            self._stmt(stmt, retired)

    # -- statements ---------------------------------------------------------

    def _stmt(self, stmt: ast.stmt, retired: dict) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested defs are scanned on their own
        if retired:
            self._check_retired(stmt, retired)
        if isinstance(stmt, ast.Assign):
            self._handle_assign(stmt.targets, stmt.value, stmt, retired)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._handle_assign([stmt.target], stmt.value, stmt, retired)
        elif isinstance(stmt, ast.AugAssign):
            self._scan_value(stmt.value)
            key = dotted_name(stmt.target)
            if key is not None:
                self._stale_origin(key, "mutated by augmented assignment")
        elif isinstance(stmt, ast.Expr):
            self._scan_value(stmt.value)
            self._call_effects(stmt.value, retired)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._scan_value(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._scan_value(stmt.test)
            # Mutually exclusive arms: each scans a private copy of the
            # retired map so a free-list append in one branch does not
            # taint the other (or the code after the If).
            self._suite(stmt.body, dict(retired))
            self._suite(stmt.orelse, dict(retired))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_for_iter(stmt)
            self._clear_binding(stmt.target, retired)
            self._suite(stmt.body, dict(retired))
            self._suite(stmt.orelse, dict(retired))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_value(item.context_expr)
                if item.optional_vars is not None:
                    self._clear_binding(item.optional_vars, retired)
            self._suite(stmt.body, retired)
        elif isinstance(stmt, ast.Try):
            self._suite(stmt.body, retired)
            for handler in stmt.handlers:
                self._suite(handler.body, retired)
            self._suite(stmt.orelse, retired)
            self._suite(stmt.finalbody, retired)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._scan_value(child)

    def _handle_assign(self, targets, value: ast.expr, stmt: ast.stmt,
                       retired: dict) -> None:
        self._scan_value(value)
        self._call_effects(value, retired)
        origin = self._view_origin(value)
        value_is_view = origin is not _NOT_A_VIEW

        # Escape: a borrowed view stored on self (attribute or into a
        # self-owned container slot) outlives the borrowing frame.
        if value_is_view:
            info_probe = _ViewInfo(origin)
            if info_probe.borrowed:
                for target in targets:
                    root = self._root_name(target)
                    if root == "self" and not isinstance(target, ast.Name):
                        self._report(
                            "view-escape", stmt,
                            f"borrowed view {self._describe(value)} (backing "
                            f"buffer {origin or 'external'!r}) stored on self "
                            "outlives its borrow; copy with .tobytes() or "
                            "consume it before returning")

        for target in targets:
            self._clear_binding(target, retired)
            # Rebinding a backing name is a buffer swap: views of the old
            # object dangle.  Subscript stores mutate the base in place.
            if isinstance(target, ast.Subscript):
                base_key = dotted_name(target.value)
                keep = (target.value.id
                        if isinstance(target.value, ast.Name)
                        and target.value.id in self.views else None)
                self._stale_origin(base_key,
                                   "written through a subscript store",
                                   keep=keep)
            else:
                key = dotted_name(target)
                if key is not None and not (isinstance(target, ast.Name)
                                            and value_is_view):
                    self._stale_origin(key, "rebound (buffer swap)")

        # Bind the new state for single-name targets.
        if len(targets) == 1 and isinstance(targets[0], ast.Name):
            name = targets[0].id
            self.views.pop(name, None)
            self.buffers.discard(name)
            if value_is_view:
                self.views[name] = _ViewInfo(origin)
            elif self._is_bytearray_ctor(value):
                self.buffers.add(name)
            elif isinstance(value, ast.Name) and value.id in self.buffers:
                self.buffers.add(name)

    @staticmethod
    def _is_bytearray_ctor(node: ast.expr) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "bytearray")

    @staticmethod
    def _root_name(node: ast.AST) -> Optional[str]:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    def _clear_binding(self, target: ast.AST, retired: dict) -> None:
        if isinstance(target, ast.Name):
            retired.pop(target.id, None)
            # note: view/buffer rebinding is handled by _handle_assign for
            # assignments; loop/with targets simply stop being views.
            self.views.pop(target.id, None)
            self.buffers.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._clear_binding(element, retired)
        elif isinstance(target, ast.Starred):
            self._clear_binding(target.value, retired)

    # -- expression scanning ------------------------------------------------

    def _scan_value(self, node: ast.expr) -> None:
        """Stale-view loads plus the hidden-copy patterns, recursively."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                info = self.views.get(sub.id)
                if info is not None and info.stale is not None:
                    self._report(
                        "view-escape", sub,
                        f"view {sub.id!r} of buffer "
                        f"{info.origin or 'external'!r} used after its "
                        f"backing was {info.stale}; take the view after the "
                        "mutation, or copy with .tobytes() first")
            elif isinstance(sub, ast.Call):
                self._scan_call(sub)
            elif isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Add):
                if self.hot and (self._is_view(sub.left)
                                 or self._is_view(sub.right)):
                    operand = (sub.left if self._is_view(sub.left)
                               else sub.right)
                    self._report(
                        "hidden-copy", sub,
                        f"+ concatenation copies view "
                        f"{self._describe(operand)} on a hot path; "
                        "preallocate a buffer and slice-assign instead")

    def _scan_call(self, call: ast.Call) -> None:
        func = call.func
        if (self.hot and isinstance(func, ast.Name) and func.id == "bytes"
                and len(call.args) == 1 and self._is_view(call.args[0])):
            self._report(
                "hidden-copy", call,
                f"bytes() flattens view {self._describe(call.args[0])} on a "
                "hot path; pass the view through, or spell a deliberate "
                "copy as .tobytes()")
        elif (self.hot and isinstance(func, ast.Attribute)
                and func.attr in _PADDING_METHODS):
            self._report(
                "hidden-copy", call,
                f".{func.attr}() pads by building a fresh copy on a hot "
                "path; write into a preallocated buffer instead")

    def _scan_for_iter(self, stmt) -> None:
        self._scan_value(stmt.iter)
        if (self.hot and isinstance(stmt.iter, ast.Name)
                and stmt.iter.id in self.views):
            self._report(
                "hidden-copy", stmt,
                f"per-byte Python loop over view {stmt.iter.id!r} on a hot "
                "path; use whole-buffer operations (int.from_bytes, "
                "slice assignment) instead")

    # -- call effects (mutation horizons, escapes, pool recycling) ----------

    def _call_effects(self, node: ast.expr, retired: dict) -> None:
        if not isinstance(node, ast.Call):
            return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        method = func.attr
        receiver_key = dotted_name(func.value)
        receiver_root = self._root_name(func.value)

        if method in _FLUSH_METHODS:
            self._stale_self_views(f"flushed by .{method}()")
            return

        if method in _MUTATOR_METHODS:
            # Free-list recycling: `<...pool...>.append(event)` retires
            # the argument — later loads in this suite are pool leaks,
            # and views of it dangle.
            last = receiver_key.rsplit(".", 1)[-1] if receiver_key else ""
            if (method == "append" and "pool" in last.lower()
                    and len(node.args) == 1
                    and isinstance(node.args[0], ast.Name)):
                retired[node.args[0].id] = node.lineno
                self._stale_origin(node.args[0].id,
                                   "recycled to a free list")
                return
            # Escape: borrowed view appended into a self-owned container.
            if (receiver_root == "self"
                    and method in ("append", "insert", "add")):
                for arg in node.args:
                    origin = self._view_origin(arg)
                    if origin is not _NOT_A_VIEW \
                            and _ViewInfo(origin).borrowed:
                        self._report(
                            "view-escape", node,
                            f"borrowed view {self._describe(arg)} appended "
                            f"to container {receiver_key!r} escapes its "
                            "frame; copy with .tobytes() or consume it "
                            "before the buffer's next mutation")
            # Mutation horizon for views of the receiver.
            keep = (receiver_root if receiver_root in self.views
                    and isinstance(func.value, ast.Name) else None)
            self._stale_origin(receiver_key, f"mutated by .{method}()",
                               keep=keep)

    # -- pool-leak ----------------------------------------------------------

    def _check_retired(self, stmt: ast.stmt, retired: dict) -> None:
        for sub in ast.walk(stmt):
            if (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                    and sub.id in retired):
                self._report(
                    "pool-leak", sub,
                    f"pooled event {sub.id!r} used after being recycled to "
                    "the free list; the pool may re-arm it at any time — "
                    "drop the reference at the append")


#: Sentinel distinguishing "not a view" from "view of unknown origin".
_NOT_A_VIEW = object()


def analyze_aliasing(tree: ast.Module, path: Path) -> list[Finding]:
    """All aliasing findings for one parsed module."""
    findings: list[Finding] = []
    hot = _is_hot(tree, path)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _FunctionScan(Path(path), hot, findings).run(node)
    findings.sort(key=lambda f: (f.line, f.rule_id, f.message))
    return findings


class AliasRule(Rule):
    """The three aliasing rules, from one analysis per module."""

    summaries = {
        "view-escape": "a borrowed memoryview outlives its backing buffer "
                       "(stored on self, kept in a container, or used past "
                       "a mutation/flush/swap/recycle horizon)",
        "hidden-copy": "a hot path silently copies a zero-copy view: "
                       "bytes(view), view + ..., .ljust-family padding, or "
                       "a per-byte loop",
        "pool-leak": "a pooled event reference is retained across the "
                     "free-list re-arm boundary",
    }

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        return iter(analyze_aliasing(tree, path))
