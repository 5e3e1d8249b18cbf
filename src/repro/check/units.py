"""Dimensional-analysis lint: the ``units`` pass of ``repro check``.

An abstract interpreter over each module's AST that assigns *dimensions*
to expressions and propagates them through arithmetic.  A dimension is a
product of base units with integer exponents — ``bytes``,
``bytes·s⁻¹``, ``ms`` — plus two special values: *dimensionless* (a
known pure number, compatible with anything under addition) and
*unknown* (no inference; unknown never produces findings).

Dimensions come from three sources, in priority order:

1. a **seed table** of exact names this code base uses consistently
   (``nbytes``, ``size``, ``latency``, ``transfer_rate``, …);
2. **suffix conventions** (``_bytes``, ``_s``, ``_ms``, ``_bps``,
   ``_bytes_per_s``, …) and a few prefixes (``bytes_``, ``num_``);
3. **call returns** for a table of known converters and model methods
   (``repro.units.ms`` returns seconds, ``transmission_time`` returns
   seconds, ``wire_size`` returns bytes, …).

Three rules report over the inferred dimensions:

* ``unit-mismatch`` — addition/subtraction/comparison of two different
  known dimensions (the seconds-plus-bytes class of bug), assignment of
  a known dimension to a name declaring a different one (the Mb/s into
  a ``_bytes_per_s`` name class), and a non-seconds argument to
  ``env.timeout`` (the ms-into-simulated-seconds class).
* ``unit-bitbyte`` — a raw ``* 8`` / ``/ 8`` applied to a quantity
  carrying bits or bytes, outside the blessed ``repro/units.py``; use
  ``to_bytes_per_s`` / ``to_bits`` / ``seconds_to_send`` instead.
* ``unit-magic`` — multiplication/division of a dimensioned quantity by
  a bare scale constant (1000, 1e6, 1024, …) instead of a named
  constant or converter from ``repro.units``.

``# repro: allow[units]`` suppresses all three on a line (each specific
id also works), and ``repro check --rules units`` runs just this pass.
The interpreter is deliberately conservative: unknown operands poison
results to unknown, and dimensionless constants are compatible with
everything, so only high-confidence confusions fire.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional

from .findings import Finding
from .lint import Rule
from .rules import _ImportMap

__all__ = ["UnitRule", "analyze_units", "Dim", "name_dim"]

#: The one module allowed to contain raw conversion factors.
BLESSED_SUFFIXES = ("repro/units.py",)


# -- the dimension algebra ----------------------------------------------------


class Dim:
    """A product of base units with integer exponents.

    Instances are immutable and interned by their exponent map;
    ``Dim({})`` is *dimensionless* (a known pure number).  ``None`` is
    used throughout the analyzer for *unknown*.
    """

    __slots__ = ("exponents",)

    def __init__(self, exponents: dict[str, int]):
        object.__setattr__(self, "exponents",
                           tuple(sorted((base, exp)
                                        for base, exp in exponents.items()
                                        if exp != 0)))

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("Dim is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Dim) and self.exponents == other.exponents

    def __hash__(self) -> int:
        # In-process set/dict membership only; never persisted or ordered.
        return hash(self.exponents)  # repro: allow[salted-hash]

    @property
    def dimensionless(self) -> bool:
        return not self.exponents

    def mul(self, other: "Dim") -> "Dim":
        merged = dict(self.exponents)
        for base, exp in other.exponents:
            merged[base] = merged.get(base, 0) + exp
        return Dim(merged)

    def div(self, other: "Dim") -> "Dim":
        merged = dict(self.exponents)
        for base, exp in other.exponents:
            merged[base] = merged.get(base, 0) - exp
        return Dim(merged)

    def involves(self, *bases: str) -> bool:
        return any(base in bases for base, _ in self.exponents)

    def __str__(self) -> str:
        if not self.exponents:
            return "dimensionless"
        parts = []
        for base, exp in self.exponents:
            parts.append(base if exp == 1 else f"{base}^{exp}")
        return "*".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging
        return f"Dim({dict(self.exponents)!r})"


DIMENSIONLESS = Dim({})
BYTES = Dim({"byte": 1})
BITS = Dim({"bit": 1})
SECONDS = Dim({"s": 1})
MILLISECONDS = Dim({"ms": 1})
MICROSECONDS = Dim({"us": 1})
BYTES_PER_S = Dim({"byte": 1, "s": -1})
BITS_PER_S = Dim({"bit": 1, "s": -1})
KILOBYTES_PER_S = Dim({"kb": 1, "s": -1})
MEGABYTES_PER_S = Dim({"mb": 1, "s": -1})
PER_SECOND = Dim({"s": -1})
S_PER_BYTE = Dim({"s": 1, "byte": -1})


# -- dimension inference for names --------------------------------------------

#: Exact identifier -> dimension.  Only names this repository uses with
#: one consistent meaning; anything generic stays unknown.
SEED_NAMES: dict[str, Dim] = {
    "nbytes": BYTES,
    "size": BYTES,
    "length": BYTES,
    "payload": BYTES,
    "payload_size": BYTES,
    "packet_size": BYTES,
    "request_size": BYTES,
    "block_size": BYTES,
    "unit_size": BYTES,
    "striping_unit": BYTES,
    "transfer_unit": BYTES,
    "local_size": BYTES,
    "datagram_size": BYTES,
    "wire_bytes": BYTES,
    "bandwidth": BYTES_PER_S,
    "goodput": BYTES_PER_S,
    "throughput": BYTES_PER_S,
    "data_rate": BYTES_PER_S,
    "transfer_rate": BYTES_PER_S,
    "controller_rate": BYTES_PER_S,
    "latency": SECONDS,
    "delay": SECONDS,
    "duration": SECONDS,
    "timeout": SECONDS,
    "deadline": SECONDS,
    "elapsed": SECONDS,
    "arrival_rate": PER_SECOND,
    # CPU cost-model coefficients: seconds *per byte* / *per packet* (a
    # packet is a count, so per-packet cost is plain seconds).  The
    # suffix grammar cannot express per-X rates, hence the exact seeds.
    "per_byte_s": S_PER_BYTE,
    "per_packet_s": SECONDS,
}

#: name-suffix -> dimension, longest suffix wins.
SEED_SUFFIXES: list[tuple[str, Dim]] = sorted([
    ("_bytes_per_s", BYTES_PER_S),
    ("bytes_per_second", BYTES_PER_S),
    ("_bits_per_s", BITS_PER_S),
    ("bits_per_second", BITS_PER_S),
    ("_kb_per_s", KILOBYTES_PER_S),
    ("_kb_s", KILOBYTES_PER_S),
    ("_mb_per_s", MEGABYTES_PER_S),
    ("_mb_s", MEGABYTES_PER_S),
    ("_bps", BITS_PER_S),
    ("_data_rate", BYTES_PER_S),
    ("_per_byte_s", S_PER_BYTE),
    ("_per_packet_s", SECONDS),
    ("_bytes", BYTES),
    ("_nbytes", BYTES),
    ("_bits", BITS),
    ("_ms", MILLISECONDS),
    ("_us", MICROSECONDS),
    ("_s", SECONDS),
], key=lambda pair: -len(pair[0]))

#: name-prefix -> dimension (names are matched after stripping leading
#: underscores).
SEED_PREFIXES: list[tuple[str, Dim]] = [
    ("bytes_", BYTES),
    ("num_", DIMENSIONLESS),
]

#: Call target (last attribute segment or qualified name suffix) ->
#: return dimension.  Converters from repro.units plus model methods
#: whose docstrings pin the unit.
CALL_RETURNS: dict[str, Dim] = {
    # repro.units converters
    "ms": SECONDS,
    "us": SECONDS,
    "s_to_ms": MILLISECONDS,
    "kb_per_s": BYTES_PER_S,
    "mb_per_s": BYTES_PER_S,
    "to_bits": BITS,
    "to_bytes": BYTES,
    "to_bytes_per_s": BYTES_PER_S,
    "to_bits_per_s": BITS_PER_S,
    "seconds_to_send": SECONDS,
    # model methods with documented units
    "transmission_time": SECONDS,
    "contention_penalty": SECONDS,
    "transfer_time": SECONDS,
    "block_service_time": SECONDS,
    "draw_positioning_time": SECONDS,
    "draw_position_time": SECONDS,
    "mean_access_time": SECONDS,
    "nominal_capacity": BYTES_PER_S,
    "goodput_upper_bound": BYTES_PER_S,
    "wire_size": BYTES,
}

#: Calls whose result simply carries the first argument's dimension.
PASSTHROUGH_CALLS = frozenset({"abs", "float", "int", "round", "sorted"})

#: Calls whose result joins every argument's dimension (same -> kept).
JOIN_CALLS = frozenset({"min", "max"})

#: The raw bit/byte factor.
BITBYTE_FACTORS = frozenset({8.0})

#: Scale constants that must be named, not inlined, when applied to a
#: dimensioned quantity.
MAGIC_FACTORS = frozenset({
    1000.0, 1_000_000.0, 1_000_000_000.0,        # decimal k/M/G
    1024.0, 1048576.0, 1073741824.0,             # binary Ki/Mi/Gi
    1e-3, 1e-6, 1e-9,                            # the inverse scales
})


def name_dim(name: str) -> Optional[Dim]:
    """The declared dimension of an identifier, or None (unknown)."""
    stripped = name.lstrip("_").lower()
    if stripped in SEED_NAMES:
        return SEED_NAMES[stripped]
    for suffix, dim in SEED_SUFFIXES:
        if stripped.endswith(suffix):
            return dim
    for prefix, dim in SEED_PREFIXES:
        if stripped.startswith(prefix):
            return dim
    return None


def _literal_number(node: ast.expr) -> Optional[float]:
    """The numeric value of a constant expression (incl. unary minus)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool):
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _literal_number(node.operand)
        return None if inner is None else -inner
    return None


# -- the abstract interpreter -------------------------------------------------


class _Scope:
    """Inferred dimensions of local names within one function/module."""

    def __init__(self):
        self.known: dict[str, Dim] = {}

    def lookup(self, name: str) -> Optional[Dim]:
        declared = name_dim(name)
        if declared is not None:
            return declared
        return self.known.get(name)

    def bind(self, name: str, dim: Optional[Dim]) -> None:
        declared = name_dim(name)
        if declared is not None:
            return  # suffix-declared names keep their declared dimension
        if dim is None:
            self.known.pop(name, None)
        else:
            self.known[name] = dim


class _UnitInterpreter:
    """Walks one module, inferring dimensions and collecting findings,
    each tagged with its specific rule id."""

    def __init__(self, tree: ast.Module, path: Path):
        self.tree = tree
        self.path = path
        self.imports = _ImportMap(tree)
        self.findings: list[tuple[str, ast.AST, str]] = []

    # -- entry point --------------------------------------------------------

    def run(self) -> list[tuple[str, ast.AST, str]]:
        module_scope = _Scope()
        self._exec_block(self.tree.body, module_scope)
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._exec_function(node)
        return self.findings

    def _exec_function(self, node) -> None:
        scope = _Scope()
        arguments = node.args
        for arg in (arguments.posonlyargs + arguments.args
                    + arguments.kwonlyargs):
            scope.bind(arg.arg, None)  # suffix inference applies via lookup
        self._exec_block(node.body, scope)

    # -- statements ---------------------------------------------------------

    def _exec_block(self, statements, scope: _Scope) -> None:
        for statement in statements:
            self._exec_statement(statement, scope)

    def _exec_statement(self, node, scope: _Scope) -> None:
        if isinstance(node, ast.Assign):
            dim = self._infer(node.value, scope)
            for target in node.targets:
                self._assign(target, dim, node.value, scope)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            dim = self._infer(node.value, scope)
            self._assign(node.target, dim, node.value, scope)
        elif isinstance(node, ast.AugAssign):
            target_dim = self._target_dim(node.target, scope)
            value_dim = self._infer(node.value, scope)
            if isinstance(node.op, (ast.Add, ast.Sub)):
                self._check_additive(node, target_dim, value_dim)
        elif isinstance(node, ast.Return) and node.value is not None:
            self._infer(node.value, scope)
        elif isinstance(node, ast.Expr):
            self._infer(node.value, scope)
        elif isinstance(node, (ast.If, ast.While)):
            self._infer(node.test, scope)
            self._exec_block(node.body, scope)
            self._exec_block(node.orelse, scope)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._infer(node.iter, scope)
            self._exec_block(node.body, scope)
            self._exec_block(node.orelse, scope)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self._infer(item.context_expr, scope)
            self._exec_block(node.body, scope)
        elif isinstance(node, ast.Try):
            self._exec_block(node.body, scope)
            for handler in node.handlers:
                self._exec_block(handler.body, scope)
            self._exec_block(node.orelse, scope)
            self._exec_block(node.finalbody, scope)
        elif isinstance(node, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._infer(child, scope)
        # FunctionDef/ClassDef bodies are handled by run(); other
        # statements carry no dimension information.

    def _target_dim(self, target: ast.expr, scope: _Scope) -> Optional[Dim]:
        if isinstance(target, ast.Name):
            return scope.lookup(target.id)
        if isinstance(target, ast.Attribute):
            return name_dim(target.attr)
        return None

    def _assign(self, target: ast.expr, dim: Optional[Dim],
                value: ast.expr, scope: _Scope) -> None:
        if isinstance(target, ast.Name):
            declared = name_dim(target.id)
            self._check_declared(target, declared, dim, value)
            scope.bind(target.id, dim)
        elif isinstance(target, ast.Attribute):
            self._check_declared(target, name_dim(target.attr), dim, value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, None, value, scope)

    def _check_declared(self, target, declared: Optional[Dim],
                        dim: Optional[Dim], value: ast.expr) -> None:
        if declared is None or dim is None:
            return
        if declared.dimensionless or dim.dimensionless:
            return
        if declared != dim:
            self.findings.append((
                "unit-mismatch", value,
                f"assigning a {dim} expression to a name declared "
                f"{declared}; convert through repro.units"))

    # -- expressions --------------------------------------------------------

    def _infer(self, node: ast.expr, scope: _Scope) -> Optional[Dim]:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) \
                    and not isinstance(node.value, bool):
                return DIMENSIONLESS
            return None
        if isinstance(node, ast.Name):
            return scope.lookup(node.id)
        if isinstance(node, ast.Attribute):
            self._infer(node.value, scope)
            return name_dim(node.attr)
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node, scope)
        if isinstance(node, ast.UnaryOp):
            return self._infer(node.operand, scope)
        if isinstance(node, ast.Compare):
            self._infer_compare(node, scope)
            return DIMENSIONLESS
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._infer(value, scope)
            return None
        if isinstance(node, ast.IfExp):
            self._infer(node.test, scope)
            body = self._infer(node.body, scope)
            orelse = self._infer(node.orelse, scope)
            return body if body == orelse else None
        if isinstance(node, ast.Call):
            return self._infer_call(node, scope)
        if isinstance(node, (ast.Await, ast.Starred)):
            return self._infer(node.value, scope)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            # `yield env.timeout(delay)` is the engine's wait idiom; the
            # yielded expression must still be dimension-checked.
            if node.value is not None:
                self._infer(node.value, scope)
            return None
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self._infer(element, scope)
            return None
        if isinstance(node, ast.Subscript):
            self._infer(node.value, scope)
            return None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return None
        return None

    def _infer_call(self, node: ast.Call, scope: _Scope) -> Optional[Dim]:
        arg_dims = [self._infer(arg, scope) for arg in node.args]
        for keyword in node.keywords:
            # `f(avg_seek_s=seek_ms)` binds a named parameter: check it
            # as an assignment to that name.
            dim = self._infer(keyword.value, scope)
            if keyword.arg is not None:
                self._check_declared(keyword, name_dim(keyword.arg), dim,
                                     keyword.value)
        target = None
        if isinstance(node.func, ast.Attribute):
            target = node.func.attr
        elif isinstance(node.func, ast.Name):
            target = node.func.id
        if target == "timeout" and arg_dims:
            arg_dim = arg_dims[0]
            if arg_dim is not None and not arg_dim.dimensionless \
                    and arg_dim != SECONDS:
                self.findings.append((
                    "unit-mismatch", node.args[0],
                    f"timeout() argument is {arg_dim}; simulated delays "
                    "are seconds — convert through repro.units"))
            return None
        if target in PASSTHROUGH_CALLS and arg_dims:
            return arg_dims[0]
        if target in JOIN_CALLS and arg_dims:
            dims = set(arg_dims)
            dims.discard(DIMENSIONLESS)
            if len(dims) == 1:
                return dims.pop()
            return None
        if target in CALL_RETURNS:
            return CALL_RETURNS[target]
        return None

    def _infer_binop(self, node: ast.BinOp, scope: _Scope) -> Optional[Dim]:
        left = self._infer(node.left, scope)
        right = self._infer(node.right, scope)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._check_additive(node, left, right)
            if left is None or right is None:
                return None
            if left.dimensionless:
                return right
            if right.dimensionless:
                return left
            return left if left == right else None
        if isinstance(node.op, (ast.Mult, ast.Div)):
            self._check_factors(node, left, right)
            if left is None or right is None:
                return None
            if isinstance(node.op, ast.Mult):
                return left.mul(right)
            return left.div(right)
        if isinstance(node.op, ast.FloorDiv):
            if left is not None and left == right:
                return DIMENSIONLESS
            return None
        if isinstance(node.op, ast.Mod):
            return left
        return None

    def _check_additive(self, node, left: Optional[Dim],
                        right: Optional[Dim]) -> None:
        if left is None or right is None:
            return
        if left.dimensionless or right.dimensionless:
            return
        if left != right:
            self.findings.append((
                "unit-mismatch", node,
                f"mixing {left} and {right} in an additive expression; "
                "convert through repro.units first"))

    def _infer_compare(self, node: ast.Compare, scope: _Scope) -> None:
        dims = [self._infer(node.left, scope)]
        dims.extend(self._infer(comparator, scope)
                    for comparator in node.comparators)
        known = [dim for dim in dims
                 if dim is not None and not dim.dimensionless]
        for first, second in zip(known, known[1:]):
            if first != second:
                self.findings.append((
                    "unit-mismatch", node,
                    f"comparing {first} against {second}; convert "
                    "through repro.units first"))

    def _check_factors(self, node: ast.BinOp, left: Optional[Dim],
                       right: Optional[Dim]) -> None:
        """The bit-byte and magic-constant rules on one Mult/Div."""
        for literal_node, other_dim in (
                (node.left, right), (node.right, left)):
            literal = _literal_number(literal_node)
            if literal is None or other_dim is None \
                    or other_dim.dimensionless:
                continue
            magnitude = abs(literal)
            if magnitude in BITBYTE_FACTORS \
                    and other_dim.involves("bit", "byte", "kb", "mb"):
                self.findings.append((
                    "unit-bitbyte", node,
                    f"raw *8//8 bit-byte conversion on a {other_dim} "
                    "quantity; use repro.units.to_bytes_per_s / to_bits "
                    "/ seconds_to_send"))
            elif magnitude in MAGIC_FACTORS:
                self.findings.append((
                    "unit-magic", node,
                    f"magic scale constant {literal:g} applied to a "
                    f"{other_dim} quantity; use a named constant or "
                    "converter from repro.units"))


def analyze_units(tree: ast.Module, path: Path) -> list[tuple[str, ast.AST,
                                                              str]]:
    """All unit findings of one module as (rule_id, node, message)."""
    return _UnitInterpreter(tree, path).run()


class UnitRule(Rule):
    """The three unit rules, from one interpreter run per module."""

    summaries = {
        "unit-mismatch":
            "arithmetic mixes incompatible dimensions (s+bytes, Mb/MB)",
        "unit-bitbyte": "raw *8 or /8 bit-byte conversion outside repro.units",
        "unit-magic":
            "magic scale constant (1000, 1e6, 1024) on a dimensioned value",
    }
    exempt_suffixes = BLESSED_SUFFIXES

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        for rule_id, node, message in analyze_units(tree, path):
            yield self.finding(path, node, message, rule_id)
