"""Determinism lint rules.

Every rule here guards the same invariant: two runs of the same scenario
with the same seed must produce bit-identical results.  The hazards are
the classic ones Gray & Kukol blame for irreproducible transfer
experiments — hidden global RNG state, wall-clock reads leaking into
simulated time, iteration orders that vary between interpreter runs, and
mutable defaults that smuggle state between simulation runs.

Rules are deliberately syntactic (no type inference): they flag the
direct forms of each hazard and accept ``# repro: allow[rule-id]`` where
a human has judged an instance safe.  See docs/CHECKING.md.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional

from .findings import Finding
from .lint import Rule, dotted_name

__all__ = ["RawRandomRule", "UnseededRngRule", "WallClockRule",
           "MutableDefaultRule", "SetIterationRule", "SaltedHashRule",
           "ImplicitSeedRule", "RecvUnguardedRule", "RetransmitUnboundedRule",
           "TimeoutUnitRule", "WALL_CLOCK_CALLS", "RANDOM_MODULE_CALLS"]

#: Calls that read the wall clock (the effects pass reuses this table).
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.clock",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Draws from the stdlib ``random`` module's shared, OS-seeded generator
#: (the effects pass extends this table with other ambient entropy).
RANDOM_MODULE_CALLS = frozenset({
    "random.random", "random.randint", "random.randrange",
    "random.uniform", "random.choice", "random.choices",
    "random.shuffle", "random.sample", "random.expovariate",
    "random.gauss", "random.normalvariate", "random.betavariate",
    "random.gammavariate", "random.paretovariate", "random.vonmisesvariate",
    "random.weibullvariate", "random.triangular", "random.lognormvariate",
    "random.getrandbits", "random.randbytes",
})


# -- shared AST helpers -------------------------------------------------------


class _ImportMap:
    """Resolves local names back to the modules they came from."""

    def __init__(self, tree: ast.Module):
        #: local alias -> dotted module name (``import time as t`` -> t: time)
        self.modules: dict[str, str] = {}
        #: local name -> fully dotted origin (``from time import time``)
        self.names: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}")

    def qualify(self, node: ast.expr) -> Optional[str]:
        """Dotted origin of a Name/Attribute chain, or None."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        head = self.modules.get(head, self.names.get(head, head))
        return f"{head}.{rest}" if rest else head


def _call_name(imports: _ImportMap, call: ast.Call) -> Optional[str]:
    return imports.qualify(call.func)


def _is_set_expression(node: ast.expr, imports: _ImportMap) -> bool:
    """True for a set display, set comprehension, or set()/frozenset() call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(imports, node)
        return name in ("set", "frozenset")
    return False


# -- the rules ----------------------------------------------------------------


class RawRandomRule(Rule):
    """All RNG flows through des/random_streams.py — nowhere else.

    An import of the stdlib ``random`` module anywhere else bypasses the
    named-stream discipline: draws would come from an unnamed (possibly
    shared, possibly unseeded) generator, and adding one component would
    perturb every other component's variates.
    """

    summaries = {"raw-random":
                 "stdlib `random` imported outside des/random_streams.py"}
    #: random_streams.py is the sanctioned draw root; check/sanitize.py
    #: imports the module only to *patch* its draw functions with trip
    #: wires while a hermetic block runs — the opposite of drawing.
    exempt_suffixes = ("des/random_streams.py", "check/sanitize.py")

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        yield self.finding(
                            path, node,
                            "import of stdlib `random`; draw variates from "
                            "a named des.RandomStream instead")
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] == "random":
                    yield self.finding(
                        path, node,
                        "import from stdlib `random`; draw variates from "
                        "a named des.RandomStream instead")


class UnseededRngRule(Rule):
    """No draws from implicitly seeded generators.

    ``random.Random()`` with no seed and the module-level functions
    (``random.random()`` …) both seed from the OS — different on every
    run.  Fires even inside des/random_streams.py, which must construct
    ``random.Random(seed)`` explicitly.
    """

    summaries = {"unseeded-rng":
                 "RNG constructed or drawn without an explicit seed"}

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        imports = _ImportMap(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(imports, node)
            if name is None:
                continue
            if name in RANDOM_MODULE_CALLS:
                yield self.finding(
                    path, node,
                    f"`{name}()` draws from the shared, OS-seeded global "
                    "RNG; use a seeded des.RandomStream")
            elif name in ("random.Random", "random.SystemRandom"):
                if name == "random.SystemRandom" or not (
                        node.args or node.keywords):
                    yield self.finding(
                        path, node,
                        f"`{name}()` without an explicit seed is "
                        "nondeterministic across runs")


class WallClockRule(Rule):
    """Simulated time only: no wall-clock reads in model code.

    A ``time.time()`` (or friends) folded into any simulated quantity
    makes results depend on host speed and scheduling.  Real-time reads
    belong only in reporting code, with an explicit allow comment.
    """

    summaries = {"wall-clock": "wall-clock read in simulation code"}

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        imports = _ImportMap(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(imports, node)
            if name in WALL_CLOCK_CALLS:
                yield self.finding(
                    path, node,
                    f"`{name}()` reads the wall clock; simulation code "
                    "must use env.now")


class MutableDefaultRule(Rule):
    """No mutable default arguments.

    A mutable default is evaluated once at import time and then shared by
    every call — in event handlers and model constructors that means state
    silently bleeding between simulation runs.
    """

    summaries = {"mutable-default": "mutable default argument"}

    _MUTABLE_CALLS = frozenset({
        "list", "dict", "set", "bytearray",
        "collections.deque", "collections.defaultdict",
        "collections.Counter", "collections.OrderedDict",
    })

    def _is_mutable(self, node: ast.expr, imports: _ImportMap) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return _call_name(imports, node) in self._MUTABLE_CALLS
        return False

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        imports = _ImportMap(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            arguments = node.args
            positional = arguments.posonlyargs + arguments.args
            pairs = list(zip(positional[len(positional)
                                        - len(arguments.defaults):],
                             arguments.defaults))
            pairs.extend((arg, default) for arg, default
                         in zip(arguments.kwonlyargs, arguments.kw_defaults)
                         if default is not None)
            for arg, default in pairs:
                if self._is_mutable(default, imports):
                    yield self.finding(
                        path, default,
                        f"mutable default for `{arg.arg}` in "
                        f"`{node.name}()` is shared across calls")


class SetIterationRule(Rule):
    """No direct iteration over sets in model code.

    Set iteration order depends on insertion history and element hashes
    (salted for str/bytes), so a loop body with side effects on the
    calendar makes the whole run irreproducible.  Iterate a sorted copy.
    """

    summaries = {"set-iteration":
                 "iteration over a set (order is not deterministic)"}

    _PASSTHROUGH = ("enumerate", "reversed")

    def _flag_target(self, node: ast.expr,
                     imports: _ImportMap) -> Optional[ast.expr]:
        if _is_set_expression(node, imports):
            return node
        if isinstance(node, ast.Call):
            name = _call_name(imports, node)
            if name in self._PASSTHROUGH and node.args and \
                    _is_set_expression(node.args[0], imports):
                return node.args[0]
        return None

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        imports = _ImportMap(tree)
        iters: list[ast.expr] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
        for target in iters:
            flagged = self._flag_target(target, imports)
            if flagged is not None:
                yield self.finding(
                    path, flagged,
                    "iterating a set: order varies between runs; iterate "
                    "`sorted(...)` instead")


class SaltedHashRule(Rule):
    """No builtin ``hash()`` in model code.

    ``hash(str)`` / ``hash(bytes)`` are salted per interpreter run
    (PYTHONHASHSEED), so anything derived from them — child seeds, shard
    choices, tie-breaks — changes between runs.  Use a stable digest
    (e.g. the FNV in des/random_streams.py).
    """

    summaries = {"salted-hash": "builtin hash() is salted per interpreter run"}

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "hash"):
                yield self.finding(
                    path, node,
                    "builtin hash() output changes with PYTHONHASHSEED; "
                    "use a stable digest")


class ImplicitSeedRule(Rule):
    """Stream factories must be given their master seed explicitly.

    ``StreamFactory()`` silently takes seed 0; library code that buries
    that default cannot be reseeded for independent samples, which is
    exactly the seed-threading gap that makes repeated-run confidence
    intervals meaningless.
    """

    summaries = {"implicit-seed":
                 "StreamFactory() constructed without an explicit master seed"}

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        imports = _ImportMap(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(imports, node)
            if name is not None and name.endswith("StreamFactory"):
                if not node.args and not node.keywords:
                    yield self.finding(
                        path, node,
                        "StreamFactory() with no master seed; thread the "
                        "caller's seed through")
            # dataclasses.field(default_factory=StreamFactory) calls
            # StreamFactory() seedlessly at instantiation time.
            for keyword in node.keywords:
                if keyword.arg != "default_factory":
                    continue
                target = imports.qualify(keyword.value)
                if target is not None and target.endswith("StreamFactory"):
                    yield self.finding(
                        path, keyword.value,
                        "default_factory=StreamFactory constructs an "
                        "implicitly seeded factory; require the caller "
                        "to pass one")


# -- transport-readiness rules ------------------------------------------------
#
# The asyncio sockets backend will run the same protocol code over real
# UDP, where an unguarded wait hangs forever, an unbounded retransmit
# loop floods the network, and a unit-less timeout constant invites a
# 1000x mix-up.  These rules keep the protocol code honest before the
# backend lands.


class RecvUnguardedRule(Rule):
    """Every receive over the lossy transport must be timeout-guarded.

    ``yield sock.recv()`` blocks forever if the datagram was dropped;
    client-side code must use ``recv_wait(timeout_s, ...)``.  A server's
    accept loop may legitimately block for the next request — those
    files carry the exemption.
    """

    summaries = {"recv-unguarded":
                 "bare `yield sock.recv()` with no timeout guard"}
    exempt_suffixes = ("core/storage_agent.py", "baselines/nfs.py")

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Yield) or node.value is None:
                continue
            call = node.value
            if (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "recv"):
                yield self.finding(
                    path, node,
                    "bare `yield .recv()` blocks forever on datagram "
                    "loss; use recv_wait(timeout_s, ...) with a bound")


class RetransmitUnboundedRule(Rule):
    """Retransmit loops need an attempt bound.

    A ``while True`` loop around a ``recv_wait`` retries forever when
    the peer is gone: over real sockets that is an unkillable flood.
    Loop over ``range(max_retries)`` and surface the failure.
    """

    summaries = {"retransmit-unbounded":
                 "`while True` retransmit loop without an attempt bound"}

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.While)
                    and isinstance(node.test, ast.Constant)
                    and node.test.value is True):
                continue
            for inner in ast.walk(node):
                if (isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Attribute)
                        and inner.func.attr == "recv_wait"):
                    yield self.finding(
                        path, node,
                        "`while True` around recv_wait retries without "
                        "bound; loop over range(max_retries) and raise "
                        "on exhaustion")
                    break


class TimeoutUnitRule(Rule):
    """Timeout constants carry their unit in the name.

    A bare ``timeout = 5`` leaves seconds-vs-milliseconds to the
    reader; every timeout bound to a numeric literal must spell its
    unit (``_s``, ``_ms``, ``_us``, ``_ns``) so the future asyncio
    backend cannot misread a DES constant.
    """

    summaries = {"timeout-unit":
                 "timeout constant without a unit suffix in its name"}

    _UNIT_SUFFIXES = ("_s", "_ms", "_us", "_ns")

    def _is_bad_name(self, name: str) -> bool:
        lowered = name.lower()
        if not (lowered == "timeout" or lowered.endswith("_timeout")
                or lowered.startswith("timeout_")):
            return False
        return not lowered.endswith(self._UNIT_SUFFIXES)

    def _is_number(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, (int, float)) and not isinstance(
                node.value, bool)
        if isinstance(node, ast.UnaryOp) and isinstance(
                node.op, (ast.USub, ast.UAdd)):
            return self._is_number(node.operand)
        return False

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and self._is_number(node.value):
                for target in node.targets:
                    if (isinstance(target, ast.Name)
                            and self._is_bad_name(target.id)):
                        yield self.finding(
                            path, target,
                            f"`{target.id}` bound to a bare number: name "
                            "the unit (e.g. `timeout_s`)")
            elif isinstance(node, ast.AnnAssign) and node.value is not None \
                    and self._is_number(node.value):
                if (isinstance(node.target, ast.Name)
                        and self._is_bad_name(node.target.id)):
                    yield self.finding(
                        path, node.target,
                        f"`{node.target.id}` bound to a bare number: name "
                        "the unit (e.g. `timeout_s`)")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = node.args
                positional = arguments.posonlyargs + arguments.args
                pairs = list(zip(
                    positional[len(positional) - len(arguments.defaults):],
                    arguments.defaults))
                pairs.extend(
                    (arg, default) for arg, default
                    in zip(arguments.kwonlyargs, arguments.kw_defaults)
                    if default is not None)
                for arg, default in pairs:
                    if self._is_bad_name(arg.arg) and self._is_number(default):
                        yield self.finding(
                            path, default,
                            f"parameter `{arg.arg}` defaults to a bare "
                            "number: name the unit (e.g. `timeout_s`)")
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if (keyword.arg is not None
                            and self._is_bad_name(keyword.arg)
                            and self._is_number(keyword.value)):
                        yield self.finding(
                            path, keyword.value,
                            f"keyword `{keyword.arg}` passed a bare "
                            "number: name the unit (e.g. `timeout_s`)")

