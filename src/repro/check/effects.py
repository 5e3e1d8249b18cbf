"""Effect-and-purity analysis: the ``effects`` pass of ``repro check``.

``sim/cache.py`` stakes the whole sweep pipeline on one sentence: *every
run is a pure function of (SimConfig, code version)*.  The determinism
lints check straight-line hazards (a literal ``time.time()`` call, a bare
``random`` import), but nothing verified the claim *whole-program*: a
wall-clock read three calls below ``SwiftSimModel.run`` poisons every
cached result just as surely as one in ``run`` itself, and a module
global mutated by a pool worker survives worker reuse and leaks into the
next task's run.

This module closes that gap with a call-graph effect analysis:

1. **module-resolved call graph** — every ``def`` in the audited tree
   becomes a node; calls are resolved through imports (including package
   ``__init__`` re-exports, whether imported or served lazily from an
   :data:`EXPORT_TABLE` literal), ``self`` methods, locally constructed
   instances (``v = ClassName(...)``), annotated parameters, attribute
   types recorded from ``__init__`` bodies, nested functions, and — for
   package-unique method names outside :data:`GENERIC_METHOD_NAMES` — a
   last-resort unique-name match.  Unresolvable dynamic calls are
   dropped (documented best-effort, like every pass in this package).
2. **per-function effect signatures** — direct effects (ambient time /
   randomness / environment / filesystem / process state, module-global
   reads and writes) are inferred per function, then propagated
   bottom-up through the condensation of the call graph: Tarjan SCCs,
   reverse topological order, every member of an SCC sharing the union
   summary.  The fixpoint is therefore one linear pass.
3. **three contracts** checked over reachability from declared (or
   marker-discovered) entry points:

   * **cache-soundness** — everything reachable from the cached entry
     points (:data:`CACHED_ENTRY_POINTS`, i.e. the function
     :class:`~repro.sim.cache.ResultCache` stores results of) must
     depend only on keyed inputs: no ambient reads
     (``effect-ambient-read``), no randomness outside the sanctioned
     ``des/random_streams.py`` root (``effect-unseeded-random``), no
     reads of module globals that some function mutates
     (``effect-unkeyed-input`` — mutable state is invisible to the
     cache key; immutable module constants are covered by the code
     digest and pass freely).
   * **worker-hermeticity** — functions shipped to ``multiprocessing``
     pools (discovered syntactically from ``pool.map(...)``-style
     dispatch sites, plus ``repro: worker-entry`` markers) must not
     transitively write module globals that survive worker reuse
     (``effect-global-write``).  The sanctioned exceptions live in
     :data:`ALLOWED_GLOBAL_WRITES` — declared, not hardcoded: the
     ``sim.cache._code_version_cache`` per-process memo is idempotent
     (every process computes the same digest) and therefore safe.
   * **bench-determinism** — benchmark/figure entry points
     (:data:`BENCH_ENTRY_MODULES` public functions, plus ``repro:
     bench-entry`` markers) must route every stochastic draw through
     seeded streams (``effect-unseeded-random``).

Entry points can also be declared in source: a function whose docstring
contains ``repro: cached-entry``, ``repro: worker-entry`` or ``repro:
bench-entry`` joins the corresponding root set (fixtures and future
subsystems opt in without editing this file).

``# repro: allow[effects]`` (or a specific rule id) on the flagged line
or the line above suppresses a finding; the acceptance bar for the
shipped tree is zero suppressions.  ``repro check --rules effects`` runs
just this pass.

The runtime companion — snapshot/diff of registered module globals and
ambient-read traps around cached runs — is
:class:`repro.check.sanitize.HermeticitySanitizer`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .findings import Finding, Severity
from .lint import allowed_rules, dotted_name, is_suppressed, iter_python_files
from .rules import RANDOM_MODULE_CALLS, WALL_CLOCK_CALLS

__all__ = [
    "EFFECT_RULES",
    "EXPORT_TABLE",
    "ALLOWED_GLOBAL_WRITES",
    "CACHED_ENTRY_POINTS",
    "BENCH_ENTRY_MODULES",
    "GENERIC_METHOD_NAMES",
    "RANDOMNESS_ROOT_SUFFIXES",
    "EffectStats",
    "analyze_effects",
    "build_program",
]

#: The module-level literal a package ``__init__`` serves its exports
#: from (``repro._lazy_exports``): export name -> the submodule defining
#: it, a name mapped to itself being that submodule.  Its entries are
#: re-exports exactly like ``from .submodule import name`` lines.
EXPORT_TABLE = "_EXPORTS"

#: The rules this pass reports: rule id -> one-line summary.
EFFECT_RULES = {
    "effect-ambient-read": "wall-clock/env/filesystem/process state read "
                           "reachable from a cached entry point",
    "effect-global-write": "module-global mutation reachable from "
                           "pool-dispatched or cached code (undeclared memo)",
    "effect-unkeyed-input": "read of mutated module-global state invisible "
                            "to the cache key",
    "effect-unseeded-random": "stochastic draw outside des/random_streams "
                              "reachable from a cached or benchmark entry "
                              "point",
}

#: Functions whose results :class:`~repro.sim.cache.ResultCache` stores:
#: the roots of the cache-soundness contract.  ``_run_config`` is the
#: literal cached unit of work; the model's constructor and ``run`` are
#: listed explicitly so the contract holds even when the serial
#: ``sweep.load_sweep`` path (which bypasses ``_run_config``) is cached.
CACHED_ENTRY_POINTS = (
    "repro.sim.parallel._run_config",
    "repro.sim.model.SwiftSimModel.__init__",
    "repro.sim.model.SwiftSimModel.run",
)

#: Modules whose public (non-underscore) top-level functions are
#: benchmark/figure entry points for the bench-determinism contract.
BENCH_ENTRY_MODULES = (
    "repro.sim.figures",
    "repro.sim.sweep",
)

#: Module globals a worker may write: fully qualified name -> why the
#: write is sound under worker reuse.  This is the *declared* exception
#: list the issue demands — an undeclared write is a finding even if it
#: looks like a memo.
ALLOWED_GLOBAL_WRITES = {
    "repro.sim.cache._code_version_cache":
        "per-process memo; every process recomputes the identical digest, "
        "so reuse cannot change any result",
}

#: Modules allowed to contain raw randomness: the seeded-stream root.
RANDOMNESS_ROOT_SUFFIXES = ("des/random_streams.py",)

#: Method names too generic for unique-name call resolution: they shadow
#: builtin container/file methods, so an attribute call like ``d.get(k)``
#: on an untyped receiver must stay unresolved rather than binding to
#: the one package class that happens to define ``get``.
GENERIC_METHOD_NAMES = frozenset({
    "add", "append", "apply", "clear", "close", "copy", "count", "decode",
    "encode", "extend", "format", "get", "index", "insert", "items", "join",
    "keys", "map", "open", "pop", "popleft", "put", "read", "recv",
    "release", "remove", "replace", "request", "reset", "run", "send",
    "sort", "split", "start", "stop", "strip", "update", "values", "wait",
    "write",
})

#: Docstring markers that declare a function as a contract entry point.
_ENTRY_MARKERS = {
    "repro: cached-entry": "cached",
    "repro: worker-entry": "worker",
    "repro: bench-entry": "bench",
}

# -- ambient-effect tables ----------------------------------------------------

_RANDOM_CALLS = RANDOM_MODULE_CALLS | {
    "random.seed", "os.urandom", "secrets.token_bytes", "secrets.token_hex",
    "secrets.randbelow", "secrets.choice", "uuid.uuid1", "uuid.uuid4",
}

_ENV_CALLS = frozenset({
    "os.getenv", "os.environ.get", "os.environb.get", "os.putenv",
})

#: Attribute chains whose bare *read* is an ambient-environment access.
_ENV_ATTRIBUTES = frozenset({"os.environ", "os.environb"})

_PROCESS_CALLS = frozenset({
    "os.getpid", "os.getppid", "os.cpu_count", "os.uname", "os.getcwd",
    "multiprocessing.cpu_count", "platform.node", "socket.gethostname",
})

#: Attribute chains whose read leaks process identity/configuration.
_PROCESS_ATTRIBUTES = frozenset({"sys.argv"})

_FS_CALLS = frozenset({
    "open", "io.open", "os.replace", "os.remove", "os.rename", "os.listdir",
    "os.scandir", "os.makedirs", "os.stat", "os.path.exists",
    "os.path.getsize", "os.path.getmtime", "shutil.rmtree", "shutil.copy",
    "shutil.copyfile", "shutil.move", "tempfile.mkdtemp", "tempfile.mkstemp",
    "tempfile.NamedTemporaryFile", "tempfile.TemporaryDirectory",
})

#: Method names that touch the real filesystem on any plausible receiver
#: (``Path`` objects travel untyped through this tree, so these resolve
#: by name; they are specific enough not to collide with model code).
_FS_METHODS = frozenset({
    "read_text", "read_bytes", "write_text", "write_bytes", "rglob",
    "glob", "iterdir", "mkdir", "rmdir", "unlink", "touch", "hardlink_to",
    "symlink_to", "samefile",
})

#: Receiver method calls that mutate the receiver in place (used for
#: module-global mutation detection).
_MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "pop", "popitem", "popleft", "remove", "setdefault", "sort", "update",
})

#: Effect kinds -> human noun used in messages.
_AMBIENT_NOUNS = {
    "time": "wall-clock read",
    "random": "ambient randomness",
    "env": "environment read",
    "fs": "filesystem access",
    "process": "process-state read",
}


# -- program model ------------------------------------------------------------


@dataclass
class EffectSite:
    """One direct effect occurrence inside a function body."""

    kind: str       # time | random | env | fs | process
    detail: str     # e.g. "time.time()" or "os.environ[...]"
    line: int


@dataclass
class GlobalSite:
    """One module-global read or write inside a function body."""

    name: str       # fully qualified global, e.g. repro.sim.cache._memo
    detail: str     # how: "x[...] = ...", "next(x)", "x.append(...)"
    line: int


@dataclass
class FunctionInfo:
    """One analyzed function/method and its direct behaviour."""

    qualname: str
    module: str
    path: Path
    node: ast.AST
    class_name: Optional[str] = None
    effects: list[EffectSite] = field(default_factory=list)
    global_writes: list[GlobalSite] = field(default_factory=list)
    global_reads: list[GlobalSite] = field(default_factory=list)
    calls: set[str] = field(default_factory=set)
    entry_kinds: set[str] = field(default_factory=set)


@dataclass
class ClassInfo:
    """One analyzed class: methods, bases, inferred attribute types."""

    qualname: str
    module: str
    bases: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)
    body_lambda_effects: list[EffectSite] = field(default_factory=list)
    body_lambda_globals: list[GlobalSite] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """One parsed module: symbol table and import environment."""

    name: str
    path: Path
    tree: ast.Module
    #: local top-level name -> fully qualified target (imports + defs).
    symbols: dict[str, str] = field(default_factory=dict)
    #: module-level assigned names (candidates for global state).
    module_globals: set[str] = field(default_factory=set)


@dataclass
class EffectStats:
    """Call-graph metrics reported next to the findings."""

    functions: int = 0
    modules: int = 0
    edges: int = 0
    sccs: int = 0
    cached_entries: tuple[str, ...] = ()
    worker_entries: tuple[str, ...] = ()
    bench_entries: tuple[str, ...] = ()

    def render_text(self) -> str:
        return (
            f"effects: {self.functions} function(s) across "
            f"{self.modules} module(s), {self.edges} call edge(s), "
            f"{self.sccs} SCC(s); entries: "
            f"{len(self.cached_entries)} cached, "
            f"{len(self.worker_entries)} worker, "
            f"{len(self.bench_entries)} bench")

    def to_dict(self) -> dict:
        return {
            "functions": self.functions,
            "modules": self.modules,
            "edges": self.edges,
            "sccs": self.sccs,
            "entries": {
                "cached": list(self.cached_entries),
                "worker": list(self.worker_entries),
                "bench": list(self.bench_entries),
            },
        }


# -- module loading -----------------------------------------------------------


def _module_name(path: Path) -> str:
    """Dotted module name for ``path`` (anchored at the ``repro`` package
    when the file lives inside one; bare stem otherwise — fixtures)."""
    parts = list(Path(path).resolve().parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for anchor in range(len(parts) - 1, -1, -1):
        if parts[anchor] == "repro":
            return ".".join(parts[anchor:])
    return parts[-1] if parts else str(path)


def _is_package_init(path: Path) -> bool:
    return Path(path).name == "__init__.py"


def _resolve_import_base(module: ModuleInfo, level: int) -> str:
    """The package a relative import of ``level`` resolves against."""
    parts = module.name.split(".")
    if not _is_package_init(module.path):
        parts = parts[:-1]
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    return ".".join(parts)


class _Program:
    """The whole analyzed program: modules, classes, functions, aliases."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: re-export chains: imported qualname -> source qualname.
        self.aliases: dict[str, str] = {}
        #: method name -> class qualnames defining it (unique-name fallback).
        self.methods_by_name: dict[str, set[str]] = {}
        #: fully-qualified module globals written anywhere.
        self.mutated_globals: set[str] = set()
        #: file -> its allow comments (line -> granted rule ids).
        self.allowed: dict[Path, dict[int, set[str]]] = {}

    def canonical(self, qualname: str) -> str:
        """Follow ``__init__`` re-export chains to the defining module."""
        seen = set()
        while qualname in self.aliases and qualname not in seen:
            seen.add(qualname)
            qualname = self.aliases[qualname]
        return qualname

    def lookup_callable(self, qualname: str) -> Optional[str]:
        """Resolve ``qualname`` to a known function (class -> __init__)."""
        target = self.canonical(qualname)
        if target in self.functions:
            return target
        if target in self.classes:
            init = self.classes[target].methods.get("__init__")
            return init
        return None


# -- pass 1: collect modules, classes, functions ------------------------------


def _collect_module(program: _Program, path: Path) -> None:
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError:
        return  # the lint walk of ``run_check`` reports unparseable files
    module = ModuleInfo(name=_module_name(path), path=path, tree=tree)
    program.allowed[path] = allowed_rules(source)
    program.modules[module.name] = module

    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                module.symbols[local] = (alias.name if alias.asname
                                         else alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            base = (_resolve_import_base(module, node.level)
                    if node.level else "")
            origin = ".".join(p for p in (base, node.module or "") if p)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                target = f"{origin}.{alias.name}" if origin else alias.name
                module.symbols[local] = target
                program.aliases[f"{module.name}.{local}"] = target
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{module.name}.{node.name}"
            module.symbols[node.name] = qualname
            program.functions[qualname] = FunctionInfo(
                qualname=qualname, module=module.name, path=path, node=node)
        elif isinstance(node, ast.ClassDef):
            _collect_class(program, module, path, node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    module.module_globals.add(target.id)
                    module.symbols.setdefault(
                        target.id, f"{module.name}.{target.id}")
            if (isinstance(node.value, ast.Dict) and _is_package_init(path)
                    and any(isinstance(target, ast.Name)
                            and target.id == EXPORT_TABLE
                            for target in targets)):
                _collect_export_table(program, module, node.value)


def _collect_export_table(program: _Program, module: ModuleInfo,
                          table: ast.Dict) -> None:
    """Record a package's :data:`EXPORT_TABLE` entries as re-exports."""
    for key, value in zip(table.keys, table.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)):
            continue
        name, submodule = key.value, value.value
        origin = f"{module.name}.{submodule}"
        target = origin if submodule == name else f"{origin}.{name}"
        module.symbols[name] = target
        program.aliases[f"{module.name}.{name}"] = target


def _collect_class(program: _Program, module: ModuleInfo, path: Path,
                   node: ast.ClassDef) -> None:
    qualname = f"{module.name}.{node.name}"
    module.symbols[node.name] = qualname
    info = ClassInfo(qualname=qualname, module=module.name)
    program.classes[qualname] = info
    for base in node.bases:
        dotted = dotted_name(base)
        if dotted is not None:
            resolved = module.symbols.get(dotted.split(".")[0])
            if resolved is not None and "." in dotted:
                dotted = resolved + dotted[dotted.index("."):]
            elif resolved is not None:
                dotted = resolved
            info.bases.append(dotted)
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method_qualname = f"{qualname}.{item.name}"
            info.methods[item.name] = method_qualname
            program.functions[method_qualname] = FunctionInfo(
                qualname=method_qualname, module=module.name, path=path,
                node=item, class_name=qualname)
            program.methods_by_name.setdefault(item.name, set()).add(qualname)


# -- pass 2: per-function analysis --------------------------------------------


class _FunctionAnalyzer:
    """Extracts direct effects, global accesses and call edges from one
    function body (flow-insensitive; nested lambdas included, nested
    ``def``\\ s analyzed as their own nodes but resolvable by local name).
    """

    def __init__(self, program: _Program, module: ModuleInfo,
                 info: FunctionInfo):
        self.program = program
        self.module = module
        self.info = info
        self.locals: set[str] = set()
        #: local name -> class qualname (constructed/annotated receivers).
        self.var_types: dict[str, str] = {}
        #: local name -> nested function qualname.
        self.local_functions: dict[str, str] = {}
        #: function-scoped imports (`from .cache import config_key` inside
        #: a worker body is the lazy-import idiom this tree uses to break
        #: cycles); consulted before the module symbol table.
        self.func_symbols: dict[str, str] = {}

    # -- scope preparation --------------------------------------------------

    def prepare(self) -> None:
        node = self.info.node
        args = node.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs
                    + ([args.vararg] if args.vararg else [])
                    + ([args.kwarg] if args.kwarg else [])):
            self.locals.add(arg.arg)
            if arg.annotation is not None:
                annotated = self._resolve_annotation(arg.annotation)
                if annotated is not None:
                    self.var_types[arg.arg] = annotated
        declared_global: set[str] = set()
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    self._bind_target(target)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                self._bind_target(stmt.target)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._bind_target(stmt.target)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if item.optional_vars is not None:
                        self._bind_target(item.optional_vars)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and stmt is not node:
                self.locals.add(stmt.name)
            elif isinstance(stmt, comprehension_types):
                for gen in stmt.generators:
                    self._bind_target(gen.target)
            elif isinstance(stmt, ast.ExceptHandler) and stmt.name:
                self.locals.add(stmt.name)
            elif isinstance(stmt, ast.Global):
                declared_global.update(stmt.names)
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.func_symbols[local] = (
                        alias.name if alias.asname
                        else alias.name.split(".")[0])
            elif isinstance(stmt, ast.ImportFrom):
                base = (_resolve_import_base(self.module, stmt.level)
                        if stmt.level else "")
                origin = ".".join(
                    p for p in (base, stmt.module or "") if p)
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.func_symbols[local] = (
                        f"{origin}.{alias.name}" if origin else alias.name)
        # `global x` makes x *not* local: writes hit the module.  The
        # walk reaches the declaration before the rebinding it governs,
        # so the names come off only once every binding has been seen.
        self.locals -= declared_global

    def _bind_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.locals.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value)

    def _resolve_annotation(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = dotted_name(node)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        resolved = self.module.symbols.get(head, head)
        qualname = f"{resolved}.{rest}" if rest else resolved
        qualname = self.program.canonical(qualname)
        return qualname if qualname in self.program.classes else None

    # -- name resolution ----------------------------------------------------

    def qualify(self, node: ast.expr) -> Optional[str]:
        """Dotted origin of a Name/Attribute chain through the imports."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in self.locals and head not in self.local_functions \
                and head not in self.func_symbols:
            return None
        resolved = self.func_symbols.get(head)
        if resolved is None:
            resolved = self.module.symbols.get(head)
        if resolved is None:
            resolved = self.local_functions.get(head, head)
        return f"{resolved}.{rest}" if rest else resolved

    def _receiver_class(self, node: ast.expr) -> Optional[str]:
        """Class qualname of an attribute-call receiver, if inferable."""
        if isinstance(node, ast.Name):
            if node.id == "self" and self.info.class_name:
                return self.info.class_name
            return self.var_types.get(node.id)
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "self" and self.info.class_name:
            klass = self.program.classes.get(self.info.class_name)
            while klass is not None:
                if node.attr in klass.attr_types:
                    return klass.attr_types[node.attr]
                klass = self._parent(klass)
        if isinstance(node, ast.Call):
            return self._return_type(node)
        return None

    def _parent(self, klass: ClassInfo) -> Optional[ClassInfo]:
        for base in klass.bases:
            resolved = self.program.canonical(
                base if "." in base
                else self.module.symbols.get(base, base))
            parent = self.program.classes.get(resolved)
            if parent is not None:
                return parent
        return None

    def _return_type(self, call: ast.Call) -> Optional[str]:
        """Class qualname a call evaluates to (constructor or single-
        return-of-constructor function)."""
        qualname = self.qualify(call.func)
        if qualname is None:
            return None
        target = self.program.canonical(qualname)
        if target in self.program.classes:
            return target
        func = self.program.functions.get(target)
        if func is not None:
            for stmt in ast.walk(func.node):
                if isinstance(stmt, ast.Return) and \
                        isinstance(stmt.value, ast.Call):
                    dotted = dotted_name(stmt.value.func)
                    if dotted is None:
                        continue
                    owner = self.program.modules.get(func.module)
                    if owner is None:
                        continue
                    head, _, rest = dotted.partition(".")
                    resolved = owner.symbols.get(head, head)
                    candidate = self.program.canonical(
                        f"{resolved}.{rest}" if rest else resolved)
                    if candidate in self.program.classes:
                        return candidate
        return None

    def _method_in_chain(self, class_qualname: str,
                         method: str) -> Optional[str]:
        klass = self.program.classes.get(class_qualname)
        seen = set()
        while klass is not None and klass.qualname not in seen:
            seen.add(klass.qualname)
            if method in klass.methods:
                return klass.methods[method]
            klass = self._parent(klass)
        return None

    # -- the walk -----------------------------------------------------------

    def analyze(self) -> None:
        self.prepare()
        self._record_var_types()
        body = getattr(self.info.node, "body", [])
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and node is not self.info.node:
                    # Nested defs are separate nodes; only note the local
                    # binding so calls to them resolve.
                    nested = f"{self.info.qualname}.<locals>.{node.name}"
                    if nested in self.program.functions:
                        self.local_functions[node.name] = nested
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                self._visit(node)

    def _record_var_types(self) -> None:
        for stmt in ast.walk(self.info.node):
            if isinstance(stmt, ast.Assign) and \
                    isinstance(stmt.value, ast.Call):
                klass = self._return_type(stmt.value)
                if klass is None:
                    continue
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.var_types[target.id] = klass
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                annotated = self._resolve_annotation(stmt.annotation)
                if annotated is not None:
                    self.var_types[stmt.target.id] = annotated

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            self._visit_call(node)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            dotted = self.qualify(node)
            if dotted in _ENV_ATTRIBUTES:
                self._effect("env", f"{dotted}", node)
            elif dotted in _PROCESS_ATTRIBUTES:
                self._effect("process", f"{dotted}", node)
            elif isinstance(node.value, ast.Name) and \
                    node.value.id == "self" and self.info.class_name:
                # A bare read of `self.<method>` is a method reference
                # that escapes — callback registration (state machines
                # append bound state methods to event callback lists) or
                # a bound-method cache (`self._bound_step = self._step`).
                # Assume the reference is eventually called.
                resolved = self._method_in_chain(self.info.class_name,
                                                 node.attr)
                if resolved is not None:
                    self.info.calls.add(resolved)
        elif isinstance(node, ast.Subscript):
            self._visit_subscript(node)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            self._visit_store(node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            self._visit_name_load(node)

    def _visit_call(self, node: ast.Call) -> None:
        qualname = self.qualify(node.func)
        # next(module_global) advances shared iterator state (the
        # itertools.count id-counter pattern): both a read and a write.
        if isinstance(node.func, ast.Name) and node.func.id == "next" \
                and node.args:
            target = self._global_name(node.args[0])
            if target is not None:
                self._global_write(target, "next() advances the module-"
                                            "global iterator", node)
        if qualname is not None:
            if qualname in WALL_CLOCK_CALLS:
                self._effect("time", f"{qualname}()", node)
            elif qualname in _RANDOM_CALLS:
                self._effect("random", f"{qualname}()", node)
            elif qualname in ("random.Random", "random.SystemRandom"):
                if qualname == "random.SystemRandom" or not (
                        node.args or node.keywords):
                    self._effect("random", f"{qualname}()", node)
            elif qualname in _ENV_CALLS:
                self._effect("env", f"{qualname}()", node)
            elif qualname in _FS_CALLS:
                self._effect("fs", f"{qualname}()", node)
            elif qualname in _PROCESS_CALLS:
                self._effect("process", f"{qualname}()", node)
        self._resolve_call_edge(node, qualname)
        # Mutator method on a module global: a global write.
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in _MUTATOR_METHODS:
            target = self._global_name(node.func.value)
            if target is not None:
                self._global_write(
                    target, f".{node.func.attr}(...) mutates it in place",
                    node)

    def _resolve_call_edge(self, node: ast.Call,
                           qualname: Optional[str]) -> None:
        if qualname is not None:
            resolved = self.program.lookup_callable(qualname)
            if resolved is not None:
                self.info.calls.add(resolved)
                return
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            if method in _FS_METHODS:
                self._effect("fs", f".{method}(...)", node)
                return
            receiver = self._receiver_class(node.func.value)
            if receiver is not None:
                resolved = self._method_in_chain(receiver, method)
                if resolved is not None:
                    self.info.calls.add(resolved)
                    return
            # Unique-name fallback for specific, package-unique methods.
            if method not in GENERIC_METHOD_NAMES:
                owners = self.program.methods_by_name.get(method, ())
                if len(owners) == 1:
                    klass = next(iter(owners))
                    self.info.calls.add(
                        self.program.classes[klass].methods[method])

    def _visit_subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            target = self._global_name(node.value)
            if target is not None:
                self._global_write(target, "subscript store", node)

    def _visit_store(self, node: ast.AST) -> None:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if isinstance(target, ast.Name) and \
                    target.id not in self.locals and \
                    target.id in self.module.module_globals:
                # Only reachable via a `global` declaration (prepare()
                # removed the name from locals).
                self._global_write(
                    f"{self.module.name}.{target.id}", "rebinding", node)
            elif isinstance(target, ast.Attribute):
                dotted = self.qualify(target)
                if dotted is None:
                    continue
                owner, _, attr = dotted.rpartition(".")
                if owner in self.program.modules and attr:
                    self._global_write(dotted, "attribute store", node)

    def _visit_name_load(self, node: ast.Name) -> None:
        if node.id in self.locals or node.id in self.local_functions:
            return
        if node.id in self.module.module_globals:
            self.info.global_reads.append(GlobalSite(
                name=f"{self.module.name}.{node.id}",
                detail=f"reads module global `{node.id}`",
                line=node.lineno))

    def _global_name(self, node: ast.expr) -> Optional[str]:
        """Fully qualified module-global named by ``node``, else None."""
        if isinstance(node, ast.Name):
            if node.id in self.locals:
                return None
            if node.id in self.module.module_globals:
                return f"{self.module.name}.{node.id}"
            resolved = self.func_symbols.get(
                node.id, self.module.symbols.get(node.id))
            if resolved is not None and "." in resolved:
                return resolved
            return None
        dotted = self.qualify(node)
        if dotted is None:
            return None
        owner, _, attr = dotted.rpartition(".")
        if owner in self.program.modules and attr:
            return dotted
        return None

    def _effect(self, kind: str, detail: str, node: ast.AST) -> None:
        self.info.effects.append(EffectSite(
            kind=kind, detail=detail, line=getattr(node, "lineno", 1)))

    def _global_write(self, name: str, how: str, node: ast.AST) -> None:
        site = GlobalSite(name=name, detail=how,
                          line=getattr(node, "lineno", 1))
        self.info.global_writes.append(site)
        self.program.mutated_globals.add(name)


comprehension_types = (ast.ListComp, ast.SetComp, ast.DictComp,
                       ast.GeneratorExp)


def _register_nested(program: _Program, module: ModuleInfo,
                     parent: FunctionInfo) -> None:
    """Create FunctionInfo nodes for functions nested inside ``parent``."""
    for stmt in ast.walk(parent.node):
        if stmt is parent.node or not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        qualname = f"{parent.qualname}.<locals>.{stmt.name}"
        if qualname not in program.functions:
            program.functions[qualname] = FunctionInfo(
                qualname=qualname, module=module.name, path=parent.path,
                node=stmt, class_name=parent.class_name)


def _analyze_class_bodies(program: _Program) -> None:
    """Attach effects inside class-scope lambdas (dataclass
    ``default_factory=lambda: ...`` idiom) to the class ``__init__`` —
    that is when they actually execute."""
    for module in program.modules.values():
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            info = program.classes[f"{module.name}.{node.name}"]
            carrier = _class_body_carrier(program, module, info, node)
            if carrier is None:
                continue
            analyzer = _FunctionAnalyzer(program, module, carrier)
            analyzer.prepare()
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Lambda):
                        for inner in ast.walk(sub):
                            analyzer._visit(inner)


def _class_body_carrier(program: _Program, module: ModuleInfo,
                        info: ClassInfo,
                        node: ast.ClassDef) -> Optional[FunctionInfo]:
    has_lambda = any(
        isinstance(sub, ast.Lambda)
        for stmt in node.body
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sub in ast.walk(stmt))
    if not has_lambda:
        return None
    init = info.methods.get("__init__")
    if init is None:
        qualname = f"{info.qualname}.__init__"
        info.methods["__init__"] = qualname
        synthetic = ast.parse("def __init__(self): pass").body[0]
        synthetic.lineno = node.lineno
        program.functions[qualname] = FunctionInfo(
            qualname=qualname, module=module.name, path=module.path,
            node=synthetic, class_name=info.qualname)
        init = qualname
    return program.functions[init]


def _record_attr_types(program: _Program) -> None:
    """Infer ``self.x`` attribute classes from ``__init__`` bodies."""
    for klass in program.classes.values():
        init = klass.methods.get("__init__")
        if init is None:
            continue
        info = program.functions[init]
        module = program.modules[info.module]
        analyzer = _FunctionAnalyzer(program, module, info)
        analyzer.prepare()
        analyzer._record_var_types()
        for stmt in ast.walk(info.node):
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                value_type: Optional[str] = None
                if isinstance(stmt.value, ast.Call):
                    value_type = analyzer._return_type(stmt.value)
                elif isinstance(stmt.value, ast.Name):
                    value_type = analyzer.var_types.get(stmt.value.id)
                if value_type is not None:
                    klass.attr_types.setdefault(target.attr, value_type)


# -- entry-point discovery ----------------------------------------------------


_POOL_DISPATCH_METHODS = frozenset({
    "map", "map_async", "imap", "imap_unordered", "starmap",
    "starmap_async", "apply", "apply_async", "submit",
})


def _discover_entries(program: _Program) -> dict[str, list[str]]:
    entries: dict[str, list[str]] = {"cached": [], "worker": [], "bench": []}

    def add(kind: str, qualname: str) -> None:
        resolved = program.lookup_callable(qualname)
        if resolved is not None and resolved not in entries[kind]:
            entries[kind].append(resolved)
            program.functions[resolved].entry_kinds.add(kind)

    for qualname in CACHED_ENTRY_POINTS:
        add("cached", qualname)
    for module_name in BENCH_ENTRY_MODULES:
        module = program.modules.get(module_name)
        if module is None:
            continue
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not node.name.startswith("_"):
                add("bench", f"{module_name}.{node.name}")

    # Docstring markers.
    for info in program.functions.values():
        doc = ast.get_docstring(info.node) if isinstance(
            info.node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        if not doc:
            continue
        for marker, kind in _ENTRY_MARKERS.items():
            if marker in doc:
                add(kind, info.qualname)

    # Syntactic pool-dispatch sites: `pool.map(worker, ...)` where the
    # receiver was bound from a `.Pool(...)` call (assignment or `with`).
    for info in program.functions.values():
        module = program.modules[info.module]
        pool_names: set[str] = set()
        for node in ast.walk(info.node):
            bound = None
            if isinstance(node, ast.Assign) and \
                    _is_pool_call(node.value):
                bound = node.targets
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if _is_pool_call(item.context_expr) and \
                            item.optional_vars is not None:
                        bound = [item.optional_vars]
            if bound:
                for target in bound:
                    if isinstance(target, ast.Name):
                        pool_names.add(target.id)
        if not pool_names:
            continue
        analyzer = _FunctionAnalyzer(program, module, info)
        analyzer.prepare()
        for node in ast.walk(info.node):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _POOL_DISPATCH_METHODS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in pool_names
                    and node.args):
                continue
            worker = analyzer.qualify(node.args[0])
            if worker is not None:
                add("worker", worker)
    return entries


def _is_pool_call(node: ast.expr) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("Pool", "ProcessPoolExecutor",
                                   "ThreadPoolExecutor"))


# -- summaries: Tarjan SCC + bottom-up fixpoint -------------------------------


def _strongly_connected(graph: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan's SCC algorithm, iterative, deterministic order."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = [0]

    for root in sorted(graph):
        if root in index:
            continue
        work: list[tuple[str, Iterator[str]]] = [
            (root, iter(sorted(graph.get(root, ()))))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in graph:
                    continue
                if successor not in index:
                    index[successor] = lowlink[successor] = counter[0]
                    counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append(
                        (successor, iter(sorted(graph.get(successor, ())))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
    return components


def compute_summaries(program: _Program) -> dict[str, frozenset[str]]:
    """Transitive effect-kind summary per function (SCC fixpoint)."""
    graph = {name: set(info.calls)
             for name, info in program.functions.items()}
    components = _strongly_connected(graph)
    membership = {name: i for i, component in enumerate(components)
                  for name in component}
    summaries: dict[str, frozenset[str]] = {}
    # Tarjan emits components in reverse topological order of the
    # condensation (callees before callers), so one pass suffices.
    for component in components:
        kinds: set[str] = set()
        for name in component:
            info = program.functions[name]
            kinds.update(site.kind for site in info.effects)
            if info.global_writes:
                kinds.add("global-write")
            if info.global_reads:
                kinds.add("global-read")
            for callee in info.calls:
                if callee in summaries:
                    kinds.update(summaries[callee])
                elif membership.get(callee) == membership.get(name):
                    pass  # same SCC: union is being built right here
        frozen = frozenset(kinds)
        for name in component:
            summaries[name] = frozen
    return summaries


# -- contract checking --------------------------------------------------------


def _reachable(program: _Program,
               roots: Sequence[str]) -> dict[str, Optional[str]]:
    """BFS over call edges; returns node -> parent (roots map to None)."""
    parents: dict[str, Optional[str]] = {}
    frontier: list[str] = []
    for root in roots:
        if root not in parents:
            parents[root] = None
            frontier.append(root)
    while frontier:
        node = frontier.pop(0)
        info = program.functions.get(node)
        if info is None:
            continue
        for callee in sorted(info.calls):
            if callee not in parents:
                parents[callee] = node
                frontier.append(callee)
    return parents


def _chain(parents: dict[str, Optional[str]], node: str) -> str:
    hops = [node]
    seen = {node}
    while parents.get(hops[-1]) is not None:
        parent = parents[hops[-1]]
        if parent in seen:  # pragma: no cover - defensive against cycles
            break
        hops.append(parent)
        seen.add(parent)
    display = [hop.replace("repro.", "", 1) for hop in reversed(hops)]
    return " -> ".join(display)


def _is_randomness_root(info: FunctionInfo) -> bool:
    posix = info.path.as_posix()
    return any(posix.endswith(suffix)
               for suffix in RANDOMNESS_ROOT_SUFFIXES)


def _contract_findings(program: _Program,
                       entries: dict[str, list[str]],
                       allowed_globals: dict[str, str]) -> list[Finding]:
    findings: list[Finding] = []
    emitted: set[tuple[str, str, int]] = set()

    def emit(rule_id: str, info: FunctionInfo, line: int,
             first_line: str, chain: str) -> None:
        key = (rule_id, str(info.path), line)
        if key in emitted:
            return
        emitted.add(key)
        finding = Finding(
            rule_id=rule_id, path=info.path, line=line,
            message=f"{first_line}\n  call chain: {chain}",
            severity=Severity.ERROR)
        if not is_suppressed(finding, program.allowed[info.path]):
            findings.append(finding)

    # Worker hermeticity first, so a function that is both a cached and
    # a worker entry reports its global writes under the worker rule.
    parents = _reachable(program, entries["worker"])
    for name in sorted(parents):
        info = program.functions.get(name)
        if info is None:
            continue
        for site in info.global_writes:
            if site.name in allowed_globals:
                continue
            emit("effect-global-write", info, site.line,
                 f"writes module global `{site.name}` ({site.detail}) in "
                 "pool-dispatched code; the mutation survives worker reuse "
                 "and leaks into later tasks",
                 _chain(parents, name))

    parents = _reachable(program, entries["cached"])
    for name in sorted(parents):
        info = program.functions.get(name)
        if info is None:
            continue
        chain = _chain(parents, name)
        for site in info.effects:
            if site.kind == "random":
                if not _is_randomness_root(info):
                    emit("effect-unseeded-random", info, site.line,
                         f"`{site.detail}` draw outside des/random_streams "
                         "under a cached entry; route it through a seeded "
                         "StreamFactory stream", chain)
            else:
                emit("effect-ambient-read", info, site.line,
                     f"{_AMBIENT_NOUNS[site.kind]} `{site.detail}` under a "
                     "cached entry; a cached result must be a pure function "
                     "of (SimConfig, code version)", chain)
        # A write's own container load (`_totals[k] = v` loads `_totals`)
        # is part of the write, not an independent unkeyed read.
        write_sites = {(site.name, site.line)
                       for site in info.global_writes}
        for site in info.global_reads:
            if site.name not in program.mutated_globals:
                continue  # immutable constant: covered by the code digest
            if site.name in allowed_globals:
                continue
            if (site.name, site.line) in write_sites:
                continue
            emit("effect-unkeyed-input", info, site.line,
                 f"reads mutated module global `{site.name}` under a cached "
                 "entry; the value is invisible to the cache key", chain)
        for site in info.global_writes:
            if site.name in allowed_globals:
                continue
            emit("effect-global-write", info, site.line,
                 f"writes module global `{site.name}` ({site.detail}) under "
                 "a cached entry; repeated runs in one process would "
                 "diverge from the cached result", chain)

    parents = _reachable(program, entries["bench"])
    for name in sorted(parents):
        info = program.functions.get(name)
        if info is None:
            continue
        for site in info.effects:
            if site.kind != "random" or _is_randomness_root(info):
                continue
            emit("effect-unseeded-random", info, site.line,
                 f"`{site.detail}` draw outside des/random_streams under a "
                 "benchmark/figure entry; results would not replay",
                 _chain(parents, name))
    return findings


# -- public API ---------------------------------------------------------------


def analyze_effects(paths: Sequence[Path],
                    ) -> tuple[list[Finding], EffectStats]:
    """Run the effect analysis over ``paths`` (files or directories).

    Returns the suppression-filtered findings plus call-graph statistics.
    """
    program = build_program(paths)
    entries = _discover_entries(program)
    findings = _contract_findings(program, entries, ALLOWED_GLOBAL_WRITES)
    findings.sort(key=lambda f: (str(f.path), f.line, f.rule_id))

    graph_edges = sum(len(info.calls) for info in program.functions.values())
    components = _strongly_connected(
        {name: set(info.calls) for name, info in program.functions.items()})
    stats = EffectStats(
        functions=len(program.functions),
        modules=len(program.modules),
        edges=graph_edges,
        sccs=len(components),
        cached_entries=tuple(entries["cached"]),
        worker_entries=tuple(entries["worker"]),
        bench_entries=tuple(entries["bench"]),
    )
    return findings, stats


def build_program(paths: Sequence[Path]) -> _Program:
    """The resolved program model (tests inspect graph and summaries)."""
    program = _Program()
    for root in paths:
        for path in iter_python_files(Path(root)):
            _collect_module(program, path)
    for module in program.modules.values():
        for info in list(program.functions.values()):
            if info.module == module.name:
                _register_nested(program, module, info)
    _record_attr_types(program)
    _analyze_class_bodies(program)
    for info in program.functions.values():
        module = program.modules.get(info.module)
        if module is None:  # pragma: no cover - defensive
            continue
        if isinstance(info.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _FunctionAnalyzer(program, module, info).analyze()
    return program
