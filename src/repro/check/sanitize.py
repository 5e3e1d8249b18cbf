"""Runtime sanitizer for DES runs: ``with sanitize(env): ...``.

Two dynamic checks the static rules cannot make:

* **event-time monotonicity** — every event popped from the calendar must
  carry a timestamp no earlier than the clock or any previously popped
  event.  Catches clock tampering and negative-delay scheduling at the
  exact offending event, before the engine's own (later, vaguer) guard.
* **resource leaks** — every granted :class:`~repro.des.resources.Resource`
  request must be released by the time the sanitized block ends.  A
  handle held at exit is a leak: in a longer run that server slot is gone
  forever and throughput quietly degrades.

Overhead is zero when not sanitizing: the engine's monitor lists are
empty until installed.

Usage::

    from repro.check import sanitize

    env = Environment()
    ... build the model ...
    with sanitize(env) as monitor:
        env.run()
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Optional

from ..des.events import StaleEventError

if TYPE_CHECKING:  # pragma: no cover
    from ..des.engine import Environment

__all__ = ["sanitize", "Sanitizer", "SanitizerError", "MonotonicityError",
           "ResourceLeakError",
           "alias_sanitize", "AliasSanitizer", "GuardedView",
           "StaleViewError", "UseAfterRecycleError",
           "hermetic_sanitize", "HermeticitySanitizer",
           "AmbientReadError", "HermeticityError"]

#: Touching a recycled pooled event raises this (re-exported from the
#: event layer so sanitizer users need one import).
UseAfterRecycleError = StaleEventError


class SanitizerError(AssertionError):
    """Base class: a sanitized run violated a determinism invariant."""


class MonotonicityError(SanitizerError):
    """An event was processed at a time earlier than the clock."""


class ResourceLeakError(SanitizerError):
    """Resource requests were still held when the sanitized block ended."""


class StaleViewError(SanitizerError):
    """A guarded view was read after its backing buffer moved on."""


class Sanitizer:
    """The installed monitor set; created by :func:`sanitize`."""

    def __init__(self, env: "Environment", check_monotonicity: bool = True,
                 check_leaks: bool = True):
        self.env = env
        self.check_monotonicity = check_monotonicity
        self.check_leaks = check_leaks
        self._last_when = env.now
        self._events_seen = 0
        #: request id -> (resource, request) for grants not yet released.
        self._held: dict[int, tuple] = {}
        self._acquires = 0
        self._releases = 0
        self._installed = False

    # -- lifecycle ----------------------------------------------------------

    def install(self) -> None:
        """Attach to the environment."""
        if self._installed:  # pragma: no cover - defensive
            return
        if self.check_monotonicity:
            self.env.observe("step", self._on_step)
        if self.check_leaks:
            self.env.observe("resource", self._on_resource)
        self._installed = True

    def uninstall(self) -> None:
        """Detach every hook (leaves collected state readable)."""
        if not self._installed:  # pragma: no cover - defensive
            return
        self.env.unobserve("step", self._on_step)
        self.env.unobserve("resource", self._on_resource)
        self._installed = False

    def finish(self) -> None:
        """End-of-block verdict: raise on leaked resources."""
        if self.check_leaks and self._held:
            lines = []
            for resource, request in self._held.values():
                lines.append(f"  {resource!r} held by {request!r}")
            raise ResourceLeakError(
                f"{len(self._held)} resource request(s) acquired but never "
                "released:\n" + "\n".join(sorted(lines)))

    # -- hook callbacks -----------------------------------------------------

    def _on_step(self, when: float, event) -> None:
        self._events_seen += 1
        if when < self.env.now or when < self._last_when:
            raise MonotonicityError(
                f"event {event!r} processed at t={when:.9f} after the "
                f"clock reached t={max(self.env.now, self._last_when):.9f}")
        self._last_when = when

    def _on_resource(self, action: str, resource, request) -> None:
        if action == "acquire":
            self._acquires += 1
            self._held[id(request)] = (resource, request)
        elif action == "release":
            self._releases += 1
            self._held.pop(id(request), None)

    # -- introspection ------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Events popped while the sanitizer was installed."""
        return self._events_seen

    @property
    def held_requests(self) -> int:
        """Currently outstanding (granted, unreleased) requests."""
        return len(self._held)


@contextmanager
def sanitize(env: "Environment", check_monotonicity: bool = True,
             check_leaks: bool = True):
    """Context manager running a DES block under the sanitizer.

    Raises :class:`MonotonicityError` at the offending event, and
    :class:`ResourceLeakError` at block exit if any granted resource
    request was never released.  If the body itself raises, that
    exception propagates unmasked (no leak check).
    """
    monitor = Sanitizer(env, check_monotonicity=check_monotonicity,
                        check_leaks=check_leaks)
    monitor.install()
    try:
        yield monitor
    finally:
        monitor.uninstall()
    monitor.finish()


# -- aliasing sanitizer (the runtime half of the `aliasing` pass) ----------


def _capture_frames(depth: int, skip: int) -> tuple:
    """The ``depth`` innermost caller frames as raw tuples.

    A manual ``sys._getframe`` walk storing ``(filename, lineno,
    funcname)`` — formatting happens lazily at raise time, so the
    per-recycle cost stays a few attribute reads (``traceback``'s
    renderers are two orders of magnitude slower and would blow the
    sanitizer's 1.5x overhead budget).
    """
    if depth <= 0:
        return ()
    try:
        frame = sys._getframe(skip)
    except ValueError:  # pragma: no cover - shallow interpreter stack
        return ()
    frames = []
    while frame is not None and len(frames) < depth:
        code = frame.f_code
        frames.append((code.co_filename, frame.f_lineno, code.co_name))
        frame = frame.f_back
    return tuple(frames)


def _render_frames(frames) -> str:
    if not frames:
        return "    (stack not captured: stack_depth=0)"
    return "\n".join(f"    {filename}:{lineno} in {funcname}"
                     for filename, lineno, funcname in frames)


class _InstrumentedPool(list):
    """A free list that marks events stale on append and blesses on pop.

    Swapped in for the environment's ``_timeout_pool`` /
    ``_release_pool`` / ``_request_pool`` while the aliasing sanitizer
    is installed.  Pooling itself keeps running — the engine's
    ``_unmonitored`` gate never sees the sanitizer — so the instrumented
    run exercises exactly the recycling the production run performs.

    Both overrides are fully inlined: this pair of methods is the
    sanitizer's entire per-event cost, and the 1.5x overhead gate in
    ``benchmarks/check_regression.py`` prices every extra slot write.
    Staleness is one store into the event's ``_stale`` slot (this pool),
    cleared on pop — the event's ``_value`` is never touched, so the
    sanitized run is trivially bit-identical and a ``Release``'s
    value-free invariant survives untouched.  Each pool is recycled
    into from essentially one drain-loop line, so a single-entry
    per-pool memo (code object + bytecode offset) makes the
    recycle-site stack walk a once-per-site event; the stack attached
    to a :class:`StaleEventError` is the pool's most recently captured
    site, which for these single-site pools is the event's own.
    """

    __slots__ = ("_sanitizer", "_kind", "_depth", "_initial",
                 "recycled", "_memo_code", "_memo_lasti", "_memo_frames")

    def __init__(self, sanitizer: "AliasSanitizer", kind: str, items):
        super().__init__(items)
        self._sanitizer = sanitizer
        self._kind = kind
        self._depth = sanitizer.stack_depth
        self._initial = len(self)
        self.recycled = 0
        self._memo_code = None
        self._memo_lasti = -1
        self._memo_frames: tuple = ()

    @property
    def rearmed(self) -> int:
        """Pops so far, derived: appends + initial load - still parked."""
        return self.recycled + self._initial - len(self)

    def append(self, event) -> None:
        count = self.recycled = self.recycled + 1
        # Sampled site capture: the stack walk runs on the first append
        # and every 16th after that, so the steady-state cost of the
        # memo is one mask-and-compare instead of a sys._getframe call.
        # A pool recycled from two alternating sites can therefore lag
        # up to 15 recycles behind in its diagnostics — in this tree
        # every pool has exactly one recycle site, so the memoized
        # stack is the event's own.
        if self._depth and (count & 15) == 1:
            frame = sys._getframe(1)
            if (frame.f_lasti != self._memo_lasti
                    or frame.f_code is not self._memo_code):
                self._memo_code = frame.f_code
                self._memo_lasti = frame.f_lasti
                walked = []
                while frame is not None and len(walked) < self._depth:
                    code = frame.f_code
                    walked.append(
                        (code.co_filename, frame.f_lineno, code.co_name))
                    frame = frame.f_back
                self._memo_frames = tuple(walked)
        event._stale = self
        list.append(self, event)

    def pop(self, index: int = -1):
        event = list.pop(self, index)
        if event.callbacks:
            self._sanitizer._raise_stale_rearm(self._kind, event, self)
        event._stale = None
        return event

    def _describe_stale(self) -> str:
        """Render the recycle diagnostics for :class:`StaleEventError`."""
        lines = [
            f"{self._kind} was recycled to the free list and may be "
            "re-armed as a different logical event at any moment",
            "recycled at:",
        ]
        if self._memo_frames:
            for filename, lineno, funcname in self._memo_frames:
                lines.append(f"    {filename}:{lineno} in {funcname}")
        else:
            lines.append(
                "    (recycle stack not captured: stack_depth=0)")
        lines.append("use site: this exception's own traceback")
        return "\n".join(lines)


class _BufferState:
    """Generation stamp for one adopted backing buffer."""

    __slots__ = ("label", "generation", "frames", "reason")

    def __init__(self, label: str):
        self.label = label
        self.generation = 0
        self.frames: tuple = ()
        self.reason = ""


class GuardedView:
    """A borrow of an adopted buffer that checks its generation stamp.

    Produced by :meth:`AliasSanitizer.borrow`.  Every access re-checks
    the backing buffer's generation: if the buffer was mutated, flushed
    or retired since the borrow, the access raises
    :class:`StaleViewError` carrying the mutation site's stack (the use
    site is the exception's own traceback — dual stacks).

    No memoryview export is held between accesses — a live export would
    pin a bytearray against resizing (``BufferError`` on extend) and the
    guarded production path must behave exactly like the bare one.  Each
    access materializes, uses and releases a fresh view.
    """

    __slots__ = ("_state", "_buffer", "_start", "_stop", "_generation",
                 "_borrow_frames")

    def __init__(self, state: _BufferState, buffer, start: int,
                 stop: Optional[int], generation: int,
                 borrow_frames: tuple):
        self._state = state
        self._buffer = buffer
        self._start = start
        self._stop = stop
        self._generation = generation
        self._borrow_frames = borrow_frames

    def check(self) -> None:
        """Raise :class:`StaleViewError` if the borrow went stale."""
        state = self._state
        if state.generation != self._generation:
            raise StaleViewError(
                f"stale view of buffer {state.label!r}: borrowed at "
                f"generation {self._generation}, backing buffer was "
                f"{state.reason or 'mutated'} (now generation "
                f"{state.generation})\n"
                "borrowed at:\n" + _render_frames(self._borrow_frames)
                + "\ninvalidated at:\n" + _render_frames(state.frames)
                + "\nuse site: this exception's own traceback")

    def _materialize(self) -> memoryview:
        self.check()
        view = memoryview(self._buffer)
        if self._start or self._stop is not None:
            view = view[self._start:self._stop]
        return view

    @property
    def stale(self) -> bool:
        """True once the backing buffer has moved on."""
        return self._state.generation != self._generation

    @property
    def view(self) -> memoryview:
        """A fresh underlying memoryview (checked; caller releases)."""
        return self._materialize()

    def tobytes(self) -> bytes:
        """Checked explicit copy (the sanctioned escape hatch)."""
        view = self._materialize()
        try:
            return view.tobytes()
        finally:
            view.release()

    def __len__(self) -> int:
        view = self._materialize()
        try:
            return len(view)
        finally:
            view.release()

    def __getitem__(self, index):
        view = self._materialize()
        try:
            if isinstance(index, slice):
                start, stop, step = index.indices(len(view))
                if step != 1:
                    raise ValueError(
                        "GuardedView does not support extended slices")
                base = self._start
                return GuardedView(self._state, self._buffer,
                                   base + start, base + stop,
                                   self._generation, self._borrow_frames)
            return view[index]
        finally:
            view.release()

    def __bytes__(self) -> bytes:
        return self.tobytes()


class AliasSanitizer:
    """Runtime use-after-recycle and stale-view detection.

    Two mechanisms, both zero-cost when not installed:

    * the environment's event free lists are swapped for
      :class:`_InstrumentedPool`\\ s — every recycled event is stamped
      stale (one slot write; its ``_value`` is never touched) so reading
      ``event.value`` through a stale reference raises
      :class:`UseAfterRecycleError` with the recycle site's stack; a
      pooled event re-armed while something still waits on it
      (non-empty callbacks) is reported at the re-arm, before the
      corruption propagates;
    * buffers registered with :meth:`adopt` get a generation stamp,
      advanced by the ``buffer-mutate`` / ``buffer-retire`` alias-hook
      notifications the data path emits; :meth:`borrow` hands out
      :class:`GuardedView` objects that trip :class:`StaleViewError` on
      any access past the stamp.

    **Install before ``env.run()``**: the drain loop binds the free
    lists to locals when it starts, so a mid-run install would watch the
    wrong lists.  Unlike the determinism :class:`Sanitizer` this never
    touches the step/schedule/resource monitor lists — the engine's
    ``_unmonitored`` fast path (and therefore pooling, the very thing
    under test) stays enabled and bit-identical.
    """

    _POOL_ATTRS = (("_timeout_pool", "Timeout"),
                   ("_release_pool", "Release"),
                   ("_request_pool", "Request"))

    def __init__(self, env: "Environment", stack_depth: int = 4):
        self.env = env
        self.stack_depth = stack_depth
        self._recycled_base = 0
        self._rearmed_base = 0
        self._buffers: dict[int, _BufferState] = {}
        self._plain: dict[str, list] = {}
        self._pools: list[_InstrumentedPool] = []
        self._installed = False

    # -- lifecycle ----------------------------------------------------------

    def install(self) -> None:
        """Swap in instrumented pools and attach the buffer hook."""
        if self._installed:  # pragma: no cover - defensive
            return
        for attr, kind in self._POOL_ATTRS:
            plain = getattr(self.env, attr)
            self._plain[attr] = plain
            pool = _InstrumentedPool(self, kind, plain)
            if pool:
                # Events already resting on the free list are just as
                # stale as ones recycled later; mark them too.  The
                # memo starts out holding the install site so their
                # diagnostics have *a* stack until the first real
                # recycle overwrites it.
                pool._memo_frames = _capture_frames(self.stack_depth,
                                                    skip=2)
                for event in pool:
                    event._stale = pool
            setattr(self.env, attr, pool)
            self._pools.append(pool)
        self.env.observe("alias", self._on_alias)
        self._installed = True

    def uninstall(self) -> None:
        """Restore the plain pools, un-poisoning every parked event."""
        if not self._installed:  # pragma: no cover - defensive
            return
        for attr, _ in self._POOL_ATTRS:
            pool = getattr(self.env, attr)
            for event in pool:
                event._stale = None
            plain = self._plain.pop(attr)
            plain[:] = pool
            setattr(self.env, attr, plain)
        for pool in self._pools:
            self._recycled_base += pool.recycled
            self._rearmed_base += pool.rearmed
        self._pools.clear()
        self.env.unobserve("alias", self._on_alias)
        self._installed = False

    # -- pool hooks ---------------------------------------------------------

    @property
    def events_recycled(self) -> int:
        """Total pool appends observed (live pools + uninstalled runs)."""
        return self._recycled_base + sum(p.recycled for p in self._pools)

    @property
    def events_rearmed(self) -> int:
        """Total pool pops observed (live pools + uninstalled runs)."""
        return self._rearmed_base + sum(p.rearmed for p in self._pools)

    def _raise_stale_rearm(self, kind: str, event, pool) -> None:
        raise StaleEventError(
            f"pooled {kind} re-armed while {len(event.callbacks)} "
            "callback(s) still wait on its previous life; the stale "
            f"waiter would fire for the wrong logical event\n"
            f"{pool._describe_stale()}\n"
            "re-arm site: this exception's own traceback")

    # -- buffer hooks -------------------------------------------------------

    def adopt(self, buffer, label: str = "") -> None:
        """Track ``buffer`` under a generation stamp from now on."""
        self._buffers[id(buffer)] = _BufferState(
            label or f"buffer@{id(buffer):#x}")

    def borrow(self, buffer) -> GuardedView:
        """A guarded zero-copy view of an adopted buffer."""
        state = self._buffers.get(id(buffer))
        if state is None:
            raise ValueError(
                "buffer is not adopted; call adopt(buffer) first")
        return GuardedView(state, buffer, 0, None, state.generation,
                           _capture_frames(self.stack_depth, skip=2))

    def _on_alias(self, kind: str, buffer) -> None:
        state = self._buffers.get(id(buffer))
        if state is None:
            return
        state.generation += 1
        state.reason = ("retired (flushed/swapped out)"
                        if kind == "buffer-retire" else "mutated in place")
        # First captured frame is the emitter behind env._notify_alias.
        state.frames = _capture_frames(self.stack_depth, skip=3)


@contextmanager
def alias_sanitize(env: "Environment", stack_depth: int = 4):
    """Run a DES block under the aliasing sanitizer.

    Enter **before** ``env.run()`` (the drain loop binds the free lists
    to locals at start).  Inside the block, any read of a recycled
    pooled event raises :class:`UseAfterRecycleError` and any access to
    a stale :class:`GuardedView` raises :class:`StaleViewError`, both
    carrying the invalidation site's stack alongside the use site's
    traceback.  ``stack_depth=0`` trades the recycle-site stack for the
    cheapest possible poisoning (shared message only).
    """
    monitor = AliasSanitizer(env, stack_depth=stack_depth)
    monitor.install()
    try:
        yield monitor
    finally:
        monitor.uninstall()


# -- hermeticity sanitizer (the runtime half of the `effects` pass) --------


class AmbientReadError(SanitizerError):
    """Trapped ambient state (wall clock, module-level randomness,
    ``os.environ``) was read inside a hermetic block."""


class HermeticityError(SanitizerError):
    """Registered module-global state changed across a hermetic block."""


#: ``time`` functions trapped inside a hermetic block.  ``perf_counter``
#: (and ``perf_counter_ns``) is deliberately *not* trapped: it is the
#: blessed benchmarking clock, read by the very harness that wraps
#: cached runs in this sanitizer.
_TRAPPED_TIME = ("time", "time_ns", "monotonic", "monotonic_ns",
                 "process_time", "process_time_ns")

#: ``random`` module-level draw functions trapped inside a hermetic
#: block.  Patching the module leaves ``random.Random`` *instances*
#: (``RandomStream._rng``) untouched — exactly the sanctioned/forbidden
#: split the static ``effect-unseeded-random`` rule enforces.
_TRAPPED_RANDOM = ("random", "randint", "randrange", "uniform", "choice",
                   "choices", "shuffle", "sample", "expovariate", "gauss",
                   "normalvariate", "betavariate", "gammavariate",
                   "paretovariate", "vonmisesvariate", "weibullvariate",
                   "triangular", "lognormvariate", "getrandbits",
                   "randbytes", "seed")

#: Module-global types worth fingerprinting: mutable containers plus
#: the ``itertools.count`` id-counter idiom (its repr advances with it).
_MUTABLE_TYPE_NAMES = ("count",)


class _TrappedEnviron:
    """Swapped in for ``os.environ``: every access is a violation.

    ``os.getenv`` resolves ``environ`` from the ``os`` module globals at
    call time, so replacing the one object traps both spellings.
    """

    __slots__ = ("_sanitizer", "_real")

    def __init__(self, sanitizer: "HermeticitySanitizer", real):
        object.__setattr__(self, "_sanitizer", sanitizer)
        object.__setattr__(self, "_real", real)

    def _trip(self, how: str):
        self._sanitizer._trip(f"os.environ {how}")

    def __getitem__(self, key):
        self._trip(f"[{key!r}] access")

    def __setitem__(self, key, value):
        self._trip(f"[{key!r}] write")

    def __delitem__(self, key):
        self._trip(f"[{key!r}] delete")

    def __contains__(self, key):
        self._trip(f"membership test for {key!r}")

    def __iter__(self):
        self._trip("iteration")

    def __len__(self):
        self._trip("len()")

    def get(self, key, default=None):
        self._trip(f".get({key!r}) access")

    def setdefault(self, key, default=None):
        self._trip(f".setdefault({key!r})")

    def pop(self, key, *default):
        self._trip(f".pop({key!r})")

    def update(self, *args, **kwargs):
        self._trip(".update(...)")

    def keys(self):
        self._trip(".keys() access")

    def values(self):
        self._trip(".values() access")

    def items(self):
        self._trip(".items() access")

    def copy(self):
        self._trip(".copy() access")


class HermeticitySanitizer:
    """Runtime cache-soundness check: the dynamic half of the ``effects``
    pass of ``repro check``.

    Wrap the block that computes a to-be-cached result.  Two mechanisms:

    * **ambient-read traps** — ``time.time``/``monotonic`` (but not the
      benchmarking ``perf_counter``), every ``random`` module-level draw
      function, and ``os.environ``/``os.getenv`` are replaced with trip
      wires for the duration of the block.  Any call raises
      :class:`AmbientReadError` carrying the block's entry-site stack
      plus the use site (the exception's own traceback) — the same dual
      stacks the :class:`AliasSanitizer` reports.  Seeded
      ``random.Random`` *instances* (``RandomStream._rng``) keep working:
      only the ambient module-level state is fenced off.
    * **module-global snapshot/diff** — mutable module-level objects
      (dicts, lists, sets, bytearrays, ``itertools.count`` counters)
      across the watched modules are fingerprinted on install; at
      :meth:`finish` any fingerprint drift outside ``allowed`` raises
      :class:`HermeticityError` naming every global that changed.  This
      is the runtime face of ``effect-global-write`` /
      ``effect-unkeyed-input``: state the cache key cannot see must not
      change while producing a cacheable result.

    ``allowed`` defaults to the same declared exception list the static
    pass uses (:data:`repro.check.effects.ALLOWED_GLOBAL_WRITES` — the
    ``sim.cache._code_version_cache`` per-process memo).

    The traps patch process-wide module attributes: hermetic blocks are
    for serial in-process runs (don't wrap pool *dispatch*, wrap the
    worker body or a serial re-read).
    """

    def __init__(self, allowed=None, stack_depth: int = 4,
                 trap_time: bool = True, trap_random: bool = True,
                 trap_environ: bool = True):
        if allowed is None:
            from .effects import ALLOWED_GLOBAL_WRITES
            allowed = ALLOWED_GLOBAL_WRITES
        self.allowed = frozenset(allowed)
        self.stack_depth = stack_depth
        self.trap_time = trap_time
        self.trap_random = trap_random
        self.trap_environ = trap_environ
        #: (module name, attr) pairs under snapshot/diff.
        self._watched: list[tuple[str, str]] = []
        self._baseline: dict[tuple[str, str], str] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._entry_frames: tuple = ()
        self._installed = False
        #: Ambient reads trapped (for tests/introspection).
        self.trips = 0

    # -- watch registration -------------------------------------------------

    def watch_module(self, module) -> None:
        """Fingerprint every mutable module-level object in ``module``."""
        for attr in sorted(vars(module)):
            if attr.startswith("__"):
                continue
            value = vars(module)[attr]
            if isinstance(value, (dict, list, set, bytearray)) or \
                    type(value).__name__ in _MUTABLE_TYPE_NAMES:
                entry = (module.__name__, attr)
                if entry not in self._watched:
                    self._watched.append(entry)

    def watch_package(self, prefix: str = "repro") -> None:
        """Watch every already-imported module under ``prefix``."""
        for name in sorted(sys.modules):
            module = sys.modules[name]
            if module is None:
                continue
            if name == prefix or name.startswith(prefix + "."):
                self.watch_module(module)

    def _fingerprint(self, module_name: str, attr: str) -> str:
        module = sys.modules.get(module_name)
        if module is None:  # pragma: no cover - module dropped mid-run
            return "<gone>"
        value = getattr(module, attr, None)
        if isinstance(value, dict):
            return repr(sorted((repr(k), repr(v))
                               for k, v in value.items()))
        if isinstance(value, set):
            return repr(sorted(repr(item) for item in value))
        return repr(value)

    # -- lifecycle ----------------------------------------------------------

    def install(self) -> None:
        """Snapshot watched globals and arm the ambient-read traps."""
        if self._installed:  # pragma: no cover - defensive
            return
        self._entry_frames = _capture_frames(self.stack_depth, skip=2)
        for entry in self._watched:
            self._baseline[entry] = self._fingerprint(*entry)
        if self.trap_time:
            import time as time_module
            for name in _TRAPPED_TIME:
                self._patch(time_module, name,
                            self._make_trap(f"time.{name}()"))
        if self.trap_random:
            import random as random_module
            for name in _TRAPPED_RANDOM:
                self._patch(random_module, name,
                            self._make_trap(f"random.{name}()"))
        if self.trap_environ:
            import os as os_module
            self._patch(os_module, "environ",
                        _TrappedEnviron(self, os_module.environ))
        self._installed = True

    def uninstall(self) -> None:
        """Disarm every trap (snapshots stay for :meth:`finish`)."""
        if not self._installed:  # pragma: no cover - defensive
            return
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
        self._installed = False

    def finish(self) -> None:
        """Diff the snapshots; raise on undeclared global drift."""
        drifted = []
        for entry in self._watched:
            qualname = ".".join(entry)
            if qualname in self.allowed:
                continue
            now = self._fingerprint(*entry)
            if now != self._baseline.get(entry, now):
                drifted.append(qualname)
        if drifted:
            raise HermeticityError(
                f"{len(drifted)} module global(s) changed across a "
                "hermetic block — this state is invisible to the cache "
                "key, so the cached result is not a pure function of "
                "(SimConfig, code version):\n"
                + "\n".join(f"  {name}" for name in sorted(drifted))
                + "\nhermetic block entered at:\n"
                + _render_frames(self._entry_frames))

    # -- trap plumbing ------------------------------------------------------

    def _patch(self, module, name: str, replacement) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def _make_trap(self, label: str):
        def trap(*args, **kwargs):
            self._trip(label)
        return trap

    def _trip(self, label: str):
        self.trips += 1
        raise AmbientReadError(
            f"{label} read inside a hermetic block; a cached result must "
            "be a pure function of (SimConfig, code version) — draw from "
            "a seeded StreamFactory stream or move the read outside the "
            "cached run\n"
            "hermetic block entered at:\n"
            + _render_frames(self._entry_frames)
            + "\nuse site: this exception's own traceback")


@contextmanager
def hermetic_sanitize(allowed=None, watch_prefix: str = "repro",
                      stack_depth: int = 4, trap_time: bool = True,
                      trap_random: bool = True, trap_environ: bool = True):
    """Run a cached computation under the hermeticity sanitizer.

    Watches every imported module under ``watch_prefix``, arms the
    ambient-read traps, and at block exit diffs the module-global
    snapshots.  Raises :class:`AmbientReadError` at the offending read
    and :class:`HermeticityError` at exit on undeclared global drift; a
    body exception propagates unmasked (traps disarmed, no diff).
    """
    monitor = HermeticitySanitizer(
        allowed=allowed, stack_depth=stack_depth, trap_time=trap_time,
        trap_random=trap_random, trap_environ=trap_environ)
    if watch_prefix:
        monitor.watch_package(watch_prefix)
    monitor.install()
    try:
        yield monitor
    finally:
        monitor.uninstall()
    monitor.finish()
