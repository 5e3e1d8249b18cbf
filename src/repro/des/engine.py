"""The simulation engine: a calendar of events and the loop that drains it.

Typical use::

    env = Environment()

    def worker(env):
        yield env.timeout(3.0)
        return "done"

    proc = env.process(worker(env))
    env.run()
    assert env.now == 3.0
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from types import MethodType
from typing import Any, Optional

from .events import _POOL_LIMIT, AllOf, AnyOf, Event, Timeout
from .process import Process, ProcessGenerator
from .resources import Release

__all__ = ["Environment", "EmptySchedule", "StopSimulation", "tie_break_key"]

_FNV_OFFSET = 2166136261
_FNV_PRIME = 16777619
_FNV_MASK = (1 << 64) - 1

#: What :meth:`Environment.observe` accepts, one monitor list per kind.
_MONITOR_KINDS = ("step", "schedule", "resource", "access", "transfer",
                  "alias")


class EmptySchedule(Exception):
    """Raised internally when the calendar runs dry."""


class StopSimulation(Exception):
    """Raised to terminate :meth:`Environment.run` early."""


def _fnv_fold(digest: int, text: str) -> int:
    """Fold ``text`` into a running 64-bit-masked FNV-1a digest."""
    for char in text:
        digest = ((digest ^ ord(char)) * _FNV_PRIME) & _FNV_MASK
    return digest


def _tie_prefix(seed: int) -> int:
    """The FNV-1a digest of ``f"{seed}:"`` — the per-seed constant part.

    Hashed once per :class:`Environment` (or per distinct seed through
    :func:`tie_break_key`) instead of re-mixing the seed's digits on
    every scheduled event.
    """
    return _fnv_fold(_FNV_OFFSET, f"{seed}:")


#: Memoised per-seed prefixes for the standalone :func:`tie_break_key`.
_PREFIX_CACHE: dict[int, int] = {}


def tie_break_key(seed: int, eid: int) -> tuple[int, int]:
    """Deterministic shuffle key for one calendar entry.

    An FNV-1a mix of ``(seed, eid)``: same-time entries sort by the hash
    instead of by insertion order, so each seed yields one fixed
    permutation of every tie.  The trailing ``eid`` keeps the key total
    even on hash collisions.  Under a tie-break seed this *is* the
    calendar key.

    The digest is bit-identical to hashing ``f"{seed}:{eid}"`` from
    scratch (the pre-optimization implementation): FNV-1a folds left to
    right, so the seed-and-colon prefix can be hashed once and only the
    ``eid`` digits folded per call.
    """
    prefix = _PREFIX_CACHE.get(seed)
    if prefix is None:
        prefix = _PREFIX_CACHE[seed] = _tie_prefix(seed)
    return (_fnv_fold(prefix, str(eid)), eid)


class Environment:
    """Execution environment for a single simulation run.

    Time is a float in *seconds* throughout this project (disk and network
    models convert from ms/µs at their boundaries).

    The clock starts at 0.0.  Calendar entries are ``(time, key,
    event)`` and sort by time, then key.  The key is the event id, so
    equal-time events run in the order they were scheduled.  Passing
    ``tie_break_seed`` makes the key :func:`tie_break_key` of the id, a
    seeded hash that deterministically shuffles every same-time tie:
    the schedule-perturbation harness (:mod:`repro.check.perturb`) runs
    the same scenario under several seeds and asserts the metrics do not
    move, which proves no result leans on tie-break order.

    **Cohort dispatch.**  Most events in a hot run are scheduled *at the
    current timestamp* (resource grants, releases, ``succeed()`` fan-out):
    they join the same-time cohort the engine is already draining.  With
    no tie shuffle or schedule monitors, those events skip the heap
    entirely — no entry tuple, no sift — and land on an append-ordered
    ready deque.  The drain order is provably the heap order: every
    ready entry carries a larger event id than every same-time heap
    entry (heap entries at the current time were necessarily scheduled
    earlier, for a then-future time), so "heap first while its top is at
    ``now``, then the deque in append order" reproduces ``(time, eid)``
    exactly.
    A schedule monitor or a tie-break seed sends every event through
    the one-heap path instead, exactly as pooling is disabled,
    so detectors always observe the fully ordered, individually
    dispatched engine.

    **Timer callbacks.**  A calendar entry may carry a bound method from
    :meth:`call_at` instead of an Event; the loop calls it as ``fn(None)``.
    Under a monitor or a tie-break seed the entry is a Timeout carrying
    ``fn``, so observers only ever see Events.
    """

    def __init__(self, tie_break_seed: Optional[int] = None):
        self._now = 0.0
        self._queue: list = []
        # Same-timestamp cohort: events scheduled at the current time by
        # a fast path wait here in append (= eid) order instead of in the
        # heap.  Only ever non-empty while _schedule_fast holds; a
        # monitor attaching mid-run spills it back into the heap (see
        # _refresh_fast_flags).
        self._ready: deque = deque()
        self._eid = 0
        self._active_process: Optional[Process] = None
        # Generator processes that have not finished, in start order.
        self._processes: dict = {}
        # Free lists of processed Timeout / Release / Request objects
        # (see timeout_at(), Resource.release() and Resource.request()).
        self._timeout_pool: list = []
        self._release_pool: list = []
        self._request_pool: list = []
        # Monitor lists, one per kind (see observe()).  All are empty in
        # normal runs so the hot loop pays only a truthiness test per
        # event.
        self._step_monitors: list = []
        self._resource_monitors: list = []
        self._schedule_monitors: list = []
        self._access_monitors: list = []
        self._transfer_monitors: list = []
        self._alias_monitors: list = []
        # The seed-dependent half of tie_break_key, cached so schedule()
        # folds only the eid digits per event (None = ties sort by raw
        # eid, the default contract).  Fixed at construction: heap keys
        # are eids without a seed and tie_break_key tuples with one, and
        # the two never meet in one calendar.
        self._tie_break_seed = tie_break_seed
        self._tie_seed_prefix = (None if tie_break_seed is None
                                 else _tie_prefix(tie_break_seed))
        self._refresh_fast_flags()

    # -- clock ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def tie_break_seed(self) -> Optional[int]:
        """Seed of the deterministic tie shuffle (None = insertion order)."""
        return self._tie_break_seed

    def _refresh_fast_flags(self) -> None:
        """Recompute the two cached hot-path gates.

        ``_schedule_fast``: no tie shuffle and no schedule monitors, so
        triggering code may push ``(when, eid, event)`` (or append a
        same-time event to the ready cohort) directly, bypassing
        :meth:`schedule`.  ``_unmonitored``: no step, schedule, resource
        or access monitors, so event pooling and the inlined
        monitor-free resource paths are allowed.
        """
        self._schedule_fast = (self._tie_seed_prefix is None
                               and not self._schedule_monitors)
        self._unmonitored = not (self._step_monitors
                                 or self._schedule_monitors
                                 or self._resource_monitors
                                 or self._access_monitors)
        if not self._unmonitored:
            # Box pending call_at entries into Timeouts under their own
            # keys: monitors see only Events, in unchanged order.
            queue = self._queue
            for index, (when, key, fn) in enumerate(queue):
                if type(fn) is MethodType:
                    queue[index] = (when, key, self._boxed(fn))
            ready = self._ready
            for index, fn in enumerate(ready):
                if type(fn) is MethodType:
                    ready[index] = self._boxed(fn)
        if not self._schedule_fast and self._ready:
            # A schedule monitor arrived while a cohort was pending:
            # spill it into the heap so the one-queue reference path
            # sees every event.  Fresh ids keep append order and stay
            # above every same-time key already in the heap.
            ready = self._ready
            queue = self._queue
            now = self._now
            while ready:
                eid = self._eid = self._eid + 1
                heappush(queue, (now, eid, ready.popleft()))

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped (None between steps)."""
        return self._active_process

    # -- monitoring hooks ---------------------------------------------------

    def observe(self, kind: str, callback) -> None:
        """Call ``callback`` on every occurrence of ``kind`` in this run.

        ==========  ====================================  ==================
        ``kind``    callback signature                    gate it clears
        ==========  ====================================  ==================
        step        ``(when, event)``                     ``_unmonitored``
        schedule    ``(event, active_process)``           ``_unmonitored``,
                                                          ``_schedule_fast``
        resource    ``(action, resource, request)``       ``_unmonitored``
        access      ``(obj, label, is_write)``            ``_unmonitored``
        transfer    ``(kind, **info)``                    none
        alias       ``(kind, buffer)``                    none
        ==========  ====================================  ==================

        *step* runs as each event is popped, before the clock advances
        and the event's callbacks run, so it may veto a non-monotonic
        timestamp by raising; it always receives an Event, never a
        :meth:`call_at` callback.  *schedule* runs as an event is placed on
        the calendar; ``active_process`` is the process whose segment
        scheduled it (None in the callback phase or at setup).
        *resource* runs on every ``Resource`` grant or release
        (``action`` is ``"acquire"`` or ``"release"``), *access* on every
        instrumented shared-state access, *transfer* on every data-path
        accounting event (the conservation ledger) and *alias* on every
        shared buffer mutate or retire (the aliasing sanitizer).

        Clearing ``_unmonitored`` turns off event pooling, token grants,
        inline finishes and raw :meth:`call_at` entries (pending ones
        become Timeouts at attach time), because detectors key state by
        event identity and need every completion event.  Clearing
        ``_schedule_fast`` also routes every event through the heap, so
        schedule callbacks see each one.  Transfer and alias callbacks
        leave both gates alone: their emitters guard on the list, so the
        observed run is the production engine.  Span coalescing runs
        under every kind — a coalesced chain lands at the same instant
        as the expanded one.  An unknown ``kind`` raises ``ValueError``.
        """
        self._monitors(kind).append(callback)
        self._refresh_fast_flags()

    def unobserve(self, kind: str, callback) -> None:
        """Detach a callback :meth:`observe` attached (no-op if absent)."""
        monitors = self._monitors(kind)
        if callback in monitors:
            monitors.remove(callback)
        self._refresh_fast_flags()

    def _monitors(self, kind: str) -> list:
        if kind not in _MONITOR_KINDS:
            raise ValueError(f"unknown monitor kind {kind!r}; "
                             f"expected one of {', '.join(_MONITOR_KINDS)}")
        return getattr(self, f"_{kind}_monitors")

    def _notify_resource(self, action: str, resource, request) -> None:
        for callback in self._resource_monitors:
            callback(action, resource, request)

    def _notify_access(self, obj, label: str, is_write: bool) -> None:
        for callback in self._access_monitors:
            callback(obj, label, is_write)

    def _notify_transfer(self, kind: str, **info) -> None:
        for callback in self._transfer_monitors:
            callback(kind, **info)

    def _notify_alias(self, kind: str, buffer) -> None:
        for callback in self._alias_monitors:
            callback(kind, buffer)

    # -- event factories --------------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now.

        Processed Timeouts are recycled through a small free list: once a
        Timeout has fired and its callbacks have run, a later ``timeout()``
        call may return the same object re-armed.  Holding a reference to
        a fired Timeout and inspecting it after the simulation has moved
        on is therefore unsupported (see docs/PERFORMANCE.md).  Recycling
        is suspended while step, schedule, resource or access monitors
        are attached, since detectors key state by event identity.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.timeout_at(self._now + delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """A Timeout at the *absolute* calendar time ``when``.

        The landing point for event-span coalescing: a chain of k
        timeouts reaches ``((now + s1) + s2) ... + sk`` under float
        accumulation, and scheduling ``timeout(t_final - now)`` would
        round differently (``now + (t_final - now) != t_final`` in
        general).  Callers accumulate ``when`` with the exact reference
        additions and this places the event at that exact float, keeping
        the coalesced completion bit-identical to the expanded chain's
        last event.  Recycling follows :meth:`timeout`, which routes
        here: this is the one place a pooled Timeout is re-armed.
        """
        now = self._now
        if when < now:
            raise ValueError(f"timeout_at({when}) is in the past (now={now})")
        pool = self._timeout_pool
        if pool and self._unmonitored:
            # Pooled instances arrive with an empty callbacks list (see
            # the run-loop recycler) and, as processed successful
            # Timeouts, with _ok True and _defused False: only the value
            # changes between lives, so re-arming allocates nothing.
            timeout = pool.pop()
            timeout._value = value
            if self._schedule_fast:
                eid = self._eid = self._eid + 1
                if when == now:
                    # Same-timestamp cohort: join the ready deque.
                    self._ready.append(timeout)
                else:
                    heappush(self._queue, (when, eid, timeout))
                return timeout
        else:
            timeout = self._boxed(value=value)
        self.schedule(timeout, when)
        return timeout

    def call_at(self, when: float, fn) -> None:
        """Call the bound method ``fn`` at the absolute time ``when``.

        Unmonitored and without a tie-break seed, ``fn`` itself is the
        calendar entry, under the key and eid :meth:`timeout_at` would
        use, and the run loop calls ``fn(None)``; it must be a bound
        method, the type the loop tells raw entries by.  Otherwise ``fn``
        is the one callback of ``timeout_at(when)``.
        """
        now = self._now
        if when < now:
            raise ValueError(f"call_at({when}) is in the past (now={now})")
        if self._unmonitored and self._schedule_fast:
            eid = self._eid = self._eid + 1
            if when == now:
                self._ready.append(fn)
            else:
                heappush(self._queue, (when, eid, fn))
        else:
            self.timeout_at(when).callbacks.append(fn)

    def _boxed(self, fn=None, value: Any = None) -> Timeout:
        """A new, unscheduled Timeout calling ``fn`` if given."""
        timeout = Timeout.__new__(Timeout)
        timeout.env = self
        timeout.callbacks = [] if fn is None else [fn]
        timeout._defused = False
        timeout._stale = None
        timeout._ok = True
        timeout._value = value
        return timeout

    def process(self, generator: ProcessGenerator) -> Process:
        """Register ``generator`` as a new process starting now."""
        return Process(self, generator)

    def all_of(self, events) -> AllOf:
        """Event that fires when every event in ``events`` has succeeded."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Event that fires when any event in ``events`` has succeeded."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, event: Event, when: Optional[float] = None) -> None:
        """Place a triggered event on the calendar at ``when`` (default now).

        The entry is ``(when, key, event)``: ``key`` is the event id, or
        ``tie_break_key(seed, eid)`` under a tie-break seed.  A same-time
        event with no seed or schedule monitor joins the ready cohort
        instead of the heap.  A ``when`` before now is an error, as for
        :meth:`timeout_at`: the run loop would move the clock back.
        """
        if when is None:
            when = self._now
        elif when < self._now:
            raise ValueError(f"schedule({when}) is in the past "
                             f"(now={self._now})")
        eid = self._eid = self._eid + 1
        if self._schedule_monitors:
            for monitor in self._schedule_monitors:
                monitor(event, self._active_process)
        prefix = self._tie_seed_prefix
        if prefix is None:
            if when == self._now and self._schedule_fast:
                self._ready.append(event)
                return
            key = eid
        else:
            key = (_fnv_fold(prefix, str(eid)), eid)
        heappush(self._queue, (when, key, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._ready:
            # A pending cohort runs at the current time unless the heap
            # holds something even earlier (a past-time artifact).
            if self._queue and self._queue[0][0] < self._now:
                return self._queue[0][0]
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event from the calendar."""
        queue = self._queue
        if self._ready and not (queue and queue[0][0] <= self._now):
            event = self._ready.popleft()
            when = self._now
        else:
            try:
                when, _, event = heappop(queue)
            except IndexError:
                raise EmptySchedule() from None
        if type(event) is MethodType:
            self._now = when
            event(None)
            return
        if self._step_monitors:
            for monitor in self._step_monitors:
                monitor(when, event)
        if when < self._now:  # pragma: no cover - heap guarantees ordering
            raise RuntimeError("event scheduled in the past")
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            exc = event._value
            if isinstance(exc, BaseException):
                raise exc
            raise RuntimeError(f"unhandled failed event: {event!r}")
        self._maybe_recycle(event)

    def _maybe_recycle(self, event: Event) -> None:
        """Return a processed Timeout or Release to its free list.

        Only exact Timeout/Release instances are pooled (subclasses may
        carry extra state), the pools are bounded, and recycling is
        disabled entirely while step, schedule, resource or access
        monitors are attached —
        the happens-before detector and the sanitizer key per-event
        state by object identity, which reuse would alias.
        """
        if not self._unmonitored:
            return
        cls = type(event)
        if cls is Timeout:
            pool = self._timeout_pool
        elif cls is Release:
            pool = self._release_pool
        else:
            return
        if len(pool) < _POOL_LIMIT:
            event.callbacks = []  # pool invariant: empty list, not None
            pool.append(event)

    # -- run loop -----------------------------------------------------------

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` runs until the calendar is empty.  A number runs until
            simulated time reaches it.  An :class:`Event` runs until that
            event is processed and returns its value.
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is not None:
                stop_event.callbacks.append(self._stop_callback)
            elif stop_event.triggered:
                return stop_event.value
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(
                    f"until ({stop_time}) must not be in the past "
                    f"(now={self._now})"
                )

        # The drain loop is step() inlined: cohort dispatch first (pop
        # the ready deque while the heap has nothing due), then one
        # heappop to refill or advance, with the queue, the deque, the
        # monitor lists and the event pools bound to locals.  Monitors
        # mutate those lists in place, so the aliases stay live.  Ready
        # entries skip the per-event clock write — their timestamp *is*
        # the current time — and the heap-top guard before each cohort
        # pop runs the heap's entries due now (scheduled earlier, so
        # smaller eids) ahead of the cohort, preserving exact (time, eid)
        # order.  A call_at entry is called and done.
        method = MethodType
        queue = self._queue
        ready = self._ready
        ready_pop = ready.popleft
        step_monitors = self._step_monitors
        timeout_pool = self._timeout_pool
        release_pool = self._release_pool
        now = self._now
        try:
            while True:
                if ready:
                    if queue and queue[0][0] <= now:
                        when, _, event = heappop(queue)
                        if when != now:
                            self._now = now = when
                    else:
                        event = ready_pop()
                        when = now
                elif queue:
                    when = queue[0][0]
                    if when > stop_time:
                        self._now = stop_time
                        return None
                    when, _, event = heappop(queue)
                    self._now = now = when
                else:
                    if stop_time != float("inf"):
                        self._now = stop_time
                        return None
                    raise EmptySchedule()
                cls = type(event)
                if cls is method:
                    event(None)
                    continue
                if step_monitors:
                    for monitor in step_monitors:
                        monitor(when, event)
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                if event._ok:
                    if (cls is Timeout
                            and len(timeout_pool) < _POOL_LIMIT
                            and self._unmonitored):
                        # Pool invariant: a pooled Timeout carries an
                        # *empty* callbacks list, recycled from the one
                        # just drained, so timeout() re-arms it without
                        # allocating.
                        callbacks.clear()
                        event.callbacks = callbacks
                        timeout_pool.append(event)
                    elif (cls is Release
                            and len(release_pool) < _POOL_LIMIT
                            and self._unmonitored):
                        callbacks.clear()
                        event.callbacks = callbacks
                        release_pool.append(event)
                elif not event._defused:
                    exc = event._value
                    if isinstance(exc, BaseException):
                        raise exc
                    raise RuntimeError(f"unhandled failed event: {event!r}")
        except StopSimulation as stop:
            return stop.args[0] if stop.args else None
        except EmptySchedule:
            if stop_event is not None and not stop_event.triggered:
                raise RuntimeError(
                    "run(until=event) but the event was never triggered and "
                    "the schedule is empty"
                ) from None
            return None

    def close(self) -> None:
        """End the simulation: close every unfinished process's generator
        and empty the calendar, so what a parked process holds (a server
        loop's file system, say) is freed now, not at a full collection."""
        processes, self._processes = self._processes, {}
        for process in processes:
            process._generator.close()
        self._queue.clear()
        self._ready.clear()

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        event._defused = False  # let step() re-raise the failure
