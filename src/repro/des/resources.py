"""Shared resources: the queueing building blocks of every device model.

:class:`Resource` models a server pool with a FIFO (optionally priority)
request queue — disks are built on it.  :class:`FifoServer` is the
single FIFO server whose hold times are known on arrival — host CPUs
and network cables — served by arithmetic instead of events.
:class:`Store` is a producer/consumer buffer of Python objects — message
queues, mailboxes, free-lists.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Optional

from .events import _POOL_LIMIT, PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Request", "Release", "Resource", "FifoServer", "Store",
           "StorePut", "StoreGet"]


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Usable as a context manager::

        with resource.request() as req:
            yield req
            ... hold the resource ...
        # released on exit
    """

    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: float = 0.0):
        # Flattened Event.__init__ — requests are made once per disk and
        # network hold, so the super() hop is measurable.
        self.env = resource.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._stale = None
        self.resource = resource
        self.priority = priority
        resource._enqueue(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        # Inlined Resource.release() pooled fast path: every with-block
        # hold pays this exit exactly once, so the extra call frame is
        # measurable at millions of events per second.  The slow branch
        # (no pooled Release, or monitors attached) still routes through
        # release() so monitor notification order is identical.
        resource = self.resource
        env = self.env
        pool = env._release_pool
        if pool and env._unmonitored:
            release = pool.pop()
            try:
                resource.users.remove(self)
            except ValueError:
                resource._withdraw(self)
            else:
                waiting = resource._waiting
                if waiting and len(resource.users) < resource.capacity:
                    _, _, granted = heappop(waiting)
                    resource.users.append(granted)
                    granted._ok = True
                    granted._value = None
                    if env._schedule_fast:
                        env._eid += 1
                        env._ready.append(granted)
                    else:
                        env.schedule(granted)
            if env._schedule_fast:
                env._eid += 1
                env._ready.append(release)
            else:
                env.schedule(release)
        else:
            resource.release(self)
        # Leaving the with-block is the one point where the request is
        # provably retired — granted, processed (callbacks drained to
        # None) and released, with no later release() call coming (a
        # cancel() inside the block already released; the second release
        # above was a no-op).  Recycle it.  Requests released any other
        # way (explicit release(), cancel without a with) are never
        # pooled, so inspecting those afterwards stays safe.
        if (self.callbacks is None
                and env._unmonitored
                and len(env._request_pool) < _POOL_LIMIT):
            self.callbacks = []
            env._request_pool.append(self)

    def cancel(self) -> None:
        """Withdraw the request.

        Before the grant, the request is silently removed from the wait
        queue and its event never fires — no :class:`Release` is created,
        so cancelling cannot free a server the canceller never held.
        After the grant (even if the granting event has not yet been
        processed) the server slot is genuinely occupied, so cancel
        behaves exactly like :meth:`Resource.release`.  Cancelling twice,
        or cancelling and then leaving the ``with`` block, is a no-op the
        second time.
        """
        if self.triggered:
            self.resource.release(self)
        else:
            self.resource._withdraw(self)


class Release(Event):
    """Event returned by :meth:`Resource.release`; fires immediately."""

    __slots__ = ()

    def __init__(self, resource: "Resource", request: Request):
        env = resource.env
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = None
        self._defused = False
        self._stale = None
        resource._dequeue(request)
        # Inlined self.succeed() — a Release fires exactly once, straight
        # from construction, so the already-triggered guard is dead code.
        # It fires at the current time: ready cohort, no heap entry.
        if env._schedule_fast:
            env._eid += 1
            env._ready.append(self)
        else:
            env.schedule(self)


#: Placeholder occupying a server slot for a grant that skipped the Request
#: object entirely (see :meth:`Resource.try_acquire`).  ``users`` entries are
#: only ever touched by identity (``remove``) and count (``len``) on the
#: unmonitored fast path, so an opaque token is indistinguishable from a
#: granted request to every contender.
_TOKEN = object()


class Resource:
    """A pool of ``capacity`` identical servers with a queue.

    Requests are granted in priority order (ties broken FIFO).  The default
    priority 0 everywhere degenerates to a pure FIFO queue.
    """

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self._waiting: list[tuple[float, int, Request]] = []
        self._ticket = itertools.count()

    # -- public API ----------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of servers currently held."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a server."""
        return len(self._waiting)

    def request(self, priority: float = 0.0) -> Request:
        """Claim a server; the returned event fires when granted.

        Requests are recycled through a per-environment free list once
        they have been granted, processed *and* released — holding on to
        a request after releasing it and inspecting it later is
        unsupported (see docs/PERFORMANCE.md).  Recycling is suspended
        while step, schedule or resource monitors are attached, since
        the leak detector keys held requests by identity.
        """
        env = self.env
        pool = env._request_pool
        if pool and env._unmonitored:
            # Re-arm a retired request and inline the monitor-free
            # _enqueue: the gate above already proved every hook list
            # empty, so the fast path is slot writes plus one heappush.
            request = pool.pop()
            request._value = PENDING
            request._ok = None
            request._defused = False
            request.resource = self
            request.priority = priority
            if not self._waiting and len(self.users) < self.capacity:
                self.users.append(request)
                request._ok = True
                request._value = None
                if env._schedule_fast:
                    env._eid += 1
                    env._ready.append(request)
                else:
                    env.schedule(request)
            else:
                heappush(self._waiting,
                         (priority, next(self._ticket), request))
                if len(self.users) < self.capacity:
                    self._grant()
            return request
        return Request(self, priority)

    def release(self, request: Request) -> Release:
        """Give a server back (or withdraw a waiting request).

        Like Timeouts, processed Release events are recycled through a
        per-environment free list (they carry no state of their own);
        do not inspect a Release after the simulation has moved past it.
        """
        env = self.env
        pool = env._release_pool
        if pool and env._unmonitored:
            # Re-arm a pooled Release and inline the monitor-free
            # _dequeue (users scan, regrant, no notifications).  A
            # Release's _ok/_value/_defused never change between lives,
            # so re-arming writes nothing.
            release = pool.pop()
            try:
                self.users.remove(request)
            except ValueError:
                self._withdraw(request)
            else:
                # One release frees exactly one server, so at most one
                # waiter can be granted — grant it inline instead of
                # paying _grant()'s loop setup.
                waiting = self._waiting
                if waiting and len(self.users) < self.capacity:
                    _, _, granted = heappop(waiting)
                    self.users.append(granted)
                    granted._ok = True
                    granted._value = None
                    if env._schedule_fast:
                        env._eid += 1
                        env._ready.append(granted)
                    else:
                        env.schedule(granted)
            if env._schedule_fast:
                env._eid += 1
                env._ready.append(release)
            else:
                env.schedule(release)
            return release
        return Release(self, request)

    def release_quiet(self, request: Request) -> None:
        """Give a server back without materialising a Release event.

        A Release event is inert — no callbacks ever attach to it, and
        the regrant of the next waiter already happens at release time,
        not when the Release is processed — so for callers that do not
        need the returned event (the spindle holds of
        :class:`~repro.simdisk.disk.DiskAccess` and the §5 model's agent
        state machines) skipping it removes one calendar
        entry per hold.  Grant order, monitor notification order and
        request recycling are identical to :meth:`release`; with any
        step/schedule/resource/access monitor attached the release
        routes through the fully notifying slow path.
        """
        env = self.env
        if env._unmonitored:
            try:
                self.users.remove(request)
            except ValueError:
                self._withdraw(request)
            else:
                waiting = self._waiting
                if waiting and len(self.users) < self.capacity:
                    _, _, granted = heappop(waiting)
                    self.users.append(granted)
                    granted._ok = True
                    granted._value = None
                    if env._schedule_fast:
                        env._eid += 1
                        env._ready.append(granted)
                    else:
                        env.schedule(granted)
            # Same retirement proof as Request.__exit__: granted,
            # processed, and now released — recycle.
            if (request.callbacks is None
                    and len(env._request_pool) < _POOL_LIMIT):
                request.callbacks = []
                env._request_pool.append(request)
        else:
            self._dequeue(request)

    def try_acquire(self) -> bool:
        """Claim a free server with no Request object and no grant event.

        The cheapest possible grant: when the server is free, the queue
        empty and no monitor attached, a placeholder token takes the
        server slot and the caller proceeds inline.  Contenders arriving
        during the hold queue exactly as against a granted request —
        ``users`` grows at the same instant either way.  Returns False
        (claiming nothing) when contended or monitored; the caller falls
        back to :meth:`request`.  A successful claim must be returned
        with :meth:`release_slot`, which holds even if monitors attach
        mid-hold — like request recycling, per-hold monitor fidelity is
        only guaranteed for monitors attached before the run starts.
        """
        if (self.env._unmonitored and not self._waiting
                and len(self.users) < self.capacity):
            self.users.append(_TOKEN)
            return True
        return False

    def release_slot(self) -> None:
        """Release a server claimed with :meth:`try_acquire`.

        Identical regrant semantics to :meth:`release_quiet`: the
        longest-waiting highest-priority request (if any) is granted at
        the current time before this call returns.
        """
        users = self.users
        users.remove(_TOKEN)
        waiting = self._waiting
        if waiting and len(users) < self.capacity:
            env = self.env
            _, _, granted = heappop(waiting)
            users.append(granted)
            granted._ok = True
            granted._value = None
            if env._schedule_fast:
                env._eid += 1
                env._ready.append(granted)
            else:
                env.schedule(granted)

    # -- internals ------------------------------------------------------------

    def _enqueue(self, request: Request) -> None:
        env = self.env
        if env._access_monitors:
            env._notify_access(self, "Resource.request", True)
        if not self._waiting and len(self.users) < self.capacity:
            # Uncontended fast path: an empty wait queue with a free
            # server grants immediately, skipping the heap round-trip.
            # Ticket numbers only order coexisting *waiting* entries, so
            # not consuming one here changes no grant order.
            self.users.append(request)
            if env._resource_monitors:
                env._notify_resource("acquire", self, request)
            self._fire(request)
            return
        heappush(
            self._waiting, (request.priority, next(self._ticket), request)
        )
        if len(self.users) < self.capacity:
            self._grant()

    def _dequeue(self, request: Request) -> None:
        try:
            self.users.remove(request)
        except ValueError:
            # Releasing a request that was never granted (or was already
            # released) degrades to a queue withdrawal, which is a no-op
            # if the request is not waiting either.
            self._withdraw(request)
            return
        env = self.env
        if env._access_monitors:
            env._notify_access(self, "Resource.release", True)
        if env._resource_monitors:
            env._notify_resource("release", self, request)
        if self._waiting:
            self._grant()

    def _withdraw(self, request: Request) -> None:
        """Remove ``request`` from the wait queue without firing anything."""
        survivors = [
            entry for entry in self._waiting if entry[2] is not request
        ]
        if len(survivors) != len(self._waiting):
            self._waiting = survivors
            heapify(self._waiting)

    def _fire(self, request: Request) -> None:
        """Trigger a freshly granted request (``succeed()`` sans guard).

        Grant paths hand each request to ``_fire`` exactly once — the
        heap pop or fast path removes it from contention — so the
        already-triggered check in :meth:`Event.succeed` is dead weight
        at ~20k grants per simulated second.
        """
        request._ok = True
        request._value = None
        env = self.env
        if env._schedule_fast:
            env._eid += 1
            env._ready.append(request)
        else:
            env.schedule(request)

    def _grant(self) -> None:
        waiting = self._waiting
        users = self.users
        capacity = self.capacity
        env = self.env
        monitors = env._resource_monitors
        slow = not env._schedule_fast
        ready = env._ready
        while waiting and len(users) < capacity:
            _, _, request = heappop(waiting)
            users.append(request)
            if monitors:
                env._notify_resource("acquire", self, request)
            request._ok = True
            request._value = None
            if slow:
                env.schedule(request)
            else:
                env._eid += 1
                ready.append(request)


class FifoServer:
    """A first-come-first-served single server with known hold times.

    Every host-CPU and cable hold has capacity 1, priority 0 and a
    service time computed before the request, so its end is known the
    moment it is requested — Lindley's recursion, ``start = max(now,
    previous end)``, ``end = start + duration``.  A :class:`Resource`
    grants a queued hold when the previous one's timeout fires at that
    previous end and schedules ``end_prev + duration``: the very same
    float.  So a hold costs the caller one calendar entry, its
    completion (a timer at ``end``: ``wait_at``, ``call_at`` or
    ``timeout_at``), and no queue bookkeeping.

    ``monitor`` (a medium's) goes busy when a hold finds the server
    idle, and idle in :meth:`done` when the ending hold left nothing
    queued: a hold requested before that completion already pushed
    ``free_at`` past ``now``, which is the Resource's "idle at release
    when the queue is empty".
    """

    __slots__ = ("env", "free_at", "monitor")

    def __init__(self, env: "Environment", monitor=None):
        self.env = env
        self.free_at = env.now
        self.monitor = monitor

    def serve(self, now: float, duration: float) -> float:
        """Queue a ``duration``-second hold requested at ``now``; its end."""
        env = self.env
        if env._access_monitors:
            # Serve order is FIFO order: two unordered same-time serves
            # are a race, as two Resource.request calls are.
            env._notify_access(self, "Server.serve", True)
        start = self.free_at
        if start <= now:
            start = now
            if self.monitor is not None:
                self.monitor.busy(now)
        self.free_at = end = start + duration
        return end

    def done(self, now: float) -> None:
        """A hold ended at ``now`` (monitored servers only)."""
        if self.free_at == now:
            self.monitor.idle(now)


class StorePut(Event):
    """A pending put into a :class:`Store`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        if store.env._access_monitors:
            store.env._notify_access(store, "Store.put", True)
        store._put_queue.append(self)
        store._dispatch()


class StoreGet(Event):
    """A pending get from a :class:`Store`."""

    __slots__ = ("store", "predicate")

    def __init__(self, store: "Store", predicate: Optional[Callable[[Any], bool]]):
        super().__init__(store.env)
        self.store = store
        self.predicate = predicate
        if store.env._access_monitors:
            store.env._notify_access(store, "Store.get", True)
        store._get_queue.append(self)
        store._dispatch()

    def cancel(self) -> None:
        """Withdraw an unfired get so it never consumes an item.

        A no-op if the get was already satisfied (the caller then owns the
        item it received).
        """
        if not self.triggered:
            try:
                self.store._get_queue.remove(self)
            except ValueError:  # pragma: no cover - already dispatched
                pass


class Store:
    """A FIFO buffer of items with optional capacity.

    ``get(predicate)`` takes the first item satisfying the predicate,
    which lets protocol code wait for e.g. "the ACK for sequence 7".
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._put_queue: list[StorePut] = []
        self._get_queue: list[StoreGet] = []

    def put(self, item: Any) -> StorePut:
        """Deposit ``item``; fires once there is room."""
        return StorePut(self, item)

    def put_nowait(self, item: Any) -> None:
        """Deposit ``item`` at once, without a :class:`StorePut` event.

        For producers that never wait on their put (a socket's receive
        buffer, which enforces its own limit): the item lands and any
        waiting get it matches is satisfied exactly as :meth:`put` would,
        one calendar entry cheaper.  Raises ``RuntimeError`` when the
        store is full.
        """
        env = self.env
        if env._access_monitors:
            env._notify_access(self, "Store.put", True)
        if self._put_queue or len(self.items) >= self.capacity:
            raise RuntimeError("put_nowait on a full store")
        self.items.append(item)
        if self._get_queue:
            self._dispatch()

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Withdraw the first item (matching ``predicate`` if given)."""
        return StoreGet(self, predicate)

    @property
    def size(self) -> int:
        """Number of items currently buffered."""
        return len(self.items)

    def purge(self, predicate: Callable[[Any], bool]) -> int:
        """Discard buffered items matching ``predicate``; returns the count."""
        if self.env._access_monitors:
            self.env._notify_access(self, "Store.purge", True)
        keep = [item for item in self.items if not predicate(item)]
        removed = len(self.items) - len(keep)
        self.items = keep
        return removed

    # -- internals ------------------------------------------------------------

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # Admit puts while there is room.
            while self._put_queue and len(self.items) < self.capacity:
                put = self._put_queue.pop(0)
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Satisfy gets that can match.
            remaining: list[StoreGet] = []
            for get in self._get_queue:
                index = self._match(get.predicate)
                if index is None:
                    remaining.append(get)
                else:
                    get.succeed(self.items.pop(index))
                    progress = True
            self._get_queue = remaining

    def _match(self, predicate: Optional[Callable[[Any], bool]]) -> Optional[int]:
        if predicate is None:
            return 0 if self.items else None
        for index, item in enumerate(self.items):
            if predicate(item):
                return index
        return None
