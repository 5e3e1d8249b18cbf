"""Callback-based state-machine processes: the kernel's fast execution mode.

A :class:`CallbackProcess` models the same thing as a generator-based
:class:`~repro.des.process.Process` — a sequence of waits on events — but
the engine advances it with a *direct method call* instead of
``generator.send()``.  Profiling the §5 model puts generator resumption
(frame restore, send dispatch, yield unwinding) at roughly three quarters
of a hot run's wall clock; a bound-method callback re-entering a slotted
object costs a fraction of that.

The trade is explicitness: a subclass writes its control flow as states
(methods) connected by :meth:`wait` edges instead of straight-line
``yield`` code.  Generator processes therefore remain the general API —
callback processes are reserved for measured hot loops (the §5 model's
request path in ``sim/model.py``, whose CPU and ring stages go further
and skip Resource holds for analytic FIFO servers; the NIC pumps, the
disk service loop, the Swift packet pumps).
``tests/sim/reference_model.py`` keeps a generator twin of the §5
request path, and ``tests/sim/test_process_modes.py`` pins the two
equal field for field.

A CallbackProcess is itself an :class:`Event`, exactly like ``Process``:
it triggers when a state calls :meth:`_finish` (value = the process
result) or when a state raises (the exception fails the event).  Waiters
may ``yield`` it from generator processes, ``wait`` on it from other
callback processes, or :meth:`adopt` it as a join-counted child.

Three deliberate event-count reductions versus the generator path (all
result-neutral — same timestamps, same draws, same resource queueing —
and pinned bit-identical by those tests):

* holds release through :meth:`~repro.des.resources.Resource.release_quiet`,
  which never materialises the inert ``Release`` event;
* joins count children down inline (:meth:`adopt`/:meth:`join`) instead
  of building an ``AllOf`` condition event;
* a process nobody waits on completes silently when unmonitored
  (:meth:`_finish`), skipping the no-op completion event.

A running process is a reference cycle (it stores bound methods of
itself: its wakeup edges and pending states).  :meth:`_finish` breaks
the cycle, so a finished process is freed by reference counting as soon
as nothing else holds it, instead of waiting for the cyclic collector.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Optional

from .events import _NORMAL_KEY_BASE, Event, Interrupt, PENDING
from .resources import _TOKEN

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment
    from .resources import Resource

__all__ = ["CallbackProcess"]

#: A state: a bound method taking the triggering event's value.
State = Callable[[Any], None]


class CallbackProcess(Event):
    """A process written as a state machine, dispatched without a generator.

    Subclasses implement ``_start(value)`` and further state methods; each
    state runs to completion and either arranges the next wakeup
    (:meth:`wait`, :meth:`hold`, :meth:`join`) or ends the process
    (:meth:`_finish`).  Construction starts the process: by default via an
    initialisation event, so start order follows creation order exactly as
    for generator processes; ``immediate=True`` runs ``_start`` inside the
    constructor, mirroring a ``yield from`` into the body (the caller's
    current dispatch) rather than a spawned child.
    """

    __slots__ = ("_state", "_target", "_bound_step", "_bound_hold",
                 "_bound_child", "_children", "_join_state",
                 "_h_res", "_h_req", "_h_duration", "_h_next")

    def __init__(self, env: "Environment", immediate: bool = False):
        # Flattened Event.__init__, as for Request/Timeout: one of these
        # is built per simulated operation on the hot paths.
        self.env = env
        self.callbacks = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False
        self._stale = None
        self._target: Optional[Event] = None
        # Bound once: registering a fresh bound method per wait would
        # allocate on every edge (see Process._bound_resume).
        self._bound_step = self._step
        # The hold-completion edge skips _step entirely: _hold_done is
        # registered on the service timeout and carries its own dispatch
        # bookkeeping, so the hottest edge costs one call, not two.
        self._bound_hold = self._hold_done
        self._bound_child = None
        self._children = 0
        self._join_state: Optional[State] = None
        self._state: State = self._start
        if immediate:
            self._dispatch(self._start, None)
        else:
            init = Event(env)
            init._ok = True
            init._value = None
            init.callbacks.append(self._bound_step)
            env.schedule(init)

    # -- subclass interface ---------------------------------------------------

    def _start(self, value: Any) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} must implement _start()")

    def _on_failure(self, exc: BaseException) -> None:
        """Handle a failed wait target (or an interrupt).

        The default re-raises, which fails the process with the exception
        — the callback analogue of a generator that does not catch a
        ``throw()``.  Subclasses that hold resources override this to
        clean up first, then re-raise.
        """
        raise exc

    # -- public API -----------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True until a state finishes or fails the process."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is waiting on (None while running)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Deliver :class:`Interrupt` to the process (see Process.interrupt).

        The current wait is abandoned and :meth:`_on_failure` runs with
        the interrupt at the current simulation time.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has already terminated")
        if self is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._bound_step)
        self.env.schedule(interrupt_event, priority=self.env.PRIORITY_URGENT)

    # -- wiring states to events ----------------------------------------------

    def wait(self, event: Event, state: State) -> None:
        """Suspend until ``event`` fires, then dispatch ``state(value)``.

        An already-processed event continues inline with its recorded
        outcome, matching the generator engine's loop-around for
        processed yields.
        """
        self._state = state
        callbacks = event.callbacks
        if callbacks is None:
            if event._ok:
                state(event._value)
            else:
                event._defused = True
                self._on_failure(event._value)
            return
        self._target = event
        callbacks.append(self._bound_step)

    def wait_timeout(self, duration: float, state: State) -> None:
        """Suspend ``duration`` seconds, then dispatch ``state(None)``.

        Exactly ``wait(env.timeout(duration), state)``, with the pooled
        timeout fast path of :meth:`~repro.des.engine.Environment.timeout`
        inlined (one pool pop, one calendar entry, no intermediate
        calls) — this is the single hottest edge in a callback run.  Any
        monitored or unpooled case defers to ``env.timeout`` so the
        notification logic stays in one place.
        """
        env = self.env
        pool = env._timeout_pool
        if pool and env._unmonitored and env._schedule_fast:
            if duration < 0:
                raise ValueError(f"negative delay {duration}")
            timeout = pool.pop()
            timeout.delay = duration
            timeout._value = None
            now = env._now
            when = now + duration
            env._eid = eid = env._eid + 1
            if when == now:
                env._ready.append(timeout)
            else:
                heappush(env._queue,
                         (when, _NORMAL_KEY_BASE + eid, timeout))
        else:
            timeout = env.timeout(duration)
        self._state = state
        self._target = timeout
        timeout.callbacks.append(self._bound_step)

    def hold(self, resource: "Resource", duration: float, next_state: State,
             priority: float = 0.0) -> None:
        """Request ``resource``, hold it ``duration`` seconds, release, go on.

        The canonical hold sequence, event for event the same as::

            with resource.request(priority=...) as grant:
                yield grant
                yield env.timeout(duration)

        except that the release is quiet (no Release event) and an
        uncontended grant is a token claim (no grant event, no Request
        object — see :meth:`~repro.des.resources.Resource.try_acquire`),
        so an uncontended unmonitored hold costs exactly one calendar
        entry: the timeout.  ``duration`` must be a float computed
        *before* the request, exactly as a generator evaluates its
        timeout argument; holds whose service time depends on grant-time
        state (disk positioning, cable contention) write their own
        states instead.
        """
        self._h_res = resource
        self._h_next = next_state
        env = self.env
        if (env._unmonitored and not resource._waiting
                and len(resource.users) < resource.capacity):
            # Token grant (Resource.try_acquire inlined), straight to
            # the service timeout (wait_timeout inlined; _unmonitored
            # is already proven, so the pool gate shrinks to two tests).
            resource.users.append(_TOKEN)
            self._h_req = None
            pool = env._timeout_pool
            if pool and env._schedule_fast:
                if duration < 0:
                    raise ValueError(f"negative delay {duration}")
                timeout = pool.pop()
                timeout.delay = duration
                timeout._value = None
                now = env._now
                when = now + duration
                env._eid = eid = env._eid + 1
                if when == now:
                    env._ready.append(timeout)
                else:
                    heappush(env._queue,
                             (when, _NORMAL_KEY_BASE + eid, timeout))
            else:
                timeout = env.timeout(duration)
            self._target = timeout
            timeout.callbacks.append(self._bound_hold)
        else:
            self._h_req = request = resource.request(priority)
            self._h_duration = duration
            self._state = self._hold_granted
            self._target = request
            request.callbacks.append(self._bound_step)

    def _hold_granted(self, _value: Any) -> None:
        self._target = timeout = self.env.timeout(self._h_duration)
        timeout.callbacks.append(self._bound_hold)

    def _hold_done(self, _timeout: Event) -> None:
        # Registered directly on the service timeout (no _step hop), so
        # it carries _step's dispatch bookkeeping itself: process
        # context, failure capture, target reset.
        self._target = None
        env = self.env
        prev = env._active_process
        env._active_process = self
        try:
            resource = self._h_res
            request = self._h_req
            if request is None:
                resource.release_slot()
            else:
                resource.release_quiet(request)
                self._h_req = None
            self._h_next(None)
        except BaseException as exc:
            if self._value is PENDING:
                self._ok = False
                self._value = exc
                env.schedule(self)
            else:
                raise
        finally:
            env._active_process = prev

    # -- children -------------------------------------------------------------

    def adopt(self, child: "CallbackProcess | Event") -> None:
        """Count ``child`` toward this process's :meth:`join`.

        The callback-mode replacement for collecting spawned processes
        into ``env.all_of(...)``: an inline counter instead of a
        condition event.  A failed child fails this process (the AllOf
        contract); an already-finished child just doesn't count.
        """
        bound = self._bound_child
        if bound is None:
            bound = self._bound_child = self._child_done
        callbacks = child.callbacks
        if callbacks is None:
            if not child._ok:
                child._defused = True
                raise child._value
            return
        self._children += 1
        callbacks.append(bound)

    def join(self, state: State) -> None:
        """Dispatch ``state(None)`` once every adopted child has finished.

        With no children outstanding the state runs inline (the empty
        ``AllOf`` fires immediately in the reference semantics).
        """
        if self._children:
            self._join_state = state
        else:
            state(None)

    def _child_done(self, child: Event) -> None:
        if not child._ok:
            child._defused = True
            if self._value is PENDING:
                self._ok = False
                self._value = child._value
                self.env.schedule(self)
            return
        self._children -= 1
        if not self._children:
            state = self._join_state
            if state is not None:
                self._join_state = None
                self._dispatch(state, None)

    # -- finishing ------------------------------------------------------------

    def _finish(self, value: Any = None) -> None:
        """End the process successfully with ``value``.

        Unmonitored, the completion event is skipped entirely: the
        process flips straight to processed and any registered waiters
        are resumed inline, at the same timestamp the reference path
        would have reached them one calendar entry later (same-time
        micro-reordering — pinned result-invariant by the perturbation
        harness).  With a monitor attached it triggers normally so every
        observer sees a real completion event in the expanded sequence.

        Either way the process first drops the bound methods of itself it
        stores, so that it is no longer a reference cycle (see the module
        docstring).
        """
        self._bound_step = self._bound_hold = self._bound_child = None
        self._state = self._h_next = self._join_state = None
        env = self.env
        if env._unmonitored:
            callbacks = self.callbacks
            self._ok = True
            self._value = value
            self.callbacks = None
            for callback in callbacks:
                callback(self)
        else:
            self.succeed(value)

    # -- engine plumbing ------------------------------------------------------

    def _step(self, trigger: Event) -> None:
        """Advance the state machine with the outcome of ``trigger``."""
        target = self._target
        if trigger is not target and target is not None:
            # Interrupted: detach from the abandoned wait target (the
            # registered callback is _bound_step for wait edges,
            # _bound_hold for a hold parked on its service timeout).
            if target.callbacks is not None:
                try:
                    target.callbacks.remove(self._bound_step)
                except ValueError:
                    try:
                        target.callbacks.remove(self._bound_hold)
                    except ValueError:  # pragma: no cover - defensive
                        pass
        self._target = None
        env = self.env
        prev = env._active_process
        env._active_process = self
        try:
            if trigger._ok:
                self._state(trigger._value)
            else:
                trigger._defused = True
                self._on_failure(trigger._value)
        except BaseException as exc:
            if self._value is PENDING:
                self._ok = False
                self._value = exc
                env.schedule(self)
            else:
                raise
        finally:
            env._active_process = prev

    def _dispatch(self, state: State, value: Any) -> None:
        """Run one state with process context and failure capture."""
        env = self.env
        prev = env._active_process
        env._active_process = self
        try:
            state(value)
        except BaseException as exc:
            if self._value is PENDING:
                self._ok = False
                self._value = exc
                env.schedule(self)
            else:
                raise
        finally:
            env._active_process = prev

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "dead"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"
