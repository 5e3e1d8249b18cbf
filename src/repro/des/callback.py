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
request path in ``sim/model.py``, the disk service loop, the Swift
packet pumps).  Where every stage is a FIFO server with a known hold
time (host CPUs, cables) the loops go further: a stage is one
:class:`~repro.des.resources.FifoServer` serve and one timer, and the
prototype network's sends, NIC and receive path need no process at
all.
``tests/sim/reference_model.py`` keeps a generator twin of the §5
request path, and ``tests/sim/test_process_modes.py`` pins the two
equal field for field.

A CallbackProcess is itself an :class:`Event`, exactly like ``Process``:
it triggers when a state calls :meth:`_finish` (value = the process
result) or when a state raises (the exception fails the event).  Waiters
may ``yield`` it from generator processes or ``wait`` on it from other
callback processes.  A failed wait target raises its exception inside
the waiting process, which fails it — the callback analogue of a
generator that does not catch a ``throw()``.

A timer edge (:meth:`wait_at`, :meth:`wait_timeout`) puts the process's
own ``_step`` on the calendar (:meth:`~repro.des.engine.Environment.call_at`):
unmonitored, no Timeout is built, and ``_step(None)`` still sets
``active_process`` and turns a raising state into the process's failure.

Two deliberate event-count reductions versus the generator path (both
result-neutral — same timestamps, same draws, same resource queueing —
and pinned bit-identical by those tests):

* the subclasses' resource holds release through
  :meth:`~repro.des.resources.Resource.release_quiet`, which never
  materialises the inert ``Release`` event;
* a process nobody waits on completes silently when unmonitored
  (:meth:`_finish`), skipping the no-op completion event.

A running process is a reference cycle (it stores bound methods of
itself: its wakeup edge and pending state).  :meth:`_finish` breaks
the cycle, so a finished process is freed by reference counting as soon
as nothing else holds it, instead of waiting for the cyclic collector.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from .events import Event, PENDING

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["CallbackProcess"]

#: A state: a bound method taking the triggering event's value.
State = Callable[[Any], None]


class CallbackProcess(Event):
    """A process written as a state machine, dispatched without a generator.

    Subclasses implement ``_start(value)`` and further state methods; each
    state runs to completion and either arranges the next wakeup
    (:meth:`wait`, :meth:`wait_at`, :meth:`wait_timeout`) or ends the
    process (:meth:`_finish`).  The constructor runs ``_start(None)``
    inside the caller's current dispatch, mirroring a ``yield from`` into
    the body rather than a spawned child, so a subclass sets its fields
    before it calls ``super().__init__``.
    """

    __slots__ = ("_state", "_bound_step")

    def __init__(self, env: "Environment"):
        # Flattened Event.__init__, as for Request/Timeout: one of these
        # is built per simulated operation on the hot paths.
        self.env = env
        self.callbacks = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False
        self._stale = None
        # Bound once: registering a fresh bound method per wait would
        # allocate on every edge (see Process._bound_resume).
        self._bound_step = self._step
        prev = env._active_process
        env._active_process = self
        try:
            self._start(None)
        except BaseException as exc:
            if self._value is PENDING:
                self._ok = False
                self._value = exc
                env.schedule(self)
            else:
                raise
        finally:
            env._active_process = prev

    # -- subclass interface ---------------------------------------------------

    def _start(self, value: Any) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} must implement _start()")

    # -- public API -----------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True until a state finishes or fails the process."""
        return self._value is PENDING

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
                return
            event._defused = True
            raise event._value
        callbacks.append(self._bound_step)

    def wait_at(self, when: float, state: State) -> None:
        """Suspend until the absolute time ``when``, then ``state(None)``."""
        self._state = state
        self.env.call_at(when, self._bound_step)

    def wait_timeout(self, duration: float, state: State) -> None:
        """Suspend ``duration`` seconds, then dispatch ``state(None)``."""
        if duration < 0:
            raise ValueError(f"negative delay {duration}")
        self.wait_at(self.env._now + duration, state)

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
        self._bound_step = self._state = None
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

    def _step(self, trigger: Optional[Event]) -> None:
        """Advance the state machine on ``trigger`` (None: a timer fired)."""
        env = self.env
        prev = env._active_process
        env._active_process = self
        try:
            if trigger is None:
                self._state(None)
            elif trigger._ok:
                self._state(trigger._value)
            else:
                trigger._defused = True
                raise trigger._value
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
