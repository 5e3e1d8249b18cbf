"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on.  Its
lifecycle is::

    pending --> triggered --> processed
                (scheduled)   (callbacks ran)

An event is *triggered* by :meth:`Event.succeed` or :meth:`Event.fail`, which
places it on the simulation calendar; once the engine pops it, the event is
*processed* and its callbacks run exactly once.

The module also provides composite conditions (:class:`AllOf`, :class:`AnyOf`)
and the :class:`Timeout` event used to model the passage of time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .engine import Environment

__all__ = [
    "PENDING",
    "Event",
    "StaleEventError",
    "Timeout",
    "ConditionEvent",
    "AllOf",
    "AnyOf",
]


class StaleEventError(RuntimeError):
    """A recycled pooled event was touched through a stale reference.

    Raised only while the aliasing sanitizer
    (:class:`repro.check.sanitize.AliasSanitizer`) has marked the free
    lists; unmonitored runs never set the ``_stale`` slot.  The message
    carries the recycle site's stack; the use site is this exception's
    own traceback — read both.
    """


class _PendingType:
    """Sentinel for "this event has no value yet"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


#: Sentinel stored in :attr:`Event._value` until the event is triggered.
PENDING = _PendingType()

#: How many processed events each per-environment free list may hold
#: (Timeout, Release and Request pools all share this bound).
_POOL_LIMIT = 128


class Event:
    """A one-shot occurrence on the simulation calendar.

    Events are the single most-allocated object in any run, so the whole
    hierarchy is slotted: no per-instance ``__dict__``, and subclasses
    declare exactly the fields they add.

    Parameters
    ----------
    env:
        The environment the event belongs to.
    """

    #: ``_hb_clock`` is written only by the happens-before detector
    #: (:mod:`repro.check.hb`) while its schedule monitor is attached;
    #: normal runs never touch the slot, so it stays unset and costs
    #: nothing to construct.  ``_stale`` is the aliasing sanitizer's
    #: recycle mark: the instrumented free list that currently parks
    #: this event, or None.  It is initialised by every constructor so
    #: :attr:`value` can test it with a plain load, and set/cleared only
    #: by the sanitizer's pools — re-arm fast paths never touch it.
    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused",
                 "_stale", "_hb_clock")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: Set by the engine after callbacks have run.
        self._defused = False
        self._stale = None

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or was) on the calendar."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception if it failed)."""
        value = self._value
        if value is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        if self._stale is not None:
            raise StaleEventError(
                f"use-after-recycle: {self._stale._describe_stale()}")
        return value

    def defuse(self) -> None:
        """Mark a failed event as handled so the engine does not re-raise."""
        self._defused = True

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined env.schedule(self) for the common no-monitor, no-shuffle
        # case: succeed() fires once per granted request, completed
        # process and message delivery, so the call overhead shows up in
        # every hot loop.  The event fires at the current time, so it
        # joins the ready cohort — no heap entry at all.
        env = self.env
        if env._schedule_fast:
            env._eid += 1
            env._ready.append(self)
        else:
            env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Processes waiting on the event will have ``exception`` thrown into
        them.  If nothing waits on a failed event, the engine raises it when
        processing (unless :meth:`defuse` was called).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    # -- representation -----------------------------------------------------

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires at a fixed simulated time.

    Built only by the engine (:meth:`Environment.timeout`,
    :meth:`Environment.timeout_at` and the boxing of ``call_at``
    entries), already triggered and with no ``__init__`` hop; processed
    instances are recycled through a free list — see docs/PERFORMANCE.md
    for the pooling contract (do not hold on to a Timeout after it has
    fired).
    """

    __slots__ = ()


class ConditionEvent(Event):
    """Base for composite events built from several sub-events.

    The condition triggers when ``evaluate`` says the collected outcomes are
    sufficient, or immediately fails when any sub-event fails.  Its value is a
    dict mapping each *completed* sub-event to its value, in completion
    order.
    """

    __slots__ = ("events", "_completed")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._completed: dict[Event, Any] = {}
        for event in self.events:
            if event.env is not env:
                raise ValueError("all events must share one environment")
        if not self.events:
            # An empty condition is vacuously satisfied.
            self.succeed({})
            return
        for event in self.events:
            if event.processed:
                self._observe(event)
            else:
                event.callbacks.append(self._observe)
            if self.triggered:
                break

    def _count_needed(self) -> int:
        raise NotImplementedError

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._completed[event] = event._value
        if len(self._completed) >= self._count_needed():
            self.succeed(dict(self._completed))


class AllOf(ConditionEvent):
    """Triggers once *all* sub-events have succeeded."""

    __slots__ = ()

    def _count_needed(self) -> int:
        return len(self.events)


class AnyOf(ConditionEvent):
    """Triggers as soon as *any* sub-event has succeeded."""

    __slots__ = ()

    def _count_needed(self) -> int:
        return 1
