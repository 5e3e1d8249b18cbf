"""Generator-based simulation processes.

A *process* is a Python generator that yields :class:`~repro.des.events.Event`
objects.  Each yield suspends the process until the yielded event is
processed; the event's value is sent back into the generator (or its
exception thrown in, for failed events).

A :class:`Process` is itself an event: it triggers when the generator
returns (value = the generator's return value) or raises.

A process starts inside :meth:`~repro.des.engine.Environment.process`:
the generator runs to its first ``yield`` before the call returns, as a
:class:`~repro.des.callback.CallbackProcess` runs its ``_start``.  So
start order follows creation order by construction, with no calendar
entry to tie with another's.  Unmonitored, a process that returns with
nobody waiting on it takes no calendar entry either (its completion
keeps its event id, so ids match the monitored run's).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from .events import Event, PENDING

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Process", "ProcessGenerator"]

#: The type a process function must return.
ProcessGenerator = Generator[Event, Any, Any]


class _Start:
    """The trigger a process starts on: a success with value None."""

    __slots__ = ()
    _ok = True
    _value = None


_START = _Start()


class Process(Event):
    """Wraps a generator and steps it through the event calendar."""

    __slots__ = ("_generator", "_bound_resume")

    def __init__(self, env: "Environment", generator: ProcessGenerator):
        if not hasattr(generator, "throw"):
            raise TypeError(
                f"{generator!r} is not a generator; did you call the "
                "process function?"
            )
        super().__init__(env)
        self._generator = generator
        env._processes[self] = None
        # self._resume is looked up once: every attribute access on a
        # method otherwise allocates a fresh bound-method object, and the
        # resume callback is registered once per yield.
        self._bound_resume = self._resume
        self._resume(_START)

    # -- public API ----------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is PENDING

    # -- engine plumbing ------------------------------------------------------

    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the outcome of ``trigger``."""
        env = self.env
        # A process can start inside another's step: restore that one.
        prev = env._active_process
        env._active_process = self
        generator = self._generator
        try:
            while True:
                if trigger._ok:
                    next_event = generator.send(trigger._value)
                else:
                    trigger._defused = True
                    next_event = generator.throw(trigger._value)
                # Fetch-first instead of isinstance: the attribute load
                # has to happen anyway, and a non-event yield surfaces as
                # AttributeError on the slotted access (free on the hot
                # path under CPython 3.11 zero-cost try).
                try:
                    callbacks = next_event.callbacks
                    other_env = next_event.env
                except AttributeError:
                    raise RuntimeError(
                        f"process yielded a non-event: {next_event!r}"
                    ) from None
                if other_env is not env:
                    raise RuntimeError(
                        "process yielded an event from another environment"
                    )
                if callbacks is None:
                    # Already processed: loop around with its outcome.
                    trigger = next_event
                    continue
                callbacks.append(self._bound_resume)
                return
        except StopIteration as exc:
            # Drop the one bound method of itself the process stores, so
            # that a finished process is freed by reference counting
            # instead of waiting for the cyclic collector.
            self._bound_resume = None
            env._processes.pop(self, None)
            self._ok = True
            self._value = exc.value
            if self.callbacks or not env._unmonitored:
                env.schedule(self)
            else:
                # Nobody waits: processed at once, as
                # CallbackProcess._finish does, under its own id.
                env._eid += 1
                self.callbacks = None
        except BaseException as exc:
            env._processes.pop(self, None)
            self._ok = False
            self._value = exc
            env.schedule(self)
        finally:
            env._active_process = prev

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", "process")
        state = "alive" if self.is_alive else "dead"
        return f"<Process {name} {state}>"
