"""Generator-based simulation processes.

A *process* is a Python generator that yields :class:`~repro.des.events.Event`
objects.  Each yield suspends the process until the yielded event is
processed; the event's value is sent back into the generator (or its
exception thrown in, for failed events).

A :class:`Process` is itself an event: it triggers when the generator
returns (value = the generator's return value) or raises.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from .events import Event, PENDING

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Process", "ProcessGenerator"]

#: The type a process function must return.
ProcessGenerator = Generator[Event, Any, Any]


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
        # Kick the process off at the current simulation time via an
        # initialisation event so that process start order follows
        # creation order.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._bound_resume)
        env.schedule(init)

    # -- public API ----------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is PENDING

    # -- engine plumbing ------------------------------------------------------

    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the outcome of ``trigger``."""
        env = self.env
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
            env.schedule(self)
        except BaseException as exc:
            env._processes.pop(self, None)
            self._ok = False
            self._value = exc
            env.schedule(self)
        finally:
            env._active_process = None

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", "process")
        state = "alive" if self.is_alive else "dead"
        return f"<Process {name} {state}>"
