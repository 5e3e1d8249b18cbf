"""Abstract interconnection medium.

A medium is a broadcast domain: interfaces attach to it, and a datagram
transmitted on it is delivered to the interface of the destination host.
Concrete media (Ethernet, token ring) define the transmission-time
arithmetic; this base class owns the shared-cable queueing, loss injection,
utilization accounting and delivery.

The cable is a :class:`~repro.des.resources.FifoServer`: every hold's
duration is known when it is requested, so a frame's end is computed at
once and costs one calendar entry.  A
:class:`~repro.simnet.ethernet.BackgroundLoad` attached to the medium
costs none: its bursts are folded into the cable's queue whenever the
cable is served, a frame completes or utilization is read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..des import Environment, FifoServer, RandomStream, UtilizationMonitor
from ..des.events import Timeout
from .frames import Datagram

if TYPE_CHECKING:  # pragma: no cover
    from .ethernet import BackgroundLoad
    from .host import Interface

__all__ = ["Medium", "MediumStats"]


class _WireParameter:
    """A medium attribute its transmission time depends on: setting it
    forgets the medium's memoised wire times."""

    def __set_name__(self, owner, name: str) -> None:
        self._slot = "_" + name

    def __get__(self, medium, owner=None):
        if medium is None:
            return self
        return getattr(medium, self._slot)

    def __set__(self, medium, value) -> None:
        setattr(medium, self._slot, value)
        medium._wire_times.clear()


class MediumStats:
    """Traffic counters for one medium."""

    def __init__(self):
        self.datagrams_carried = 0
        self.bytes_carried = 0
        self.datagrams_lost = 0
        self.undeliverable = 0


class Medium:
    """Base class for shared interconnects.

    A datagram's wire time depends only on its size and the medium's
    parameters, so :meth:`transmit_op` memoises
    :meth:`transmission_time` per size; a subclass declares each
    attribute the time depends on as a :class:`_WireParameter`, whose
    setter clears the memo.
    """

    #: True when :meth:`contention_penalty` applies to transmissions.
    contention = False

    def __init__(self, env: Environment, name: str,
                 loss_probability: float = 0.0,
                 loss_stream: Optional[RandomStream] = None):
        if loss_probability and loss_stream is None:
            raise ValueError("loss injection needs a random stream")
        self.env = env
        self.name = name
        self.loss_probability = loss_probability
        self.loss_stream = loss_stream
        self.monitor = UtilizationMonitor(env)
        self.cable = FifoServer(env, self.monitor)
        self.stats = MediumStats()
        #: Datagram size -> :meth:`transmission_time` of that size.
        self._wire_times: dict[int, float] = {}
        self._interfaces: dict[str, "Interface"] = {}
        #: Stations currently transmitting or waiting for the cable,
        #: used by contention models (a station never collides with
        #: itself).
        self._active_by_host: dict[str, int] = {}
        #: The departmental load folded into the cable queue, if any.
        self._background: Optional["BackgroundLoad"] = None
        self._bound_carried = self._carried

    # -- attachment -----------------------------------------------------------

    def attach(self, interface: "Interface") -> None:
        """Attach a host interface; one interface per host per medium."""
        host_name = interface.host.name
        if host_name in self._interfaces:
            raise ValueError(
                f"host {host_name!r} already attached to {self.name!r}")
        self._interfaces[host_name] = interface
        # The new station may be reachable through this medium ahead of
        # another: every host on it forgets its memoised routes.
        for attached in self._interfaces.values():
            attached.host._routes.clear()

    def reaches(self, host_name: str) -> bool:
        """True if a host of that name is attached."""
        return host_name in self._interfaces

    # -- timing ---------------------------------------------------------------

    def transmission_time(self, size: int) -> float:
        """Seconds of cable occupancy for a ``size``-byte datagram."""
        raise NotImplementedError

    def contention_penalty(self, sender_host: str) -> float:
        """Extra occupancy when stations contend (CSMA/CD); 0 by default.

        :meth:`transmit_op` adds it only while :attr:`contention` is on.
        """
        return 0.0

    def contending_stations(self, sender_host: str) -> int:
        """Other stations currently fighting for the cable."""
        return sum(1 for host, active in self._active_by_host.items()
                   if active > 0 and host != sender_host)

    def nominal_capacity(self) -> float:
        """Raw signalling rate in bytes/second."""
        raise NotImplementedError

    # -- the data path ----------------------------------------------------------

    def transmit_op(self, datagram: Datagram) -> Timeout:
        """Queue ``datagram`` on the cable; the event fires at its end.

        The cable is served with the (memoised) transmission time plus,
        with contention on, the penalty drawn now, at join; the sender
        counts as contending until the frame leaves the cable, when the
        returned timeout fires.  Its first callback is the medium's own:
        deregistration, stats, the loss draw and delivery to the
        destination host's interface, after which the event's value is
        True if the datagram was delivered (loss injection and unknown
        destinations both give False).  Interfaces add their own
        callback to send the next frame; generator processes ``yield``
        it.
        """
        env = self.env
        now = env._now
        if self._background is not None:
            self._background.fold(now)
        sender = datagram.src.host
        size = datagram.size
        service = self._wire_times.get(size)
        if service is None:
            service = self._wire_times[size] = self.transmission_time(size)
        if self.contention:
            service += self.contention_penalty(sender)
        active = self._active_by_host
        active[sender] = active.get(sender, 0) + 1
        timeout = env.timeout_at(self.cable.serve(now, service), datagram)
        timeout.callbacks.append(self._bound_carried)
        return timeout

    def _carried(self, timeout: Timeout) -> None:
        """A frame left the cable: idle check, stats, loss, delivery."""
        datagram = timeout._value
        now = self.env._now
        if self._background is not None:
            self._background.fold(now)
        self.cable.done(now)
        self._active_by_host[datagram.src.host] -= 1
        stats = self.stats
        stats.datagrams_carried += 1
        stats.bytes_carried += datagram.size
        if self.loss_probability \
                and self.loss_stream.bernoulli(self.loss_probability):
            stats.datagrams_lost += 1
            timeout._value = False
            return
        target = self._interfaces.get(datagram.dst.host)
        if target is None:
            stats.undeliverable += 1
            timeout._value = False
            return
        target.receive(datagram)
        timeout._value = True

    def occupy(self, duration: float):
        """Process method: hold the cable for ``duration``."""
        env = self.env
        now = env.now
        if self._background is not None:
            self._background.fold(now)
        yield env.timeout_at(self.cable.serve(now, duration))
        now = env.now
        if self._background is not None:
            self._background.fold(now)
        self.cable.done(now)

    def utilization(self) -> float:
        """Busy fraction of the cable since construction.

        Read it here rather than from ``monitor``: this first folds in
        the background bursts requested so far.
        """
        if self._background is not None:
            self._background.fold(self.env.now)
        return self.monitor.utilization()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} hosts={len(self._interfaces)}>"
