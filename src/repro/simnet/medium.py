"""Abstract interconnection medium.

A medium is a broadcast domain: interfaces attach to it, and a datagram
transmitted on it is delivered to the interface of the destination host.
Concrete media (Ethernet, token ring) define the transmission-time
arithmetic; this base class owns the shared-cable queueing, loss injection,
utilization accounting and delivery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..des import (
    CallbackProcess,
    Environment,
    RandomStream,
    Resource,
    UtilizationMonitor,
)
from .frames import Datagram

if TYPE_CHECKING:  # pragma: no cover
    from .host import Interface

__all__ = ["Medium", "MediumStats", "TransmitOp"]


class MediumStats:
    """Traffic counters for one medium."""

    def __init__(self):
        self.datagrams_carried = 0
        self.bytes_carried = 0
        self.datagrams_lost = 0
        self.undeliverable = 0


class Medium:
    """Base class for shared interconnects."""

    def __init__(self, env: Environment, name: str,
                 loss_probability: float = 0.0,
                 loss_stream: Optional[RandomStream] = None):
        if loss_probability and loss_stream is None:
            raise ValueError("loss injection needs a random stream")
        self.env = env
        self.name = name
        self.loss_probability = loss_probability
        self.loss_stream = loss_stream
        self.cable = Resource(env, capacity=1)
        self.monitor = UtilizationMonitor(env)
        self.stats = MediumStats()
        self._interfaces: dict[str, "Interface"] = {}
        #: Stations currently transmitting or waiting for the cable,
        #: used by contention models (a station never collides with
        #: itself).
        self._active_by_host: dict[str, int] = {}

    # -- attachment -----------------------------------------------------------

    def attach(self, interface: "Interface") -> None:
        """Attach a host interface; one interface per host per medium."""
        host_name = interface.host.name
        if host_name in self._interfaces:
            raise ValueError(
                f"host {host_name!r} already attached to {self.name!r}")
        self._interfaces[host_name] = interface

    def reaches(self, host_name: str) -> bool:
        """True if a host of that name is attached."""
        return host_name in self._interfaces

    @property
    def attached_hosts(self) -> list[str]:
        """Names of attached hosts, sorted."""
        return sorted(self._interfaces)

    # -- timing ---------------------------------------------------------------

    def transmission_time(self, size: int) -> float:
        """Seconds of cable occupancy for a ``size``-byte datagram."""
        raise NotImplementedError

    def contention_penalty(self, sender_host: str) -> float:
        """Extra occupancy when stations contend (CSMA/CD); 0 by default."""
        return 0.0

    def contending_stations(self, sender_host: str) -> int:
        """Other stations currently fighting for the cable."""
        return sum(1 for host, active in self._active_by_host.items()
                   if active > 0 and host != sender_host)

    def nominal_capacity(self) -> float:
        """Raw signalling rate in bytes/second."""
        raise NotImplementedError

    # -- the data path ----------------------------------------------------------

    def transmit_op(self, datagram: Datagram) -> "TransmitOp":
        """Occupy the cable, then deliver.

        Called by the sending interface's transmit pump.  Returns a
        started :class:`TransmitOp` whose value is True if the datagram
        was delivered to the destination host's interface (loss
        injection and unknown destinations both give False).
        """
        return TransmitOp(self, datagram)

    def occupy(self, duration: float):
        """Process method: hold the cable for ``duration`` (background load)."""
        with self.cable.request() as grant:
            yield grant
            self.monitor.busy()
            try:
                yield self.env.timeout(duration)
            finally:
                if self.cable.queue_length == 0:
                    self.monitor.idle()

    def utilization(self) -> float:
        """Busy fraction of the cable since construction."""
        return self.monitor.utilization()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} hosts={len(self._interfaces)}>"


class TransmitOp(CallbackProcess):
    """One datagram on the cable, started immediately (see
    :meth:`Medium.transmit_op`).

    In order: contention registration at entry, cable occupancy with
    the service time computed *at grant* (transmission time plus the
    medium's contention penalty, which depends on who is fighting for
    the cable at that instant), idle check before release,
    deregistration, then stats, loss draw and delivery.  The cable hold
    needs grant-time state, so it is written as explicit states rather
    than :meth:`~repro.des.callback.CallbackProcess.hold`.
    """

    __slots__ = ("medium", "datagram", "_grant", "_holding")

    def __init__(self, medium: Medium, datagram: Datagram):
        self.medium = medium
        self.datagram = datagram
        self._grant = None
        self._holding = False
        super().__init__(medium.env, immediate=True)

    def _start(self, value):
        medium = self.medium
        sender = self.datagram.src.host
        active = medium._active_by_host
        active[sender] = active.get(sender, 0) + 1
        cable = medium.cable
        if cable.try_acquire():
            self._granted(None)
        else:
            self._grant = grant = cable.request()
            self.wait(grant, self._granted)

    def _granted(self, value):
        medium = self.medium
        self._holding = True
        medium.monitor.busy()
        datagram = self.datagram
        service = medium.transmission_time(datagram.size) \
            + medium.contention_penalty(datagram.src.host)
        self.wait_timeout(service, self._sent)

    def _sent(self, value):
        medium = self.medium
        self._release_cable()
        datagram = self.datagram
        medium._active_by_host[datagram.src.host] -= 1
        stats = medium.stats
        stats.datagrams_carried += 1
        stats.bytes_carried += datagram.size
        if medium.loss_probability \
                and medium.loss_stream.bernoulli(medium.loss_probability):
            stats.datagrams_lost += 1
            self._finish(False)
            return
        target = medium._interfaces.get(datagram.dst.host)
        if target is None:
            stats.undeliverable += 1
            self._finish(False)
            return
        target.receive(datagram)
        self._finish(True)

    def _release_cable(self):
        medium = self.medium
        cable = medium.cable
        if cable.queue_length == 0:
            medium.monitor.idle()
        self._holding = False
        if self._grant is None:
            cable.release_slot()
        else:
            cable.release_quiet(self._grant)
            self._grant = None

    def _on_failure(self, exc):
        # Idle check and release while holding, withdraw while queued,
        # deregister either way.
        medium = self.medium
        if self._holding:
            self._release_cable()
        elif self._grant is not None:
            medium.cable.release_quiet(self._grant)
            self._grant = None
        medium._active_by_host[self.datagram.src.host] -= 1
        raise exc
