"""Host model: CPU, network interfaces, datagram sockets.

The host CPU is a single first-come-first-served server
(:class:`~repro.des.resources.FifoServer`); every datagram sent or
received charges it according to a :class:`CostModel` (a fixed per-packet
cost plus a per-byte cost — §5.1 charges "1,500 instructions plus one
instruction per byte in the packet", and the prototype hosts use costs
calibrated to the measured SunOS data path).  Each charge is known when
it is made, so it costs one timer at its computed end.

The send path mirrors SunOS behaviour the paper fought with:

* each interface has a finite transmit queue; when it overflows the datagram
  is *silently dropped* ("the kernel would drop packets and claim that they
  had been sent");
* each socket has a finite receive buffer; overflow drops the datagram
  ("packet loss rates caused by lack of buffer space in the SunOS kernel").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

from ..des import Environment, FifoServer, Store, Timeout
from .frames import Address, Datagram, HEADER_SIZE
from .medium import Medium

__all__ = ["CostModel", "Host", "Interface", "DatagramSocket",
           "mips_cost_model"]


@dataclass(frozen=True)
class CostModel:
    """CPU time to push one datagram through a protocol stack."""

    per_packet_s: float = 0.0
    per_byte_s: float = 0.0

    def __post_init__(self):
        if self.per_packet_s < 0 or self.per_byte_s < 0:
            raise ValueError("costs must be non-negative")

    def time(self, nbytes: int) -> float:
        """CPU seconds for a datagram of ``nbytes``."""
        return self.per_packet_s + self.per_byte_s * nbytes


def mips_cost_model(mips: float, instructions_per_packet: float = 1500.0,
                    instructions_per_byte: float = 1.0) -> CostModel:
    """The §5.1 cost model: 1500 instructions + 1 instruction/byte.

    ``mips`` is the host's processor speed in millions of instructions per
    second (the simulation study uses 100 MIPS hosts).
    """
    if mips <= 0:
        raise ValueError("mips must be positive")
    per_second = mips * 1e6
    return CostModel(
        per_packet_s=instructions_per_packet / per_second,
        per_byte_s=instructions_per_byte / per_second,
    )


class Host:
    """A machine with one CPU, some interfaces, and a socket table."""

    def __init__(self, env: Environment, name: str,
                 send_cost: CostModel = CostModel(),
                 recv_cost: CostModel = CostModel(),
                 noise_fraction: float = 0.0,
                 noise_stream=None):
        if noise_fraction and noise_stream is None:
            raise ValueError("CPU noise needs a random stream")
        if not 0.0 <= noise_fraction < 1.0:
            raise ValueError("noise_fraction must be in [0, 1)")
        self.env = env
        self.name = name
        self.send_cost = send_cost
        self.recv_cost = recv_cost
        self.noise_fraction = noise_fraction
        self.noise_stream = noise_stream
        # A per-run speed factor models run-to-run machine variation (cache
        # state, daemons): it gives repeated measurements the sample spread
        # real systems show.
        self._speed_factor = (
            1.0 + noise_stream.uniform(-noise_fraction, noise_fraction) / 2.0
            if noise_stream is not None and noise_fraction else 1.0)
        self.cpu = FifoServer(env)
        self.interfaces: list[Interface] = []
        #: Destination host name -> the interface :meth:`route` found;
        #: a medium's ``attach`` clears it on every host of the medium.
        self._routes: dict[str, Interface] = {}
        self._sockets: dict[int, DatagramSocket] = {}
        self._next_ephemeral_port = 32768

    # -- interfaces -------------------------------------------------------------

    def attach(self, medium: Medium, cpu_cost_scale: float = 1.0,
               tx_queue_packets: int = 16) -> "Interface":
        """Attach this host to a medium via a new interface."""
        interface = Interface(self, medium, cpu_cost_scale, tx_queue_packets)
        self.interfaces.append(interface)
        medium.attach(interface)
        return interface

    def route(self, dst_host: str) -> "Interface":
        """The first interface whose medium reaches ``dst_host``.

        Memoised per destination until a host attaches to a medium this
        host is on (see :meth:`Medium.attach`); an unreachable
        destination is not memoised.
        """
        interface = self._routes.get(dst_host)
        if interface is None:
            for interface in self.interfaces:
                if interface.medium.reaches(dst_host):
                    break
            else:
                raise LookupError(
                    f"{self.name!r} has no route to {dst_host!r}")
            self._routes[dst_host] = interface
        return interface

    # -- sockets -----------------------------------------------------------------

    def bind(self, port: Optional[int] = None,
             buffer_packets: int = 8) -> "DatagramSocket":
        """Create a socket on ``port`` (or an ephemeral one)."""
        if port is None:
            port = self.allocate_port()
        if port in self._sockets:
            raise ValueError(f"port {port} already bound on {self.name!r}")
        socket = DatagramSocket(self, port, buffer_packets)
        self._sockets[port] = socket
        return socket

    def allocate_port(self) -> int:
        """A fresh ephemeral port number."""
        while self._next_ephemeral_port in self._sockets:
            self._next_ephemeral_port += 1
        port = self._next_ephemeral_port
        self._next_ephemeral_port += 1
        return port

    def close_socket(self, socket: "DatagramSocket") -> None:
        """Release a socket's port."""
        self._sockets.pop(socket.port, None)

    def __repr__(self) -> str:
        return f"<Host {self.name} ifaces={len(self.interfaces)}>"


class Interface:
    """One NIC: a transmit queue drained onto the medium.

    One frame at a time is on the medium (queued for or holding the
    cable); the datagrams behind it wait in a bounded queue, and each
    goes on the medium from its predecessor's completion, inline.  A
    datagram arriving to a full queue is dropped.  Received frames charge
    the host CPU from the moment they leave the cable, and one timeout
    later land in the destination socket.

    ``cpu_cost_scale`` models slower attachment points — the prototype's
    second Ethernet interface sat on the S-bus, "known to achieve lower
    data-rates than the on-board interface" (§4.1).
    """

    def __init__(self, host: Host, medium: Medium,
                 cpu_cost_scale: float = 1.0, tx_queue_packets: int = 16):
        if cpu_cost_scale <= 0:
            raise ValueError("cpu_cost_scale must be positive")
        if tx_queue_packets < 1:
            raise ValueError("tx queue must hold at least one packet")
        self.host = host
        self.medium = medium
        self.cpu_cost_scale = cpu_cost_scale
        self.tx_queue_packets = tx_queue_packets
        self._tx_queue: deque[Datagram] = deque()
        self._transmitting = False
        self.tx_dropped = 0
        self.rx_dropped_no_socket = 0
        self._bound_charged = self._charged
        self._bound_sent = self._sent
        self._bound_received = self._received

    # -- transmit side -----------------------------------------------------------

    def _charged(self, timeout) -> None:
        """A send's CPU charge ended (see :meth:`DatagramSocket.send_op`):
        put its datagram on the medium, queue it, or drop it silently when
        the queue is full.

        The *protocol* code never sees a drop (SunOS "claimed they had
        been sent"); only ``tx_dropped`` counts it.
        """
        datagram = timeout._value
        # The waiter of the send gets None, and the pooled timeout must
        # not keep the datagram alive.
        timeout._value = None
        if not self._transmitting:
            self._transmitting = True
            self.medium.transmit_op(datagram).callbacks.append(
                self._bound_sent)
        elif len(self._tx_queue) >= self.tx_queue_packets:
            self.tx_dropped += 1
        else:
            self._tx_queue.append(datagram)

    @property
    def tx_backlog(self) -> int:
        """Datagrams waiting in the transmit queue."""
        return len(self._tx_queue)

    def _sent(self, _event) -> None:
        queue = self._tx_queue
        if queue:
            self.medium.transmit_op(queue.popleft()).callbacks.append(
                self._bound_sent)
        else:
            self._transmitting = False

    # -- receive side -------------------------------------------------------------

    def receive(self, datagram: Datagram) -> None:
        """Called by the medium on delivery; charges the receiving CPU."""
        host = self.host
        env = host.env
        cost = host.recv_cost.time(datagram.size) * self.cpu_cost_scale
        noise = host.noise_fraction
        if noise:
            # The host's OS-noise jitter.
            cost = cost * host._speed_factor * (
                1.0 + host.noise_stream.uniform(-noise, noise))
        timeout = env.timeout_at(host.cpu.serve(env._now, cost), datagram)
        timeout.callbacks.append(self._bound_received)

    def _received(self, timeout) -> None:
        """The receive CPU charge ended: buffer the datagram in its
        socket, or drop it (no socket on that port, a closed socket, a
        full buffer)."""
        datagram = timeout._value
        # The timeout goes back to the engine's pool: do not let it keep
        # the datagram (and its payload) alive.
        timeout._value = None
        socket = self.host._sockets.get(datagram.dst.port)
        if socket is None:
            self.rx_dropped_no_socket += 1
        elif socket.closed or len(socket._rx.items) >= socket.buffer_packets:
            socket.rx_dropped += 1
        else:
            socket._rx.put_nowait(datagram)


class DatagramSocket:
    """A UDP-like socket with a finite receive buffer."""

    def __init__(self, host: Host, port: int, buffer_packets: int):
        if buffer_packets < 1:
            raise ValueError("socket buffer must hold at least one packet")
        self.host = host
        self.port = port
        #: This socket's (host, port) address.
        self.address = Address(host.name, port)
        self.buffer_packets = buffer_packets
        self._rx = Store(host.env)
        self.rx_dropped = 0
        self.closed = False

    # -- sending ------------------------------------------------------------------

    def send_op(self, dst: Address, message: Any = None,
                payload_size: int = 0) -> Timeout:
        """Pay send CPU, then queue on the routed interface.

        ``payload_size`` is the number of payload bytes on the wire (headers
        are added here).  Always "succeeds" from the caller's perspective,
        exactly like the prototype's kernel.  The send is one pooled
        timer at the end of its jittered CPU charge: its first callback
        queues the datagram on the interface, and a waiter (generator
        processes ``yield`` it) resumes next, with None.  Do not hold on
        to it after it has fired.
        """
        if self.closed:
            raise RuntimeError("socket is closed")
        if payload_size < 0:
            raise ValueError("payload_size must be non-negative")
        host = self.host
        interface = host._routes.get(dst.host) or host.route(dst.host)
        size = payload_size + HEADER_SIZE
        datagram = Datagram(self.address, dst, size, message)
        cost = host.send_cost.time(size) * interface.cpu_cost_scale
        noise = host.noise_fraction
        if noise:
            # The host's OS-noise jitter.
            cost = cost * host._speed_factor * (
                1.0 + host.noise_stream.uniform(-noise, noise))
        env = host.env
        timeout = env.timeout_at(host.cpu.serve(env._now, cost), datagram)
        timeout.callbacks.append(interface._bound_charged)
        return timeout

    # -- receiving ------------------------------------------------------------------

    def recv(self, predicate=None):
        """Event: the next buffered datagram (optionally filtered)."""
        return self._rx.get(predicate)

    def purge(self, predicate) -> int:
        """Drop buffered datagrams matching ``predicate`` (stale packets)."""
        return self._rx.purge(predicate)

    def recv_wait(self, timeout_s: float, predicate=None):
        """Process method: matching datagram or None after ``timeout_s``.

        The paper's protocol resubmits requests when packets are lost; this
        is the timeout primitive it uses.  It waits on the get alone; the
        deadline is a timer that withdraws the get if it is still pending
        and fires it with None.
        """
        get = self._rx.get(predicate)
        if not get.triggered:
            env = self.host.env
            env.call_at(env._now + timeout_s, get.expire)
        return (yield get)

    def close(self) -> None:
        """Release the port; further sends raise, arrivals are dropped."""
        self.closed = True
        self.host.close_socket(self)

    @property
    def pending(self) -> int:
        """Datagrams buffered and not yet received."""
        return self._rx.size

