"""10 Mb/s Ethernet segment — the prototype's interconnect.

Transmission time accounts for IP fragmentation of large UDP datagrams into
MTU-sized link frames, each paying Ethernet framing overhead (preamble,
header, CRC) and the inter-frame gap.  With 8 KB datagrams this yields a
raw-wire goodput of ~1.2 MB/s; the *measured* maximum capacity of
1.12 MB/s quoted in §4 emerges once host per-packet costs are added (see
``prototype/calibration.py``).

A :class:`BackgroundLoad` reproduces the "shared departmental
Ethernet ... less than 5% of its capacity" conditions of the NFS and
second-segment measurements, as cable holds computed on demand rather
than simulated.
"""

from __future__ import annotations

from math import ceil, log

from ..des import Environment, RandomStream
from ..units import seconds_to_send, to_bytes_per_s
from .medium import Medium, _WireParameter

__all__ = ["Ethernet", "BackgroundLoad", "ETHERNET_MTU_PAYLOAD"]

#: IP payload bytes per link frame (1500 MTU minus 20-byte IP header).
ETHERNET_MTU_PAYLOAD = 1480

#: Ethernet framing bytes per frame: preamble 8 + header 14 + CRC 4 + IP 20.
_FRAME_OVERHEAD_BYTES = 46

#: 9.6 microsecond inter-frame gap at 10 Mb/s.
_INTERFRAME_GAP_S = 9.6e-6


#: CSMA/CD slot time at 10 Mb/s (512 bit times).
SLOT_TIME_S = 51.2e-6


class Ethernet(Medium):
    """A single shared 10 Mb/s Ethernet segment.

    With ``contention=True`` the model charges CSMA/CD collision-resolution
    time: each frame sent while other stations are queued pays an extra
    backoff drawn per waiting station (an aggregate approximation of
    truncated binary exponential backoff).  The penalty is drawn when the
    frame joins the cable queue, since the cable is a FIFO server that
    fixes a frame's end on arrival; it counts the other stations with a
    frame on the cable or queued for it at that instant.  Off by
    default — the base model is a collision-free ideal cable, which
    matches the paper's measured capacity well below saturation.
    """

    bits_per_second = _WireParameter()

    def __init__(self, env: Environment, name: str = "ethernet",
                 bits_per_second: float = 10_000_000.0,
                 loss_probability: float = 0.0,
                 loss_stream: RandomStream | None = None,
                 contention: bool = False,
                 contention_stream: RandomStream | None = None):
        super().__init__(env, name, loss_probability, loss_stream)
        if bits_per_second <= 0:
            raise ValueError("bits_per_second must be positive")
        if contention and contention_stream is None:
            raise ValueError("contention modelling needs a random stream")
        self.bits_per_second = bits_per_second
        self.contention = contention
        self.contention_stream = contention_stream

    def contention_penalty(self, sender_host: str) -> float:
        """Collision-resolution time for one contended transmission.

        Scales with the number of *other stations* currently fighting for
        the cable — a lone station streaming back-to-back never collides.
        """
        if not self.contention:
            return 0.0
        others = self.contending_stations(sender_host)
        if others <= 0:
            return 0.0
        slots = self.contention_stream.uniform(0.0, 4.0 * min(others, 5))
        return slots * SLOT_TIME_S

    def nominal_capacity(self) -> float:
        return to_bytes_per_s(self.bits_per_second)

    def transmission_time(self, size: int) -> float:
        """Cable time for one datagram, including fragmentation overhead."""
        if size <= 0:
            raise ValueError("size must be positive")
        fragments = max(1, ceil(size / ETHERNET_MTU_PAYLOAD))
        wire_bytes = size + fragments * _FRAME_OVERHEAD_BYTES
        return seconds_to_send(wire_bytes, self.bits_per_second) \
            + fragments * _INTERFRAME_GAP_S

    def goodput_upper_bound(self, datagram_size: int) -> float:
        """Best-case bytes/second for back-to-back datagrams of that size."""
        return datagram_size / self.transmission_time(datagram_size)


class BackgroundLoad:
    """Occupies a fraction of a segment — the 'lightly loaded shared' net.

    Holds the cable for ``fraction`` of each (jittered) period, modelling
    other departmental traffic competing with the measured transfer: a
    burst is requested an exponential gap after the previous one ended,
    and lasts that gap times ``fraction / (1 - fraction)``.

    Nothing goes on the calendar.  The schedule is drawn lazily from
    ``stream`` (gap, then the next gap once that burst is placed), and
    :meth:`fold` queues every burst requested by a given time on the
    cable — the medium calls it before each cable serve, at each frame's
    completion and before each utilization read.  Frames are served in
    time order and each folds first, so a burst requested at ``r`` starts
    at ``max(r, free_at)`` with ``free_at`` holding exactly the holds
    requested before ``r``: the start a queued cable request would get.
    A burst's busy and idle marks go to the medium's monitor at their
    own times; the idle mark at a burst's end waits until it is known
    that nothing queued behind it.
    """

    def __init__(self, env: Environment, medium: Medium, fraction: float,
                 stream: RandomStream, period_s: float = 0.005):
        if not 0.0 <= fraction < 1.0:
            raise ValueError(f"fraction must be in [0, 1), got {fraction}")
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.env = env
        self.medium = medium
        self.fraction = fraction
        self.stream = stream
        self.period_s = period_s
        #: The end of the last burst while its idle mark is pending.
        self._idle_at: float | None = None
        #: When the next burst is requested, and how long it lasts.
        self._request_at = float("inf")
        self._busy_s = 0.0
        if fraction > 0:
            if medium._background is not None:
                raise ValueError(
                    f"{medium.name!r} already carries a background load")
            medium._background = self
            gap = stream.exponential(period_s)
            self._request_at = env.now + gap
            self._busy_s = gap * fraction / max(1e-12, 1.0 - fraction)

    def fold(self, now: float) -> None:
        """Queue every burst requested by ``now`` on the cable.

        One pass per due burst: resolve the previous burst's idle mark,
        place the burst, draw the next gap; a last pass resolves the idle
        mark as far as ``now`` tells.
        """
        request_at = self._request_at
        idle_at = self._idle_at
        if idle_at is None and request_at > now:
            return
        medium = self.medium
        cable = medium.cable
        monitor = medium.monitor
        stream = self.stream
        rate = 1.0 / self.period_s
        fraction = self.fraction
        denominator = max(1e-12, 1.0 - fraction)
        busy_s = self._busy_s
        while True:
            # Resolve the last burst's idle mark.  A burst ends no later
            # than the next request, so a due request resolves it.
            if idle_at is not None:
                if cable.free_at != idle_at:
                    # A frame queued behind the burst: its completion
                    # idles the cable.
                    idle_at = None
                elif idle_at <= now:
                    monitor.idle(idle_at)
                    idle_at = None
            if request_at > now:
                break
            start = cable.free_at
            if start <= request_at:
                start = request_at
                monitor.busy(request_at)
            cable.free_at = idle_at = end = start + busy_s
            # The next gap: RandomStream.exponential(period_s), inlined.
            block = stream._block or stream._refill()
            gap = -log(1.0 - block.pop()) / rate
            request_at = end + gap
            busy_s = gap * fraction / denominator
        self._request_at = request_at
        self._busy_s = busy_s
        self._idle_at = idle_at
