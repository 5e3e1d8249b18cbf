"""Digital-audio-tape storage — the paper's "alternative technology".

§7: "The Swift architecture also has the flexibility to use alternative
data storage technologies, such as arrays of digital audio tapes."

A DAT drive streams slowly but steadily once positioned; positioning is
catastrophic (tens of seconds of shuttling).  Striping an archive object
over an array of DAT drives multiplies the *streaming* rate — which is the
whole point of using Swift in front of them — while the positioning cost
is paid once per drive, in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..des import Environment, RandomStream, Resource, UtilizationMonitor
from ..units import kb_per_s

__all__ = ["TapeSpec", "DAT_DDS1", "TapeDrive"]


@dataclass(frozen=True)
class TapeSpec:
    """Streaming-device parameters."""

    name: str
    avg_position_s: float               # locate/shuttle to a target block
    transfer_rate_bytes_per_s: float    # while streaming
    capacity_bytes: int

    def __post_init__(self):
        if self.avg_position_s < 0:
            raise ValueError("positioning time must be non-negative")
        if self.transfer_rate_bytes_per_s <= 0:
            raise ValueError("transfer rate must be positive")
        if self.capacity_bytes <= 0:
            raise ValueError("capacity must be positive")


#: The 1991-era DDS-1 digital audio tape: ~183 KB/s streaming, ~20 s
#: average locate, 1.3 GB per cartridge.
DAT_DDS1 = TapeSpec(
    name="DAT DDS-1",
    avg_position_s=20.0,
    transfer_rate_bytes_per_s=kb_per_s(183.0),
    capacity_bytes=1_300_000_000,
)


class TapeDrive:
    """One tape drive with a head position.

    Sequential reads after a locate stream at the media rate; any
    non-contiguous access pays a fresh locate.
    """

    def __init__(self, env: Environment, spec: TapeSpec = DAT_DDS1,
                 stream: Optional[RandomStream] = None):
        self.env = env
        self.spec = spec
        self.stream = stream
        self.resource = Resource(env, capacity=1)
        self.monitor = UtilizationMonitor(env)
        self.bytes_served = 0
        self._position: Optional[int] = None  # byte offset after the head

    def draw_position_time(self) -> float:
        """One locate (random if seeded)."""
        if self.stream is None:
            return self.spec.avg_position_s
        return self.stream.uniform_mean(self.spec.avg_position_s)

    def transfer(self, offset: int, nbytes: int):
        """Process method: move ``nbytes`` at ``offset`` through the drive.

        Returns the service time.  Contiguous follow-on transfers skip the
        locate.
        """
        if offset < 0 or nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        started = self.env.now
        with self.resource.request() as grant:
            yield grant
            self.monitor.busy(self.env.now)
            try:
                if self._position != offset:
                    yield self.env.timeout(self.draw_position_time())
                yield self.env.timeout(
                    nbytes / self.spec.transfer_rate_bytes_per_s)
                self._position = offset + nbytes
                self.bytes_served += nbytes
            finally:
                if self.resource.queue_length == 0:
                    self.monitor.idle(self.env.now)
        return self.env.now - started

    def utilization(self) -> float:
        """Busy fraction of the drive."""
        return self.monitor.utilization()

    def __repr__(self) -> str:
        return f"<TapeDrive {self.spec.name} at={self._position}>"
