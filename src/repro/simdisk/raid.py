"""A local RAID array behind a single controller — the §6 comparison.

§6: "The aggregation of data-rates proposed in the Swift architecture
generalizes that proposed by the Raid disk array system in its ability to
support data-rates beyond that of the single disk array controller.  In
fact, Swift can concurrently drive a collection of Raids as high speed
devices."

The array stripes each block over its member spindles (which work in
parallel), but *every byte crosses the one controller*, so sustained
throughput is capped by ``controller_rate`` no matter how many members
the array has.  The class is Disk-duck-typed (``resource``, ``monitor``,
``block_service_time``, counters), so the §5 simulation model can use
RAID arrays as storage agents unchanged — which is exactly how the bench
demonstrates Swift scaling past the controller cap.
"""

from __future__ import annotations

from typing import Optional

from ..des import Environment, RandomStream, Resource, UtilizationMonitor
from ..units import MB
from .models import DISK_CATALOG, DiskSpec

__all__ = ["RaidArray"]


class RaidArray:
    """A RAID-4/5-style array: N member spindles, one controller."""

    def __init__(self, env: Environment,
                 member_spec: DiskSpec | None = None,
                 num_members: int = 8,
                 controller_rate: float = 4_000_000.0,
                 controller_overhead_s: float = 0.5e-3,
                 stream: Optional[RandomStream] = None):
        if num_members < 2:
            raise ValueError("an array needs at least two member disks")
        if controller_rate <= 0:
            raise ValueError("controller rate must be positive")
        if controller_overhead_s < 0:
            raise ValueError("controller overhead must be non-negative")
        self.env = env
        self.member_spec = member_spec or DISK_CATALOG["Fujitsu M2372K"]
        self.num_members = num_members
        self.controller_rate_bytes_per_s = controller_rate
        self.controller_overhead_s = controller_overhead_s
        self.stream = stream
        #: The controller is the shared resource; member parallelism is
        #: folded into the per-block service time.
        self.resource = Resource(env, capacity=1)
        self.monitor = UtilizationMonitor(env)
        self.blocks_served = 0
        self.bytes_served = 0

    # -- Disk duck-type -----------------------------------------------------------

    def draw_positioning_time(self) -> float:
        """Member positioning (seek + rotation), random if seeded."""
        spec = self.member_spec
        if self.stream is None:
            return spec.avg_seek_s + spec.avg_rotation_s
        return (self.stream.uniform_mean(spec.avg_seek_s)
                + self.stream.uniform_mean(spec.avg_rotation_s))

    def block_service_time(self, nbytes: int) -> float:
        """Service time for one block through the array.

        The block is cut across the members, which position and transfer
        in parallel; the whole block still serialises through the
        controller.  The slower of the two paths governs.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        member_chunk = nbytes / self.num_members
        member_time = (
            self.draw_positioning_time()
            + member_chunk / self.member_spec.transfer_rate_bytes_per_s)
        controller_time = (self.controller_overhead_s
                           + nbytes / self.controller_rate_bytes_per_s)
        return max(member_time, controller_time)

    def access(self, nbytes: int, blocks: int = 1, sequential: bool = False,
               at_block: Optional[int] = None):
        """Process method mirroring :meth:`repro.simdisk.disk.Disk.access_op`.

        ``sequential`` lets follow-on blocks skip member positioning (the
        members stream); the controller cost always applies.
        """
        if blocks < 1:
            raise ValueError(f"blocks must be >= 1, got {blocks}")
        started = self.env.now
        with self.resource.request() as grant:
            yield grant
            self.monitor.busy(self.env.now)
            try:
                for index in range(blocks):
                    if index == 0 or not sequential:
                        service = self.block_service_time(nbytes)
                    else:
                        service = max(
                            nbytes / self.num_members
                            / self.member_spec.transfer_rate_bytes_per_s,
                            self.controller_overhead_s
                            + nbytes / self.controller_rate_bytes_per_s)
                    yield self.env.timeout(service)
                    self.blocks_served += 1
                    self.bytes_served += nbytes
            finally:
                if self.resource.queue_length == 0:
                    self.monitor.idle(self.env.now)
        return self.env.now - started

    def utilization(self) -> float:
        """Controller busy fraction."""
        return self.monitor.utilization()

    @property
    def queue_length(self) -> int:
        """Requests waiting at the controller."""
        return self.resource.queue_length

    def __repr__(self) -> str:
        rate_mb_s = self.controller_rate_bytes_per_s / MB
        return (f"<RaidArray {self.num_members}x{self.member_spec.name} "
                f"controller={rate_mb_s:.1f}MB/s>")
