"""Configuration and workload for the §5 simulation study.

§5.1: "A generator process creates client requests using an exponential
distribution for request interarrival times.  The client requests are
differentiated according to a read-to-write ratio.  In each of the ...
figures, this ratio has been conservatively estimated to be 4:1."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..simdisk import DISK_CATALOG, DiskSpec

__all__ = ["SimConfig"]


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run needs.

    Defaults are the Figure 3 baseline: 1 gigabit/second token ring,
    100 MIPS hosts, Fujitsu M2372K disks, 1-megabyte client requests,
    4:1 read:write.
    """

    num_disks: int = 8
    disk: DiskSpec = field(
        default_factory=lambda: DISK_CATALOG["Fujitsu M2372K"])
    transfer_unit: int = 32 * 1024
    request_size: int = 1 << 20
    arrival_rate: float = 5.0          # requests/second
    read_fraction: float = 0.8         # the paper's 4:1 ratio
    num_clients: int = 4
    ring_bits_per_second: float = 1e9
    host_mips: float = 100.0
    num_requests: int = 400            # completions measured per run
    warmup_requests: int = 40
    seed: int = 0
    # Schedule-perturbation mode (repro.check.perturb): a non-None seed
    # deterministically shuffles same-time calendar ties so
    # the harness can prove the metrics don't lean on the tie-break.
    tie_break_seed: int | None = None
    # §6.1.2 extension: real-time disk scheduling for data-rate guarantees.
    # A ``realtime_fraction`` of requests are continuous-media transfers
    # that must complete within ``deadline_s`` of arrival; the rest are
    # background traffic with a deadline ``background_deadline_factor``
    # times looser.  "edf" orders every disk queue by absolute deadline
    # (earliest first); "fifo" is the §5 baseline.  Miss statistics are
    # kept for the real-time class.
    disk_scheduling: str = "fifo"      # "fifo" | "edf"
    deadline_s: float | None = None
    realtime_fraction: float = 1.0
    background_deadline_factor: float = 10.0

    def __post_init__(self):
        if self.num_disks < 1:
            raise ValueError("need at least one disk")
        if self.transfer_unit < 1 or self.request_size < 1:
            raise ValueError("sizes must be positive")
        if self.arrival_rate <= 0:
            raise ValueError("arrival rate must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read fraction must be in [0, 1]")
        if self.num_clients < 1:
            raise ValueError("need at least one client")
        if self.warmup_requests < 0:
            raise ValueError("warmup_requests must be non-negative")
        if self.num_requests <= self.warmup_requests:
            raise ValueError("num_requests must exceed warmup_requests")
        if self.disk_scheduling not in ("fifo", "edf"):
            raise ValueError(
                f"unknown disk scheduling {self.disk_scheduling!r}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline must be positive")
        if not 0.0 <= self.realtime_fraction <= 1.0:
            raise ValueError("realtime fraction must be in [0, 1]")
        if self.background_deadline_factor < 1.0:
            raise ValueError("background deadlines cannot be tighter than "
                             "real-time ones")

    @property
    def total_blocks(self) -> int:
        """Blocks per client request (ceil of size / unit)."""
        return -(-self.request_size // self.transfer_unit)

    def blocks_per_agent(self, start_agent: int = 0) -> list[int]:
        """How many of a request's blocks each agent serves.

        Blocks are dealt round-robin starting at ``start_agent`` so that
        successive requests spread their load across all the disks even
        when a request has fewer blocks than there are disks.
        """
        counts = [0] * self.num_disks
        for index in range(self.total_blocks):
            counts[(start_agent + index) % self.num_disks] += 1
        return counts
