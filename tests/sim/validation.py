"""Analytic cross-checks for the §5 simulation model (test-only oracle).

A simulator is only trustworthy if its light-load behaviour matches what
can be computed by hand.  This module provides closed-form estimates the
tests compare simulation output against:

* the expected positioned-access time of one block (the figure captions'
  arithmetic — e.g. "transferring 32 kilobytes required about 37
  milliseconds on the average");
* the zero-load completion time of a read request (disk chain + ring
  transfer + protocol processing);
* per-disk utilization under a given arrival rate (an open-network flow
  balance).
"""

from __future__ import annotations

from repro.sim.model import CONTROL_PACKET_SIZE_BYTES
from repro.sim.workload import SimConfig
from repro.units import seconds_to_send, to_bits_per_s, us

__all__ = [
    "mean_block_service_s",
    "expected_max_positioning_s",
    "zero_load_read_response_s",
    "disk_utilization_estimate",
    "offered_load_fraction",
]


def mean_block_service_s(config: SimConfig) -> float:
    """Expected seek + rotation + transfer for one transfer unit."""
    return config.disk.mean_access_time(config.transfer_unit)


def _packet_cpu_s(config: SimConfig, size: int) -> float:
    """§5.1 protocol cost: 1500 instructions + 1 per byte."""
    return (1500.0 + size) / (config.host_mips * 1e6)


def expected_max_positioning_s(config: SimConfig, n: int) -> float:
    """E[max over n agents] of one positioning draw (seek + rotation).

    Seek ~ U(0, 2*avg_seek) and rotation ~ U(0, 2*avg_rotation) are
    independent (§5.1), so their sum has the classic trapezoidal CDF; the
    expected maximum of n draws is ∫ (1 - F(x)^n) dx, integrated
    numerically over the exact piecewise CDF.  This is what makes a
    32-agent request noticeably slower than the *mean* block time — the
    request waits for its unluckiest agent.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = 2.0 * config.disk.avg_seek_s
    b = 2.0 * config.disk.avg_rotation_s
    if a < b:
        a, b = b, a
    if a == 0.0:
        return 0.0

    def cdf(x: float) -> float:
        if x <= 0.0:
            return 0.0
        if b == 0.0:
            return min(1.0, x / a)
        if x <= b:
            return x * x / (2.0 * a * b)
        if x <= a:
            return (x - b / 2.0) / a
        if x <= a + b:
            return 1.0 - (a + b - x) ** 2 / (2.0 * a * b)
        return 1.0

    steps = 4000
    total = a + b
    dx = total / steps
    expectation = 0.0
    for index in range(steps):
        x = (index + 0.5) * dx
        expectation += (1.0 - cdf(x) ** n) * dx
    return expectation


def _ring_time_s(config: SimConfig, size: int) -> float:
    """Token wait plus serialisation (mirrors TokenRing.transmission_time
    with the default 20 microsecond rotation)."""
    return us(10.0) + seconds_to_send(size, config.ring_bits_per_second)


def zero_load_read_response_s(config: SimConfig) -> float:
    """Completion time of one read on an otherwise idle system.

    The busiest agent reads its blocks back to back (multiblock hold);
    transmissions overlap the disk except for the last block, which still
    has to cross the ring and the client CPU after it leaves the platter.
    """
    shares = config.blocks_per_agent(0)
    busiest = max(shares)
    active = sum(1 for share in shares if share)
    unit = config.transfer_unit
    request_path = (_packet_cpu_s(config, CONTROL_PACKET_SIZE_BYTES)
                    + _ring_time_s(config, CONTROL_PACKET_SIZE_BYTES)
                    + _packet_cpu_s(config, CONTROL_PACKET_SIZE_BYTES))
    # The request completes when its *slowest* agent chain finishes: the
    # chain mean is busiest x mean service, and the agent-to-agent spread
    # is dominated by one positioning draw's order statistics.
    mean_positioning = (config.disk.avg_seek_s + config.disk.avg_rotation_s)
    disk_chain = (busiest * mean_block_service_s(config)
                  + expected_max_positioning_s(config, active)
                  - mean_positioning)
    last_block_out = (_packet_cpu_s(config, unit)
                      + _ring_time_s(config, unit)
                      + _packet_cpu_s(config, unit))
    return request_path + disk_chain + last_block_out


def disk_utilization_estimate(config: SimConfig) -> float:
    """Flow balance: block arrivals per disk x mean service time.

    Valid below saturation; at or above 1.0 the configuration cannot keep
    up (the open queue grows without bound).
    """
    blocks_per_second = config.arrival_rate * config.total_blocks
    per_disk = blocks_per_second / config.num_disks
    return per_disk * mean_block_service_s(config)


def offered_load_fraction(config: SimConfig) -> float:
    """Offered ring load as a fraction of its capacity."""
    bytes_per_second = config.arrival_rate * config.request_size
    return to_bits_per_s(bytes_per_second) / config.ring_bits_per_second
