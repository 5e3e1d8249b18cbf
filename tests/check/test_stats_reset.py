"""Counter reset between engine runs (tentpole satellite: des/stats.py)."""

import dataclasses
import math

import pytest

from repro.core.storage_agent import AgentStats
from repro.des import (
    Environment,
    OnlineStats,
    SampleSet,
    UtilizationMonitor,
)
from repro.sim import SimConfig, run_once


def test_online_stats_reset_matches_fresh():
    stats = OnlineStats()
    stats.extend([1.0, 2.0, 3.0])
    stats.reset()
    assert stats.count == 0
    assert stats.mean == 0.0
    assert stats.variance == 0.0
    with pytest.raises(ValueError):
        stats.minimum
    stats.add(5.0)
    assert stats.mean == 5.0
    assert stats.minimum == 5.0 == stats.maximum


def test_sample_set_reset():
    samples = SampleSet([4.0, 6.0])
    samples.reset()
    assert len(samples) == 0
    samples.add(1.5)
    assert samples.mean == 1.5
    assert samples.samples == [1.5]


def test_utilization_monitor_reset_discards_history():
    env = Environment()

    def workload(env, monitor):
        monitor.busy(env.now)
        yield env.timeout(4.0)
        monitor.idle(env.now)
        monitor.reset()          # new window starts at t=4
        yield env.timeout(1.0)   # idle second
        monitor.busy(env.now)
        yield env.timeout(1.0)
        monitor.idle(env.now)

    monitor = UtilizationMonitor(env)
    env.process(workload(env, monitor))
    env.run()
    # Post-reset window: 2 s elapsed, 1 s busy.
    assert monitor.busy_time == pytest.approx(1.0)
    assert monitor.utilization() == pytest.approx(0.5)


def test_utilization_monitor_reset_keeps_open_busy_interval():
    env = Environment()

    def workload(env, monitor):
        monitor.busy(env.now)
        yield env.timeout(3.0)
        monitor.reset()          # still busy across the reset
        yield env.timeout(2.0)
        monitor.idle(env.now)

    monitor = UtilizationMonitor(env)
    env.process(workload(env, monitor))
    env.run()
    assert monitor.busy_time == pytest.approx(2.0)
    assert monitor.utilization() == pytest.approx(1.0)


def test_agent_stats_reset():
    stats = AgentStats()
    stats.opens = 3
    stats.bytes_read = 1024
    stats.naks_sent = 2
    stats.reset()
    assert stats.opens == 0
    assert stats.bytes_read == 0
    assert stats.naks_sent == 0
    assert stats.reads_served == 0
    assert stats.write_ops_completed == 0
    assert stats.bytes_written == 0
    assert stats.duplicate_packets == 0


def _tiny_config():
    return SimConfig(num_disks=2, num_clients=2, num_requests=12,
                     warmup_requests=2, arrival_rate=4.0, seed=11)


def test_back_to_back_runs_are_identical():
    # With resettable counters and explicit seeds, the same config run
    # twice in one interpreter produces bit-identical results.
    first = run_once(_tiny_config())
    second = run_once(_tiny_config())
    for field in dataclasses.fields(first):
        if field.name == "config":
            continue
        a = getattr(first, field.name)
        b = getattr(second, field.name)
        assert a == b or (math.isnan(a) and math.isnan(b)), field.name
