"""The §5 token-ring simulation model."""

import dataclasses

import pytest

from repro.sim import SimConfig, SwiftSimModel, run_once
from repro.simdisk import DISK_CATALOG

KB = 1 << 10
MB = 1 << 20


def quick_config(**overrides):
    defaults = dict(num_disks=8, transfer_unit=32 * KB, request_size=1 * MB,
                    arrival_rate=4.0, num_requests=120, warmup_requests=12,
                    seed=2)
    defaults.update(overrides)
    return SimConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        quick_config(num_disks=0)
    with pytest.raises(ValueError):
        quick_config(arrival_rate=0)
    with pytest.raises(ValueError):
        quick_config(read_fraction=1.5)
    with pytest.raises(ValueError):
        quick_config(num_requests=5, warmup_requests=5)
    # A negative warmup would start fewer requests than run() waits for,
    # so every such run would silently end at the horizon guard.
    with pytest.raises(ValueError):
        SimConfig(num_requests=20, warmup_requests=-1, arrival_rate=5.0)


def test_total_blocks_ceiling():
    config = quick_config(request_size=100 * KB, transfer_unit=32 * KB)
    assert config.total_blocks == 4


def test_blocks_per_agent_balanced():
    config = quick_config(num_disks=8, request_size=1 * MB,
                          transfer_unit=32 * KB)
    counts = config.blocks_per_agent()
    assert sum(counts) == 32
    assert max(counts) - min(counts) <= 1


def test_blocks_per_agent_rotation():
    config = quick_config(num_disks=8, request_size=64 * KB,
                          transfer_unit=32 * KB)
    assert config.blocks_per_agent(0) == [1, 1, 0, 0, 0, 0, 0, 0]
    assert config.blocks_per_agent(6) == [0, 0, 0, 0, 0, 0, 1, 1]
    assert config.blocks_per_agent(7) == [1, 0, 0, 0, 0, 0, 0, 1]


def test_run_completes_requested_measurements():
    result = run_once(quick_config())
    assert result.completed >= 120
    assert result.mean_completion_s > 0
    assert result.duration_s > 0


def test_same_seed_reproducible():
    a = run_once(quick_config())
    b = run_once(quick_config())
    assert a.mean_completion_s == b.mean_completion_s
    assert a.client_data_rate == b.client_data_rate


def test_different_seed_differs():
    a = run_once(quick_config(seed=2))
    b = run_once(quick_config(seed=3))
    assert a.mean_completion_s != b.mean_completion_s


def test_32kb_block_needs_about_37ms():
    # §5.2: "transferring 32 kilobytes required about 37 milliseconds on
    # the average" — so an unloaded 32-disk system completes a 1 MB
    # request in roughly one block time plus network.
    result = run_once(quick_config(num_disks=32, arrival_rate=0.5))
    assert 0.037 < result.mean_completion_s < 0.10


def test_completion_time_rises_with_load():
    light = run_once(quick_config(arrival_rate=2.0))
    heavy = run_once(quick_config(arrival_rate=12.0))
    assert heavy.mean_completion_s > light.mean_completion_s


def test_more_disks_cut_completion_time():
    few = run_once(quick_config(num_disks=4, arrival_rate=2.0))
    many = run_once(quick_config(num_disks=16, arrival_rate=2.0))
    assert many.mean_completion_s < few.mean_completion_s


def test_larger_unit_faster_transfer():
    # §5.2: "the data-rate is almost linearly related ... to the size of
    # the transfer unit" because seek+rotation dominate small blocks.
    small = run_once(quick_config(transfer_unit=4 * KB, arrival_rate=1.0))
    large = run_once(quick_config(transfer_unit=32 * KB, arrival_rate=1.0))
    assert large.mean_completion_s < small.mean_completion_s / 3


def test_ring_never_the_bottleneck():
    # §5: "no more than 22% of the network capacity was ever used."
    result = run_once(quick_config(num_disks=32, arrival_rate=20.0))
    assert result.ring_utilization < 0.25


def test_saturated_run_terminates():
    result = run_once(quick_config(num_disks=1, transfer_unit=4 * KB,
                                   arrival_rate=50.0, num_requests=60,
                                   warmup_requests=6))
    assert result.duration_s > 0
    assert not result.sustainable


def test_write_only_marks_disk_busy():
    config = quick_config(read_fraction=0.0, num_requests=40,
                          warmup_requests=4)
    result = run_once(config)
    assert result.mean_disk_utilization > 0


def test_figure4_disk_uses_slower_transfer():
    spec = DISK_CATALOG["Fujitsu M2372K (1.5MB/s)"]
    assert spec.transfer_rate_bytes_per_s == 1.5e6
