"""The simulator must agree with closed-form arithmetic at light load."""

import dataclasses

import pytest

from repro.sim import SimConfig, run_once

from .validation import (
    disk_utilization_estimate,
    mean_block_service_s,
    offered_load_fraction,
    zero_load_read_response_s,
)

KB = 1 << 10
MB = 1 << 20


def base_config(**overrides):
    defaults = dict(num_disks=32, transfer_unit=32 * KB, request_size=1 * MB,
                    arrival_rate=0.5, num_requests=150, warmup_requests=15,
                    read_fraction=1.0, seed=12)
    defaults.update(overrides)
    return SimConfig(**defaults)


def test_mean_block_service_is_caption_arithmetic():
    # "transferring 32 kilobytes required about 37 milliseconds"
    config = base_config()
    assert mean_block_service_s(config) == pytest.approx(0.0374, abs=0.0005)


def test_zero_load_response_matches_simulation():
    config = base_config()
    predicted = zero_load_read_response_s(config)
    measured = run_once(config).mean_completion_s
    assert measured == pytest.approx(predicted, rel=0.25)


def test_zero_load_response_scales_with_blocks_per_disk():
    few_disks = base_config(num_disks=4)
    many_disks = base_config(num_disks=32)
    # 1 MB / 32 KB = 32 blocks: 8 per disk vs 1 per disk.
    ratio = (zero_load_read_response_s(few_disks)
             / zero_load_read_response_s(many_disks))
    assert 4 < ratio < 8.5


def test_disk_utilization_matches_flow_balance():
    config = base_config(arrival_rate=8.0, read_fraction=1.0,
                         num_requests=300, warmup_requests=30)
    predicted = disk_utilization_estimate(config)
    measured = run_once(config).mean_disk_utilization
    assert 0.1 < predicted < 0.7  # below saturation: the estimate is valid
    assert measured == pytest.approx(predicted, rel=0.25)


def test_overload_detected_by_flow_balance():
    config = base_config(num_disks=4, arrival_rate=10.0)
    assert disk_utilization_estimate(config) > 1.0
    result = run_once(config)
    assert not result.sustainable


def test_offered_ring_load_matches_paper_claim():
    # §5: "no more than 22% of the network capacity was ever used."
    config = base_config(arrival_rate=22.0)
    predicted = offered_load_fraction(config)
    assert predicted < 0.22
    result = run_once(dataclasses.replace(config, arrival_rate=15.0,
                                          read_fraction=0.8))
    assert result.ring_utilization < 0.22
