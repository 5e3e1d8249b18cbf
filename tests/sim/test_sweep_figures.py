"""Sweeps and figure series (reduced sizes for test speed)."""

import dataclasses

import pytest

from repro.sim import (
    SimConfig,
    figure3_series,
    figure4_series,
    figure5_series,
    figure6_series,
    find_max_sustainable,
    load_sweep,
)

KB = 1 << 10
MB = 1 << 20


def small_config(**overrides):
    defaults = dict(num_disks=8, transfer_unit=32 * KB, request_size=1 * MB,
                    num_requests=100, warmup_requests=10, seed=4)
    defaults.update(overrides)
    return SimConfig(**defaults)


def test_load_sweep_monotone_response():
    results = load_sweep(small_config(), [2.0, 6.0, 10.0])
    times = [r.mean_completion_s for r in results]
    assert times[0] < times[-1]


def test_find_max_sustainable_is_sustainable():
    result = find_max_sustainable(small_config(), iterations=6)
    assert result.sustainable
    assert result.client_data_rate > 0


def test_find_max_sustainable_validation():
    with pytest.raises(ValueError):
        find_max_sustainable(small_config(), rate_low=0)
    with pytest.raises(ValueError):
        find_max_sustainable(small_config(), rate_low=5, rate_high=5)


def test_max_sustainable_grows_with_disks():
    few = find_max_sustainable(small_config(num_disks=4), iterations=6)
    many = find_max_sustainable(small_config(num_disks=16), iterations=6)
    # §5.2: "the rate of requests that are serviceable increased almost
    # linearly in the number of disks."
    assert many.client_data_rate > 2.5 * few.client_data_rate


def test_max_sustainable_grows_with_unit():
    small = find_max_sustainable(small_config(transfer_unit=4 * KB),
                                 iterations=6)
    large = find_max_sustainable(small_config(transfer_unit=32 * KB),
                                 iterations=6)
    # §5.2: "The increase in effective data-rate is almost linear in the
    # size of the transfer unit" (4 KB -> 32 KB is ~6x in the paper).
    assert large.client_data_rate > 3 * small.client_data_rate


def test_figure3_sustainability_flips_below_the_papers_22_req_s():
    """The known Figure 3 fidelity gap, pinned so changing it is deliberate.

    The paper quotes ~22 req/s as the maximum sustainable load for 32
    disks with 32 KB units, and the knee of our curve sits at ~20-25
    req/s (EXPERIMENTS.md, Figure 3).  The stricter criterion the sweeps
    use, mean completion <= mean interarrival, flips between 10 and 15
    req/s: at seed 0 with the CLI's 250 requests the mean completion is
    ~78 ms at 10 req/s (<= 100 ms), ~100 ms at 15 req/s (> 66.7 ms) and
    ~190 ms at 22 req/s (> 45.5 ms).
    """
    points = figure3_series(rates=(10.0, 15.0, 22.0), disk_counts=(32,),
                            block_sizes=(32 * KB,), num_requests=250,
                            seed=0)
    assert [point.result.config.warmup_requests for point in points] == \
        [25, 25, 25]
    verdicts = {point.x: point.result.sustainable for point in points}
    assert verdicts == {10.0: True, 15.0: False, 22.0: False}


def test_figure6_m2372k_point_sits_inside_figure3s_flip():
    """Figure 6 at 32 disks and Figure 3's 32 KB x 32-disk curve agree.

    Both run 1 MB requests in 32 KB units over 32 M2372K disks, so
    Figure 6's max sustainable rate (11.85 req/s, 12.37 MB/s at seed 0)
    must land where Figure 3's criterion flips: it holds at 10 req/s and
    fails at 15 (pinned above).
    """
    (point,) = figure6_series(disk_counts=(32,),
                              disk_names=("Fujitsu M2372K",))
    (curve,) = figure3_series(rates=(10.0,), disk_counts=(32,),
                              block_sizes=(32 * KB,), num_requests=250,
                              seed=0)
    found = point.result.config
    assert dataclasses.replace(found, arrival_rate=10.0) == \
        curve.result.config
    assert 10.0 < found.arrival_rate < 15.0


def test_figure3_series_structure():
    points = figure3_series(rates=(2.0, 6.0), disk_counts=(4, 8),
                            block_sizes=(32 * KB,), num_requests=60)
    assert len(points) == 4
    series = {p.series for p in points}
    assert series == {"32KB blocks, 4 disks", "32KB blocks, 8 disks"}
    for point in points:
        assert point.y > 0  # milliseconds


def test_figure4_series_structure():
    points = figure4_series(rates=(2.0,), disk_counts=(2, 8),
                            num_requests=60)
    assert {p.series for p in points} == {"2 disks", "8 disks"}
    two = next(p for p in points if p.series == "2 disks")
    eight = next(p for p in points if p.series == "8 disks")
    assert eight.y < two.y


def test_figure5_series_small():
    points = figure5_series(disk_counts=(2, 8),
                            disk_names=("Fujitsu M2372K",),
                            num_requests=80, iterations=5)
    assert len(points) == 2
    assert points[1].y > points[0].y  # more disks, more data-rate
