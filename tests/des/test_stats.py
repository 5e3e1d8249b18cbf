"""Statistics: Welford accumulator, confidence intervals, utilization."""

import math
import statistics

import pytest
from hypothesis import given, strategies as st

from repro.des import (
    Environment,
    OnlineStats,
    SampleSet,
    UtilizationMonitor,
    student_t_critical,
)


def test_online_stats_known_values():
    stats = OnlineStats()
    stats.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    assert stats.count == 8
    assert stats.mean == pytest.approx(5.0)
    assert stats.minimum == 2.0
    assert stats.maximum == 9.0
    assert stats.stdev == pytest.approx(statistics.stdev(
        [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]))


def test_online_stats_empty():
    stats = OnlineStats()
    assert stats.mean == 0.0
    assert stats.variance == 0.0
    with pytest.raises(ValueError):
        _ = stats.minimum


def test_confidence_interval_needs_two_samples():
    stats = OnlineStats()
    stats.add(1.0)
    with pytest.raises(ValueError):
        stats.confidence_interval()


def test_student_t_eight_samples_90pct():
    # The paper's tables: 8 samples -> 7 degrees of freedom, t = 1.895.
    assert student_t_critical(7, 0.90) == pytest.approx(1.895)


def test_student_t_large_df_uses_normal():
    assert student_t_critical(1000, 0.95) == pytest.approx(1.960)


def test_student_t_unsupported_confidence():
    with pytest.raises(ValueError):
        student_t_critical(7, 0.80)


def test_sample_set_row_matches_paper_format():
    samples = SampleSet([893.0, 897.0, 876.0, 860.0, 882.0, 881.0, 890.0, 885.0])
    row = samples.row()
    assert set(row) == {"mean", "stdev", "min", "max", "ci_low", "ci_high"}
    assert row["ci_low"] < row["mean"] < row["ci_high"]
    assert row["min"] <= row["ci_low"] or row["min"] <= row["mean"]


def test_sample_set_interval_contains_mean():
    samples = SampleSet([10.0, 12.0, 11.0, 13.0])
    interval = samples.confidence_interval(0.95)
    assert interval.contains(samples.mean)
    assert interval.width > 0


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=2, max_size=50))
def test_online_stats_matches_statistics_module(values):
    stats = OnlineStats()
    stats.extend(values)
    assert stats.mean == pytest.approx(statistics.fmean(values), abs=1e-6)
    assert stats.stdev == pytest.approx(statistics.stdev(values),
                                        rel=1e-6, abs=1e-6)
    assert stats.minimum == min(values)
    assert stats.maximum == max(values)


@given(st.lists(st.floats(min_value=0.1, max_value=1e3,
                          allow_nan=False, allow_infinity=False),
                min_size=3, max_size=30))
def test_wider_confidence_is_wider_interval(values):
    stats = OnlineStats()
    stats.extend(values)
    ci90 = stats.confidence_interval(0.90)
    ci99 = stats.confidence_interval(0.99)
    assert ci99.width >= ci90.width - 1e-12


def test_utilization_monitor_half_busy():
    env = Environment()
    monitor = UtilizationMonitor(env)

    def device(env):
        monitor.busy()
        yield env.timeout(5.0)
        monitor.idle()
        yield env.timeout(5.0)

    env.process(device(env))
    env.run()
    assert monitor.utilization() == pytest.approx(0.5)


def test_utilization_monitor_open_interval_counts():
    env = Environment()
    monitor = UtilizationMonitor(env)

    def device(env):
        yield env.timeout(2.0)
        monitor.busy()
        yield env.timeout(2.0)
        # never goes idle

    env.process(device(env))
    env.run()
    assert monitor.utilization() == pytest.approx(0.5)


def test_utilization_monitor_idempotent_marks():
    env = Environment()
    monitor = UtilizationMonitor(env)
    monitor.busy()
    monitor.busy()
    monitor.idle()
    monitor.idle()
    assert monitor.busy_time == 0.0
    assert monitor.utilization() == 0.0


def test_utilization_monitor_marks_at_explicit_times():
    # Marks computed after the fact land at their own times, not now.
    env = Environment()
    monitor = UtilizationMonitor(env)
    env.run(until=10.0)
    monitor.busy(at=2.0)
    monitor.idle(at=6.0)
    monitor.busy(at=8.0)
    assert monitor.busy_time == 6.0
    assert monitor.utilization() == pytest.approx(0.6)


def test_histogram_quantiles_nearest_rank():
    from repro.des import Histogram
    histogram = Histogram()
    histogram.extend(float(v) for v in range(1, 101))
    assert histogram.p50() == 50.0
    assert histogram.p99() == 99.0
    assert histogram.quantile(0.0) == 1.0
    assert histogram.quantile(1.0) == 100.0


def test_histogram_validation():
    from repro.des import Histogram
    histogram = Histogram()
    with pytest.raises(ValueError):
        histogram.quantile(0.5)  # empty
    histogram.add(1.0)
    with pytest.raises(ValueError):
        histogram.quantile(1.5)
    with pytest.raises(ValueError):
        histogram.buckets(0)


def test_histogram_buckets_partition_samples():
    from repro.des import Histogram
    histogram = Histogram()
    histogram.extend([0.0, 1.0, 2.0, 3.0, 9.9])
    buckets = histogram.buckets(5)
    assert sum(n for _, _, n in buckets) == 5
    assert buckets[0][0] == 0.0
    assert buckets[-1][1] == pytest.approx(9.9)


def test_histogram_single_value_bucket():
    from repro.des import Histogram
    histogram = Histogram()
    histogram.extend([7.0, 7.0, 7.0])
    assert histogram.buckets(4) == [(7.0, 7.0, 3)]
    assert histogram.mean == 7.0


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200))
def test_histogram_quantile_bounds_property(values):
    from repro.des import Histogram
    histogram = Histogram()
    histogram.extend(values)
    assert histogram.quantile(0.0) == min(values)
    assert histogram.quantile(1.0) == max(values)
    assert min(values) <= histogram.p50() <= max(values)
