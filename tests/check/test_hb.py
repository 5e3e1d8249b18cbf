"""Dynamic happens-before race detection over live DES runs."""

import dataclasses

import pytest

from repro.baselines import NfsBaseline
from repro.check import RaceError, detect_races
from repro.des import Environment, FifoServer, Resource
from repro.des.stats import OnlineStats
from repro.prototype import PrototypeTestbed
from repro.sim.model import SwiftSimModel
from repro.sim.workload import SimConfig

MB = 1 << 20


def test_same_time_unordered_writes_are_a_race():
    env = Environment()
    stats = OnlineStats()

    def writer(value):
        yield env.timeout(1.0)
        stats.add(value)

    with detect_races(env, watch=[stats]) as detector:
        env.process(writer(1.0))
        env.process(writer(2.0))
        env.run()
    assert len(detector.races) == 1
    report = detector.races[0]
    assert report.time == 1.0
    assert report.label == "OnlineStats"
    # Both sides carry a stack trace pointing at the offending adds.
    assert "stats.add(value)" in report.first.stack
    assert "stats.add(value)" in report.second.stack
    with pytest.raises(RaceError):
        detector.assert_clean()


def test_event_ordered_writes_are_clean():
    # succeed() -> yield establishes happens-before: the tie-break can
    # never run `second`'s add before `first`'s.
    env = Environment()
    stats = OnlineStats()
    gate = env.event()

    def first():
        yield env.timeout(1.0)
        stats.add(1.0)
        gate.succeed()

    def second():
        yield gate
        stats.add(2.0)

    with detect_races(env, watch=[stats]) as detector:
        env.process(first())
        env.process(second())
        env.run()
    assert detector.races == []
    detector.assert_clean()


def test_distinct_timestamps_are_never_a_race():
    env = Environment()
    stats = OnlineStats()

    def writer(value, delay):
        yield env.timeout(delay)
        stats.add(value)

    with detect_races(env, watch=[stats]) as detector:
        env.process(writer(1.0, 1.0))
        env.process(writer(2.0, 2.0))
        env.run()
    assert detector.races == []


def test_resource_release_acquire_edge_orders_the_holders():
    # Two processes serialize on a capacity-1 resource; the second's
    # critical-section write happens at the same timestamp as the first's
    # (t=1.0), but the release->acquire edge orders them.  The requests
    # themselves are staggered so the only same-time pair is the one the
    # resource hand-off must order.
    env = Environment()
    lock = Resource(env, capacity=1)
    stats = OnlineStats()

    def first():
        with lock.request() as grant:
            yield grant
            yield env.timeout(1.0)
            stats.add(1.0)

    def second():
        yield env.timeout(0.5)
        with lock.request() as grant:
            yield grant
            stats.add(2.0)

    with detect_races(env, watch=[stats]) as detector:
        env.process(first())
        env.process(second())
        env.run()
    assert detector.races == [], detector.format_races()


def test_same_time_resource_enqueues_are_a_race():
    # Two requests land on one Resource at the same timestamp with no
    # ordering: the tie-break decides the FIFO ticket order, which is
    # exactly the hazard the detector must surface.
    env = Environment()
    shared = Resource(env, capacity=1)

    def claimer():
        yield env.timeout(1.0)
        with shared.request() as grant:
            yield grant
            yield env.timeout(0.5)

    with detect_races(env) as detector:
        env.process(claimer())
        env.process(claimer())
        env.run()
    assert len(detector.races) >= 1
    assert any(r.label == "Resource.request" for r in detector.races)


def test_commuting_release_and_enqueue_are_not_reported():
    # One process releases while another enqueues at the same timestamp:
    # either order yields the identical final state, so no report.
    env = Environment()
    shared = Resource(env, capacity=1)

    def holder():
        with shared.request() as grant:
            yield grant
            yield env.timeout(1.0)

    def late_claimer():
        yield env.timeout(1.0)
        with shared.request() as grant:
            yield grant

    with detect_races(env) as detector:
        env.process(holder())
        env.process(late_claimer())
        env.run()
    assert detector.races == [], detector.format_races()


def test_same_time_server_serves_are_a_race():
    # The §5 model's analytic CPU and ring servers take holds in serve
    # order, so two unordered serves at one timestamp are the same hazard
    # as two Resource enqueues: the tie-break decides who goes first.
    env = Environment()
    server = FifoServer(env)

    def client():
        yield env.timeout(1.0)
        yield env.timeout_at(server.serve(env.now, 0.5))

    with detect_races(env) as detector:
        env.process(client())
        env.process(client())
        env.run()
    assert [race.label for race in detector.races] == ["Server.serve"]
    assert env.now == 2.0  # the second hold queued behind the first


def test_watch_requires_an_observer_hook():
    env = Environment()
    with pytest.raises(TypeError):
        with detect_races(env, watch=[object()]):
            pass


def test_report_formatting_names_both_sides():
    env = Environment()
    stats = OnlineStats()

    def writer(value):
        yield env.timeout(1.0)
        stats.add(value)

    with detect_races(env, watch=[stats]) as detector:
        env.process(writer(1.0))
        env.process(writer(2.0))
        env.run()
    text = detector.format_races()
    assert "1 schedule-sensitive access pair(s)" in text
    assert "first write" in text and "second write" in text


def test_figure3_workload_is_race_free():
    # The acceptance bar: the shipped end-to-end model has no
    # schedule-sensitive accesses (a scaled-down Figure 3 run).
    config = SimConfig(num_requests=40, warmup_requests=4)
    model = SwiftSimModel(config)
    watch = [value for value in vars(model).values()
             if isinstance(value, OnlineStats)]
    assert watch, "expected the model to expose stats accumulators"
    with detect_races(model.env, watch=watch) as detector:
        result = model.run()
    assert detector.races == [], detector.format_races()
    # The instrumented run still produced a meaningful result.
    assert result.completed > 0
    assert dataclasses.asdict(result)["client_data_rate"] > 0


def _prototype(table):
    """The seed-3 testbed behind ``table`` (Table 3 is the NFS one)."""
    if table == "table3":
        return NfsBaseline(seed=3)
    return PrototypeTestbed(seed=3, second_ethernet=table == "table4")


def _prototype_rates(bed):
    """A 1 MB prepare, read and write: the read and write rates."""
    if isinstance(bed, NfsBaseline):
        bed.prepare_file("f", MB)
        return bed.measure_read("f", MB), bed.measure_write("g", MB)
    bed.prepare_object("obj", MB)
    return bed.measure_read("obj", MB), bed.measure_write("obj", MB)


@pytest.mark.parametrize("table, pairs", [
    ("table1", 9), ("table4", 45), ("table3", 0)])
def test_prototype_race_reports_are_pinned(table, pairs):
    # The per-agent writers send at one instant, so their datagrams
    # reach a host CPU or a cable unordered: the only pairs reported
    # are same-time serves of one FIFO server.
    bed = _prototype(table)
    with detect_races(bed.env) as detector:
        rates = _prototype_rates(bed)
    assert len(detector.races) == pairs
    assert {race.label for race in detector.races} <= {"Server.serve"}
    assert rates == _prototype_rates(_prototype(table))
