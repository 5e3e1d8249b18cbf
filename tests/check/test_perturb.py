"""Schedule-perturbation harness: tie-break shuffles must not move metrics."""

import dataclasses
import functools

import pytest

import repro.baselines.nfs
import repro.prototype.testbed
from repro.baselines import NfsBaseline
from repro.check import (
    ScheduleRaceError,
    ScheduleTrace,
    assert_schedule_invariant,
    run_perturbed,
)
from repro.check.perturb import derive_tie_seeds
from repro.des import Environment
from repro.des.stats import OnlineStats
from repro.prototype import PrototypeTestbed
from repro.sim.model import SwiftSimModel
from repro.sim.workload import SimConfig

MB = 1 << 20


def _racy_scenario(tie_break_seed, trace):
    """Last-writer-wins at one timestamp: the textbook tie-break race."""
    env = Environment(tie_break_seed=tie_break_seed)
    trace.attach(env)
    box = {"last": 0.0}

    def writer(value):
        yield env.timeout(1.0)
        box["last"] = value

    env.process(writer(10.0))
    env.process(writer(20.0))
    env.run()
    return {"last": box["last"]}


def _clean_scenario(tie_break_seed, trace):
    env = Environment(tie_break_seed=tie_break_seed)
    trace.attach(env)
    stats = OnlineStats()

    def writer(value, delay):
        yield env.timeout(delay)
        stats.add(value)

    env.process(writer(10.0, 1.0))
    env.process(writer(20.0, 2.0))
    env.run()
    return {"mean": stats.mean, "count": stats.count}


def test_racy_scenario_diverges_and_is_localized():
    report = run_perturbed(_racy_scenario, permutations=8)
    assert not report.invariant
    divergence = report.divergences[0]
    assert divergence.metric_diffs["last"] == (20.0, 10.0)
    # The harness pins the first calendar slot where the schedules split.
    assert divergence.first_divergent_event is not None
    assert divergence.baseline_fingerprint != divergence.perturbed_fingerprint
    text = report.format()
    assert "tie-break race" in text
    assert "schedules diverge at event" in text


def test_clean_scenario_is_invariant():
    report = assert_schedule_invariant(_clean_scenario, permutations=8)
    assert report.invariant
    assert report.baseline_metrics == {"mean": 15.0, "count": 2}
    assert "bit-identical across 8" in report.format()


def test_assert_raises_on_divergence():
    with pytest.raises(ScheduleRaceError) as caught:
        assert_schedule_invariant(_racy_scenario, permutations=4)
    assert "tie-break race" in str(caught.value)


def test_seed_derivation_is_deterministic_and_distinct():
    seeds = derive_tie_seeds(0, 8)
    assert seeds == derive_tie_seeds(0, 8)
    assert len(set(seeds)) == 8
    assert seeds != derive_tie_seeds(1, 8)


def test_permutation_count_is_validated():
    with pytest.raises(ValueError):
        run_perturbed(_clean_scenario, permutations=0)


def test_end_to_end_model_is_schedule_invariant():
    # The acceptance bar: a full (scaled-down) Figure 3 run produces
    # bit-identical metrics across 8 seeded shuffles of every calendar tie.
    def scenario(tie_break_seed, trace):
        config = SimConfig(num_requests=40, warmup_requests=4,
                           tie_break_seed=tie_break_seed)
        model = SwiftSimModel(config)
        trace.attach(model.env)
        metrics = dataclasses.asdict(model.run())
        metrics.pop("config")
        return metrics

    report = assert_schedule_invariant(scenario, permutations=8)
    assert report.invariant
    assert report.baseline_metrics["completed"] > 0


def _prototype_scenario(monkeypatch, table):
    """The seed-3 testbed behind ``table`` (Table 3 is the NFS one) as a
    harness scenario: a 1 MB prepare, then the read and write rates."""
    def scenario(tie_break_seed, trace):
        seeded = functools.partial(Environment, tie_break_seed=tie_break_seed)
        monkeypatch.setattr(repro.prototype.testbed, "Environment", seeded)
        monkeypatch.setattr(repro.baselines.nfs, "Environment", seeded)
        if table == "table3":
            bed = NfsBaseline(seed=3)
            trace.attach(bed.env)
            bed.prepare_file("f", MB)
            rates = bed.measure_read("f", MB), bed.measure_write("g", MB)
        else:
            bed = PrototypeTestbed(seed=3, second_ethernet=table == "table4")
            trace.attach(bed.env)
            bed.prepare_object("obj", MB)
            rates = bed.measure_read("obj", MB), bed.measure_write("obj", MB)
        return {"read": rates[0], "write": rates[1]}
    return scenario


@pytest.mark.parametrize("table, moved", [
    ("table1", 4), ("table4", 4), ("table3", 0)])
def test_prototype_tie_order_dependence_is_pinned(monkeypatch, table, moved):
    # A known defect, pinned as such (ROADMAP, "Tables 1 and 4 depend on
    # tie order"): the per-agent writers send at one instant, so their
    # datagrams reach one host CPU or one cable in tie order, and every
    # shuffle moves the Swift rates.  The NFS baseline has one writer.
    report = run_perturbed(_prototype_scenario(monkeypatch, table),
                           permutations=4)
    assert len(report.divergences) == moved
    for divergence in report.divergences:
        assert "write" in divergence.metric_diffs
        assert divergence.first_divergent_event is not None


def test_prototype_schedule_trace_is_reproducible(monkeypatch):
    # Fingerprints hold no object address and no process-global counter,
    # so a divergence index points at a reordered tie, not at the first
    # datagram of the run.
    scenario = _prototype_scenario(monkeypatch, "table1")
    first, second = ScheduleTrace(), ScheduleTrace()
    assert scenario(None, first) == scenario(None, second)
    assert first.fingerprints == second.fingerprints
