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


#: Testbed options per prototype configuration: Table 1's lab, Table 4's
#: two Ethernets, the variants the sensitivity and ablation runs use,
#: and (None) Table 3's NFS baseline.
PROTOTYPE_CONFIGS = {
    "plain": {},
    "two-ethernets": {"second_ethernet": True},
    "parity": {"parity": True},
    "tcp": {"tcp_mode": True},
    "no-prefetch": {"agent_prefetch": False},
    "sync-writes": {"synchronous_agent_writes": True},
    "contention": {"ethernet_contention": True},
    "nfs": None,
}


def _prototype_scenario(monkeypatch, config, seed=3, traced=True):
    """The ``config`` testbed as a harness scenario: a 1 MB prepare, then
    the read and write rates and the final clock.  Untraced, the run
    stays on the unmonitored fast path (and divergences go unlocalized)."""
    options = PROTOTYPE_CONFIGS[config]

    def scenario(tie_break_seed, trace):
        seeded = functools.partial(Environment, tie_break_seed=tie_break_seed)
        monkeypatch.setattr(repro.prototype.testbed, "Environment", seeded)
        monkeypatch.setattr(repro.baselines.nfs, "Environment", seeded)
        if options is None:
            bed = NfsBaseline(seed=seed)
            prepare, name = bed.prepare_file, "f"
        else:
            bed = PrototypeTestbed(seed=seed, **options)
            prepare, name = bed.prepare_object, "obj"
        if traced:
            trace.attach(bed.env)
        prepare(name, MB)
        read = bed.measure_read(name, MB)
        write = bed.measure_write(name if options is not None else "g", MB)
        return {"read": read, "write": write, "now": bed.env.now}
    return scenario


@pytest.mark.parametrize("traced", [True, False],
                         ids=["monitored", "fast-path"])
@pytest.mark.parametrize("config", list(PROTOTYPE_CONFIGS))
def test_prototype_is_tie_order_invariant(monkeypatch, config, traced):
    # Every process starts inside env.process(), so Table 1's and 4's
    # per-agent writers send in creation order whatever the tie order.
    # Traced, the engine takes its monitored path; untraced, the
    # in-place socket wakeups and elided completions are what gets
    # shuffled.
    for seed in (0, 5):
        report = run_perturbed(
            _prototype_scenario(monkeypatch, config, seed, traced),
            permutations=3)
        assert report.invariant, report.format()


def test_prototype_schedule_trace_is_reproducible(monkeypatch):
    # Fingerprints hold no object address and no process-global counter,
    # so a divergence index points at a reordered tie, not at the first
    # datagram of the run.
    scenario = _prototype_scenario(monkeypatch, "plain")
    first, second = ScheduleTrace(), ScheduleTrace()
    assert scenario(None, first) == scenario(None, second)
    assert first.fingerprints == second.fingerprints
