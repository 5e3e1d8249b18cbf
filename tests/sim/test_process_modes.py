"""Process execution modes: the callback fast path is an execution
detail, not a model change.

``SwiftSimModel(process_mode="callback")`` (the default) runs the
per-request hot loops as slotted state machines with quiet releases,
inline joins, pooled timeouts and — when no monitor forbids it —
event-span coalescing of the deterministic disk chains.
``process_mode="generator"`` is the yield-based reference.  These tests
pin the two contracts docs/ARCHITECTURE.md states:

* **bit identity** — every SimResult field is equal between modes, for
  read-heavy, write-heavy, real-time and reference-scheduler shapes;
* **monitor-gated fallback** — with any monitor attached (HB detector,
  sanitizers, conservation ledger, schedule tracing) the coalesced
  paths expand to the full reference event sequence, the monitors stay
  green, and the result is *still* bit-identical.
"""

import dataclasses

import pytest

from repro.check import (
    alias_sanitize,
    assert_schedule_invariant,
    conserve,
    detect_races,
    sanitize,
)
from repro.sim.model import SwiftSimModel
from repro.sim.workload import SimConfig

# Small fig3/fig5-shaped runs: the paper's read-heavy baseline and the
# write-dominated small-transfer shape that stresses the span-coalesced
# write path.
FIG3_SHAPE = SimConfig(num_requests=60, warmup_requests=6,
                       arrival_rate=8.0)
FIG5_SHAPE = SimConfig(num_requests=80, warmup_requests=8,
                       arrival_rate=60.0, read_fraction=0.2,
                       transfer_unit=4096, request_size=1 << 16)
REALTIME_SHAPE = dataclasses.replace(
    FIG3_SHAPE, disk_scheduling="edf", deadline_s=0.5,
    realtime_fraction=0.25)

SHAPES = [FIG3_SHAPE, FIG5_SHAPE, REALTIME_SHAPE]
SHAPE_IDS = ["fig3", "fig5", "realtime"]

BASE = SimConfig(num_requests=24, warmup_requests=4)


def _run(config, process_mode, cohort_dispatch=True):
    return SwiftSimModel(config, cohort_dispatch=cohort_dispatch,
                         process_mode=process_mode).run()


@pytest.fixture(params=list(zip(SHAPES, SHAPE_IDS)), ids=SHAPE_IDS)
def shape(request):
    return request.param[0]


def test_mode_must_be_known():
    with pytest.raises(ValueError, match="process_mode"):
        SwiftSimModel(FIG3_SHAPE, process_mode="threads")


def test_callback_matches_generator_bit_identical(shape):
    assert _run(shape, "callback") == _run(shape, "generator")


def test_callback_identical_under_reference_scheduler(shape):
    # cohort_dispatch=False forces the one-heap reference scheduler and
    # (with it) disables span coalescing; the callback machines must
    # expand their chains and still land on the reference result.
    reference = _run(shape, "generator")
    assert _run(shape, "callback", cohort_dispatch=False) == reference


def test_cohort_dispatch_off_is_bit_identical():
    # The engine's one-heap reference scheduler and the cohort fast path
    # must agree on every result field (the bench_kernel_batched A/B).
    cold = SwiftSimModel(BASE).run()
    reference = SwiftSimModel(BASE, cohort_dispatch=False).run()
    assert cold == reference


def test_span_coalescing_expands_under_transfer_monitor():
    # A transfer monitor (the conservation ledger's hook) flips
    # span_coalescing off while leaving pooling on: the write path must
    # schedule every per-block event, and nothing else may move.
    reference = _run(FIG5_SHAPE, "generator")
    model = SwiftSimModel(FIG5_SHAPE, process_mode="callback")
    records = []
    model.env.add_transfer_monitor(lambda kind, **info:
                                   records.append(kind))
    assert not model.env.span_coalescing
    assert model.run() == reference


def test_callback_expands_more_events_when_monitored():
    # The coalesced run condenses each deterministic k-block chain into
    # one calendar entry; a monitored run must expand them all again.
    plain = SwiftSimModel(FIG5_SHAPE, process_mode="callback")
    plain_result = plain.run()
    monitored = SwiftSimModel(FIG5_SHAPE, process_mode="callback")
    steps = []
    monitored.env.add_step_monitor(lambda when, event: steps.append(when))
    assert monitored.run() == plain_result
    assert len(steps) > plain.env._eid


def test_hb_detector_green_on_callback_run():
    model = SwiftSimModel(FIG3_SHAPE, process_mode="callback")
    with detect_races(model.env) as detector:
        result = model.run()
    assert detector.races == []
    assert result == _run(FIG3_SHAPE, "generator")


def test_hb_detector_sees_callback_processes():
    # The detector must key segments by the state machines themselves:
    # a callback deployment's accesses may not all collapse into the
    # anonymous "<callback phase>" bucket.
    model = SwiftSimModel(FIG3_SHAPE, process_mode="callback")
    with detect_races(model.env) as detector:
        model.run()
    labels = set(detector._owner_labels.values())
    assert any("Op" in label or "Agent" in label for label in labels), labels


def test_sanitizers_green_on_callback_run():
    model = SwiftSimModel(FIG3_SHAPE, process_mode="callback")
    with sanitize(model.env, model.streams):
        with alias_sanitize(model.env):
            result = model.run()
    assert result == _run(FIG3_SHAPE, "generator")


def test_conservation_ledger_green_on_callback_run():
    model = SwiftSimModel(FIG5_SHAPE, process_mode="callback")
    with conserve(model.env) as ledger:
        result = model.run()
    assert ledger.errors == []
    assert result == _run(FIG5_SHAPE, "generator")


@pytest.mark.parametrize("mode", ["callback", "generator"])
def test_modes_are_schedule_invariant(mode):
    # Tie-break shuffles (which also force span expansion) must not
    # move a single metric in either mode — the perturbation harness is
    # what licenses the fast path's same-timestamp micro-reorderings.
    def scenario(tie_break_seed, trace):
        config = dataclasses.replace(FIG3_SHAPE, num_requests=30,
                                     warmup_requests=3,
                                     tie_break_seed=tie_break_seed)
        model = SwiftSimModel(config, process_mode=mode)
        trace.attach(model.env)
        metrics = dataclasses.asdict(model.run())
        metrics.pop("config")
        return metrics

    report = assert_schedule_invariant(scenario, permutations=4)
    assert report.invariant
