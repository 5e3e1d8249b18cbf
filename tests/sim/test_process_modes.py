"""The §5 model's callback state machines against their generator twin.

``SwiftSimModel`` runs every request as slotted callback state machines
that hold the CPUs and the ring through analytic FIFO servers, count
their blocks and acks down inline, use pooled timeouts and coalesce the
deterministic write-path disk chains.
:class:`~tests.sim.reference_model.GeneratorModel` runs the same request
path as straight-line generators.  These tests pin the two contracts
docs/ARCHITECTURE.md states:

* **bit identity** — every SimResult field is equal between the two
  models, for read-heavy, write-heavy, real-time and one-heap-scheduler
  shapes and for any small drawn config;
* **monitor invariance** — with any monitor attached (sanitizers,
  conservation ledger, schedule tracing) pooling, token grants, inline
  finishes and — for schedule monitors — the cohort deque switch off,
  the monitors stay green, and the result is *still* bit-identical;
* **tie-order invariance** — seeded shuffles of every same-time tie
  move no metric of either model, on every shape.

Exact engine event counts pin what the callback machines are for:
scheduling about a quarter of the generator twin's events.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.check import (
    alias_sanitize,
    assert_schedule_invariant,
    conserve,
    sanitize,
)
from repro.prototype import PrototypeTestbed
from repro.sim.model import SwiftSimModel
from repro.sim.workload import SimConfig
from repro.simdisk import RaidArray

from .reference_model import GeneratorModel

KB = 1 << 10
MB = 1 << 20

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

#: Engine events (``env._eid``) per shape: (SwiftSimModel, GeneratorModel).
#: A change to either count changes the request path's event schedule
#: and should be a deliberate one.  A generator process starts inside
#: ``env.process()`` and takes no start event.
EVENT_COUNTS = [(7_898, 27_554), (6_961, 22_364), (7_898, 27_554)]

#: A seed-3 Table 1 testbed's 1 MB prepare, read and write: (engine
#: events, datagrams carried).  A datagram costs three timers — sender
#: CPU, cable, receiver CPU — so 1,680 of the 2,300 ids; the rest are
#: write-stream gaps, disk block timers, receive deadlines, write
#: watchdogs and a few completions.  A process start, a send's
#: completion or a socket wakeup takes no entry of its own.
TABLE1_EVENT_BUDGET = (2_300, 560)

BASE = SimConfig(num_requests=24, warmup_requests=4)


def _one_heap(model):
    """Attach a no-op schedule monitor: every event goes through the heap.

    A schedule monitor turns off the same-timestamp cohort fast path,
    pooling, token grants and inline finishes, so the run takes the
    engine's one-heap reference scheduler with every event dispatched
    individually.  Span coalescing stays on.
    """
    model.env.observe("schedule", lambda event, process: None)
    return model


@pytest.fixture(params=list(zip(SHAPES, SHAPE_IDS)), ids=SHAPE_IDS)
def shape(request):
    return request.param[0]


def test_callback_matches_generator_bit_identical(shape):
    assert SwiftSimModel(shape).run() == GeneratorModel(shape).run()


def test_callback_identical_under_reference_scheduler(shape):
    # The one-heap scheduler dispatches every event individually; the
    # callback machines must still land on the reference result.
    reference = GeneratorModel(shape).run()
    assert _one_heap(SwiftSimModel(shape)).run() == reference


@pytest.mark.parametrize("config, counts", list(zip(SHAPES, EVENT_COUNTS)),
                         ids=SHAPE_IDS)
def test_event_counts_are_pinned(config, counts):
    callback = SwiftSimModel(config)
    callback.run()
    generator = GeneratorModel(config)
    generator.run()
    assert (callback.env._eid, generator.env._eid) == counts


def test_prototype_event_budget_is_pinned():
    testbed = PrototypeTestbed(seed=3)
    testbed.prepare_object("obj", MB)
    testbed.measure_read("obj", MB)
    testbed.measure_write("obj", MB)
    carried = testbed.network.medium("laboratory").stats.datagrams_carried
    assert (testbed.env._eid, carried) == TABLE1_EVENT_BUDGET


def test_cohort_dispatch_off_is_bit_identical():
    # The engine's one-heap reference scheduler and the cohort fast path
    # must agree on every result field.
    cold = SwiftSimModel(BASE).run()
    reference = _one_heap(SwiftSimModel(BASE)).run()
    assert cold == reference


def test_callback_expands_more_events_when_monitored():
    # Coalesced chains stay one calendar entry either way, but a
    # monitored run still schedules more events: every callback process
    # triggers its completion event and every disk hold takes a Request
    # grant instead of a token.
    plain = SwiftSimModel(FIG5_SHAPE)
    plain_result = plain.run()
    monitored = SwiftSimModel(FIG5_SHAPE)
    steps = []
    monitored.env.observe("step", lambda when, event: steps.append(when))
    assert monitored.run() == plain_result
    assert len(steps) > plain.env._eid


def _table1_run(kind):
    """A seed-3 Table 1 testbed's 1 MB prepare, read and write."""
    testbed = PrototypeTestbed(seed=3)
    if kind is not None:
        testbed.env.observe(kind, lambda *args, **info: None)
    testbed.prepare_object("obj", MB)
    rates = (testbed.measure_read("obj", MB),
             testbed.measure_write("obj", MB))
    return rates, testbed.network_utilization(), testbed.env.now


@pytest.mark.parametrize("kind", ["step", "schedule", "resource",
                                  "transfer", "alias"])
def test_no_monitor_kind_changes_a_result(kind):
    for shape in (FIG3_SHAPE, FIG5_SHAPE):
        model = SwiftSimModel(shape)
        model.env.observe(kind, lambda *args, **info: None)
        assert model.run() == GeneratorModel(shape).run()
    assert _table1_run(kind) == _table1_run(None)


def test_sanitizers_green_on_callback_run():
    model = SwiftSimModel(FIG3_SHAPE)
    with sanitize(model.env):
        with alias_sanitize(model.env):
            result = model.run()
    assert result == GeneratorModel(FIG3_SHAPE).run()


def test_conservation_ledger_green_on_callback_run():
    model = SwiftSimModel(FIG5_SHAPE)
    with conserve(model.env) as ledger:
        result = model.run()
    assert ledger.errors == []
    assert result == GeneratorModel(FIG5_SHAPE).run()


@pytest.mark.parametrize("model_class", [SwiftSimModel, GeneratorModel],
                         ids=["callback", "generator"])
def test_modes_are_schedule_invariant(model_class, shape):
    # Tie-break shuffles must not move a single metric in either model —
    # the perturbation harness is what licenses the fast path's
    # same-timestamp micro-reorderings.  The write-heavy shape serves the
    # client CPU and the ring once per block and the agent CPUs once per
    # block and ack; the EDF shape reorders the disk queues by deadline.
    def scenario(tie_break_seed, trace):
        config = dataclasses.replace(shape, tie_break_seed=tie_break_seed)
        model = model_class(config)
        trace.attach(model.env)
        metrics = dataclasses.asdict(model.run())
        metrics.pop("config")
        return metrics

    report = assert_schedule_invariant(scenario, permutations=4)
    assert report.invariant


def _raid_factory(env, index, streams):
    return RaidArray(env, num_members=3,
                     stream=streams.stream(f"raid/{index}"))


@st.composite
def small_configs(draw):
    """A 30-request config anywhere in the model's small parameter space."""
    scheduling = {}
    if draw(st.booleans()):
        scheduling = {"disk_scheduling": "edf",
                      "deadline_s": draw(st.sampled_from([0.05, 0.5])),
                      "realtime_fraction": draw(st.sampled_from([0.25, 1.0]))}
    return SimConfig(
        num_disks=draw(st.integers(min_value=1, max_value=6)),
        transfer_unit=draw(st.sampled_from([4 * KB, 16 * KB, 32 * KB])),
        # Any size: one the unit does not divide rounds up a block.
        request_size=draw(st.integers(min_value=4 * KB,
                                      max_value=200 * KB)),
        arrival_rate=draw(st.sampled_from([5.0, 20.0, 80.0])),
        read_fraction=draw(st.sampled_from([0.0, 0.2, 0.8, 1.0])),
        num_clients=draw(st.integers(min_value=1, max_value=4)),
        num_requests=30, warmup_requests=3,
        seed=draw(st.integers(min_value=0, max_value=50)),
        **scheduling)


@settings(max_examples=25, deadline=None)
@given(config=small_configs(),
       storage_factory=st.sampled_from([None, _raid_factory]))
def test_model_matches_reference_on_any_small_config(config,
                                                     storage_factory):
    assert (SwiftSimModel(config, storage_factory=storage_factory).run()
            == GeneratorModel(config, storage_factory=storage_factory).run())
