"""Engine and event-lifecycle tests for the DES kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.des import (CallbackProcess, Environment, EmptySchedule, Event,
                        Resource, Timeout)
from repro.des.engine import tie_break_key


def test_environment_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_environment_custom_start_time():
    # The clock starts at 0.0; an empty calendar run to a time moves it
    # there.
    env = Environment()
    env.run(until=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(3.5)

    env.process(proc(env))
    env.run()
    assert env.now == 3.5


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_schedule_rejects_a_past_time():
    env = Environment()
    env.run(until=5.0)
    event = env.event()
    event._ok = True
    with pytest.raises(ValueError, match="in the past"):
        env.schedule(event, 1.0)
    env.schedule(event, 5.0)
    env.run()
    assert event.processed


def test_timeout_value_delivered():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1.0, value="payload")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["payload"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run(until=10.5)
    assert env.now == 10.5


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return 42

    result = env.run(until=env.process(proc(env)))
    assert result == 42
    assert env.now == 2.0


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def waiter(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(waiter(env, 3.0, "c"))
    env.process(waiter(env, 1.0, "a"))
    env.process(waiter(env, 2.0, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_by_schedule_order():
    env = Environment()
    order = []

    def waiter(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in "abcd":
        env.process(waiter(env, tag))
    env.run()
    assert order == list("abcd")


def test_event_succeed_once_only():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    event = env.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_unhandled_failed_event_raises_from_run():
    env = Environment()
    event = env.event()
    event.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_defused_failed_event_is_silent():
    env = Environment()
    event = env.event()
    event.fail(ValueError("boom"))
    event.defuse()
    env.run()  # no raise


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(RuntimeError):
        _ = event.value
    with pytest.raises(RuntimeError):
        _ = event.ok


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0


def test_peek_empty_is_infinite():
    env = Environment()
    assert env.peek() == float("inf")


def test_all_of_waits_for_every_event():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(1.0, "one")
        t2 = env.timeout(2.0, "two")
        values = yield env.all_of([t1, t2])
        results.append(sorted(values.values()))

    env.process(proc(env))
    env.run()
    assert results == [["one", "two"]]
    assert env.now == 2.0


def test_any_of_fires_on_first():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(1.0, "fast")
        t2 = env.timeout(5.0, "slow")
        values = yield env.any_of([t1, t2])
        results.append(list(values.values()))

    env.process(proc(env))
    env.run(until=1.5)
    assert results == [["fast"]]


def test_all_of_empty_fires_immediately():
    env = Environment()
    condition = env.all_of([])
    assert condition.triggered
    assert condition.value == {}


def test_condition_propagates_failure():
    env = Environment()
    caught = []

    def failer(env):
        yield env.timeout(1.0)
        raise RuntimeError("inner")

    def proc(env):
        try:
            yield env.all_of([env.process(failer(env)), env.timeout(9.0)])
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(proc(env))
    env.run()
    assert caught == ["inner"]


# -- cohort dispatch ----------------------------------------------------------
#
# Same-timestamp events normally skip the heap and drain from an
# append-ordered ready deque (see the Environment docstring).  The
# contract: dispatch order is bit-identical to the one-heap reference
# path, and anything that must observe every event individually — a
# schedule monitor, a tie-break seed — disables the fast path and spills
# any pending cohort back into the heap.


def _mixed_workload(env, order):
    """Processes that exercise same-time fan-out, directly scheduled
    events, resource hand-offs and future timeouts, recording dispatch
    order."""
    resource = Resource(env, capacity=2)

    def holder(env, tag):
        for cycle in range(3):
            with resource.request() as grant:
                yield grant
                order.append((env.now, tag, cycle, "granted"))
                yield env.timeout(0.001 * ((cycle + tag) % 3))
            order.append((env.now, tag, cycle, "released"))

    def fanout(env):
        for cycle in range(4):
            events = [env.event() for _ in range(3)]
            for index, event in enumerate(events):
                event.succeed(index)
            yield env.all_of(events)
            order.append((env.now, "fanout", cycle))
            yield env.timeout(0.0005)

    def schedule_mixer(env):
        for cycle in range(4):
            timeout = env.timeout(0.002)
            scheduled = env.event()
            scheduled._ok = True
            env.schedule(scheduled, when=env.now + 0.002)
            yield env.all_of([timeout, scheduled])
            order.append((env.now, "scheduled", cycle))

    for tag in range(5):
        env.process(holder(env, tag))
    env.process(fanout(env))
    env.process(schedule_mixer(env))


def _run_mixed(cohort, workload=_mixed_workload):
    env = Environment()
    if not cohort:
        # A no-op schedule monitor forces the one-heap reference path.
        env.observe("schedule", lambda event, process: None)
    order = []
    workload(env, order)
    env.run()
    return order, env.now, env._eid


def test_cohort_dispatch_matches_reference_order():
    assert _run_mixed(True) == _run_mixed(False)


# A drawn script step: (operation, argument).  Timeouts include 0, a
# fan-out succeeds n events at once, a scheduled event lands at now or
# later, and a hold keeps a capacity-1 resource for a while.
_SCRIPT_STEP = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from([0.0, 0.001, 0.002])),
    st.tuples(st.just("fanout"), st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("schedule"), st.sampled_from([0.0, 0.001, 0.002])),
    st.tuples(st.just("hold"), st.sampled_from([0.0, 0.001])),
)
_SCRIPTS = st.lists(st.lists(_SCRIPT_STEP, min_size=1, max_size=6),
                    min_size=1, max_size=5)
_TICKER_GAPS = st.lists(
    st.lists(st.sampled_from([0.0, 0.001, 0.002]), min_size=1, max_size=4),
    max_size=3)


def _scripted(env, resource, log, tag, script):
    for index, (op, arg) in enumerate(script):
        if op == "timeout":
            yield env.timeout(arg)
        elif op == "fanout":
            events = [env.event() for _ in range(arg)]
            for event in events:
                event.succeed()
            yield env.all_of(events)
        elif op == "schedule":
            event = env.event()
            event._ok = True
            event._value = None
            env.schedule(event, env.now + arg)
            yield event
        else:
            with resource.request() as grant:
                yield grant
                log.append((env.now, tag, index, "granted"))
                yield env.timeout(arg)
        log.append((env.now, tag, index, op))


class _ScriptTicker(CallbackProcess):
    """Ticks through ``wait_at`` after each drawn gap, then finishes."""

    __slots__ = ("log", "tag", "gaps")

    def __init__(self, env, log, tag, gaps):
        self.log = log
        self.tag = tag
        self.gaps = list(gaps)
        super().__init__(env)

    def _start(self, value):
        self.wait_at(self.gaps.pop(), self._tick)

    def _tick(self, value):
        self.log.append((self.env.now, self.tag, len(self.gaps), "tick"))
        if self.gaps:
            self.wait_at(self.env.now + self.gaps.pop(), self._tick)
        else:
            self._finish()


@settings(max_examples=300, deadline=None)
@given(scripts=_SCRIPTS, tickers=_TICKER_GAPS)
def test_cohort_and_one_heap_dispatch_agree_on_any_event_mix(scripts,
                                                             tickers):
    def workload(env, log):
        resource = Resource(env, capacity=1)
        for tag, script in enumerate(scripts):
            env.process(_scripted(env, resource, log, tag, script))
        for tag, gaps in enumerate(tickers):
            _ScriptTicker(env, log, f"ticker{tag}", gaps)

    log, now, eid = _run_mixed(True, workload)
    ref_log, ref_now, ref_eid = _run_mixed(False, workload)
    assert log == ref_log
    assert now == ref_now
    if not tickers:
        # A monitored CallbackProcess._finish fires one completion
        # event the unmonitored one skips, so ids match only without
        # tickers.
        assert eid == ref_eid


def test_seeded_calendar_key_is_tie_break_key():
    # Every way onto the calendar (succeed, timeout, timeout_at, a
    # CallbackProcess timer through call_at, schedule) keys its entry by
    # tie_break_key of its event id under a seed.
    seed = 11
    env = Environment(tie_break_seed=seed)
    env.event().succeed()
    env.timeout(1.0)
    env.timeout_at(2.0)
    Ticker(env)
    later = env.event()
    later._ok = True
    env.schedule(later, 4.0)
    keys = [key for _, key, _ in env._queue]
    assert sorted(eid for _, eid in keys) == list(range(1, env._eid + 1))
    assert all(key == tie_break_key(seed, key[1]) for key in keys)


def test_tie_break_seed_disables_cohort_fast_path():
    env = Environment(tie_break_seed=7)
    assert not env._schedule_fast
    env = Environment()
    assert env._schedule_fast


def test_tie_break_seed_is_fixed_at_construction():
    # Calendar keys are ints without a seed and tuples with one: a seed
    # set after anything was scheduled would mix the two in one heap.
    env = Environment()
    env.timeout(1.0)
    with pytest.raises(AttributeError):
        env.tie_break_seed = 3
    env.timeout(1.0)
    env.run()
    assert env.now == 1.0


def test_schedule_monitor_spills_pending_cohort():
    env = Environment()
    order = []

    def fanout(env):
        events = [env.event() for _ in range(4)]
        for index, event in enumerate(events):
            event.succeed(index)
        # The succeeded events sit in the ready cohort right now.
        assert env._ready
        seen = []
        env.observe("schedule", lambda event, proc: seen.append(event))
        # Attaching the monitor must have spilled them into the heap.
        assert not env._ready
        yield env.all_of(events)
        order.append([event.value for event in events])

    env.process(fanout(env))
    env.run()
    assert order == [[0, 1, 2, 3]]


class Ticker(CallbackProcess):
    """Ticks through ``wait_at`` at t = 1, 2 and 3, then finishes."""

    __slots__ = ("ticks",)

    def __init__(self, env):
        self.ticks = []
        super().__init__(env)

    def _start(self, value):
        self.wait_at(1.0, self._tick)

    def _tick(self, value):
        self.ticks.append(self.env.now)
        if len(self.ticks) < 3:
            self.wait_at(self.env.now + 1.0, self._tick)
        else:
            self._finish()


def test_step_monitor_attached_mid_run_sees_every_later_dispatch():
    # Unmonitored, the t = 2.0 tick is a raw call_at entry.  Attaching a
    # step monitor boxes it into a Timeout under its own key, so the
    # monitor sees that dispatch too, and sees it as an Event.
    env = Environment()
    ticker = Ticker(env)
    env.run(until=1.5)
    seen = []
    env.observe("step", lambda when, event: seen.append((when, event)))
    env.run()
    assert [(when, type(event)) for when, event in seen] == [
        (2.0, Timeout), (3.0, Timeout), (3.0, Ticker)]
    assert all(isinstance(event, Event) for _, event in seen)
    assert ticker.ticks == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("kind", ["step", "schedule"])
def test_monitor_attached_mid_dispatch_boxes_a_same_time_timer(kind):
    # A call_at at the current time waits in the ready deque; a monitor
    # attached before it runs must see it as a Timeout, in eid order.
    env = Environment()
    order = []
    seen = []

    class Note:
        def fire(self, trigger):
            order.append(("timer", type(trigger)))

    def proc(env):
        yield env.timeout(1.0)
        env.call_at(env.now, Note().fire)
        late = env.event()
        late.callbacks.append(lambda event: order.append(("late", None)))
        late.succeed()
        env.observe(kind, lambda *args: seen.append(args))

    env.process(proc(env))
    env.run()
    assert order == [("timer", Timeout), ("late", None)]
    if kind == "step":
        assert [type(event) for _, event in seen[:2]] == [Timeout, Event]
    assert all(isinstance(args[0 if kind == "schedule" else 1], Event)
               for args in seen)
