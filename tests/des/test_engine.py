"""Engine and event-lifecycle tests for the DES kernel."""

import pytest

from repro.des import (CallbackProcess, Environment, EmptySchedule, Event,
                        Timeout)


def test_environment_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_environment_custom_start_time():
    env = Environment(initial_time=5.0)
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
    env = Environment(initial_time=10.0)
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


def test_trigger_copies_another_events_outcome():
    env = Environment()
    source = env.event()
    mirror = env.event()
    source.callbacks.append(mirror.trigger)
    source.succeed("mirrored")
    env.run()
    assert mirror.value == "mirrored"


# -- cohort dispatch ----------------------------------------------------------
#
# Same-timestamp events normally skip the heap and drain from an
# append-ordered ready deque (see the Environment docstring).  The
# contract: dispatch order is bit-identical to the one-heap reference
# path, and anything that must observe every event individually — a
# schedule monitor, a tie-break seed — disables the fast path and spills
# any pending cohort back into the heap.


def _mixed_workload(env, order):
    """Processes that exercise same-time fan-out, urgent events,
    resource hand-offs and future timeouts, recording dispatch order."""
    from repro.des import Resource

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

    def urgent_mixer(env):
        for cycle in range(4):
            normal = env.timeout(0.002)
            urgent = env.event()
            urgent._ok = True
            env.schedule(urgent, delay=0.002,
                         priority=env.PRIORITY_URGENT)
            yield env.all_of([normal, urgent])
            order.append((env.now, "urgent", cycle))

    for tag in range(5):
        env.process(holder(env, tag))
    env.process(fanout(env))
    env.process(urgent_mixer(env))


def _run_mixed(cohort):
    env = Environment()
    if not cohort:
        # A no-op schedule monitor forces the one-heap reference path.
        env.observe("schedule", lambda event, process: None)
    order = []
    _mixed_workload(env, order)
    env.run()
    return order, env.now


def test_cohort_dispatch_matches_reference_order():
    assert _run_mixed(True) == _run_mixed(False)


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
