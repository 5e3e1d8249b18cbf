"""CallbackProcess semantics: waits, token-grant holds, failures.

Every behaviour here is pinned against the generator ``Process``
reference: same timestamps, same resource grant order, same failure
propagation.  The mode A/B on the full §5 model lives in
tests/sim/test_process_modes.py; this file covers the kernel primitive
in isolation.
"""

import gc
import weakref
from types import MethodType

import pytest

from repro.check import assert_schedule_invariant
from repro.des import (
    CallbackProcess,
    Environment,
    Event,
    Resource,
    Timeout,
)

MONITOR_KINDS = ("step", "schedule", "resource", "access", "transfer",
                 "alias")


class Stepper(CallbackProcess):
    """Waits two timeouts, then finishes with a value."""

    __slots__ = ("log",)

    def __init__(self, env, log):
        self.log = log
        super().__init__(env)

    def _start(self, value):
        self.log.append(("start", self.env.now))
        self.wait(self.env.timeout(1.0), self._mid)

    def _mid(self, value):
        self.log.append(("mid", self.env.now))
        self.wait(self.env.timeout(2.0), self._end)

    def _end(self, value):
        self.log.append(("end", self.env.now))
        self._finish("done")


class Holder(CallbackProcess):
    """Holds ``resource`` for one second the way DiskAccess does.

    Uncontended, the grant is a token claim
    (:meth:`~repro.des.resources.Resource.try_acquire`) with no Request
    object; contended, a queued Request.  Then one timeout, the matching
    quiet release, and the process finishes with the release time.
    """

    __slots__ = ("resource", "priority", "_grant")

    def __init__(self, env, resource, priority=0.0):
        self.resource = resource
        self.priority = priority
        super().__init__(env)

    def _start(self, value):
        resource = self.resource
        if resource.try_acquire():
            self._grant = None
            self._granted(None)
        else:
            self._grant = grant = resource.request(self.priority)
            self.wait(grant, self._granted)

    def _granted(self, value):
        self.wait_timeout(1.0, self._held)

    def _held(self, value):
        if self._grant is None:
            self.resource.release_slot()
        else:
            self.resource.release_quiet(self._grant)
            self._grant = None
        self._finish(self.env.now)


def test_states_advance_through_timeouts():
    env = Environment()
    log = []
    process = Stepper(env, log)
    env.run()
    assert log == [("start", 0.0), ("mid", 1.0), ("end", 3.0)]
    assert not process.is_alive
    assert process.value == "done"


def test_generator_process_can_wait_on_callback_process():
    env = Environment()
    results = []

    def waiter(env, target):
        value = yield target
        results.append((value, env.now))

    target = Stepper(env, [])
    env.process(waiter(env, target))
    env.run()
    assert results == [("done", 3.0)]


def test_callback_process_can_wait_on_generator_process():
    env = Environment()
    log = []

    def child(env):
        yield env.timeout(2.5)
        return "child-done"

    class Parent(CallbackProcess):
        __slots__ = ()

        def _start(self, value):
            self.wait(env.process(child(env)), self._got)

        def _got(self, value):
            log.append((value, self.env.now))
            self._finish()

    Parent(env)
    env.run()
    assert log == [("child-done", 2.5)]


def test_start_order_follows_creation_order():
    env = Environment()
    started = []

    class Named(CallbackProcess):
        __slots__ = ("name",)

        def __init__(self, env, name):
            self.name = name
            super().__init__(env)

        def _start(self, value):
            started.append(self.name)
            self.wait_timeout(1.0, self._finish)

    Named(env, "first")
    Named(env, "second")
    env.run()
    assert started == ["first", "second"]


def test_immediate_start_runs_inside_constructor():
    env = Environment()
    log = []
    Stepper(env, log)
    assert log == [("start", 0.0)]  # before env.run()
    env.run()
    assert log == [("start", 0.0), ("mid", 1.0), ("end", 3.0)]


def test_hold_matches_generator_hold_timing_and_queueing():
    """A token grant and a Request grant contend like generator holds.

    Every holder is created from inside a generator process, so start
    order is creation order: the callback holder claims a token when it
    comes first and queues a Request behind the generator otherwise.
    """

    def run(order):
        env = Environment()
        resource = Resource(env, capacity=1)
        log = []

        def generator_hold(env):
            with resource.request() as grant:
                yield grant
                yield env.timeout(1.0)
            log.append(("gen", env.now))

        def callback_hold(env):
            yield Holder(env, resource)
            log.append(("cb", env.now))

        for kind in order:
            hold = generator_hold if kind == "gen" else callback_hold
            env.process(hold(env))
        env.run()
        return log, env.now

    log, now = run(["gen", "cb"])
    assert log == [("gen", 1.0), ("cb", 2.0)]
    assert now == 2.0
    log, now = run(["cb", "gen"])
    assert log == [("cb", 1.0), ("gen", 2.0)]
    assert now == 2.0


def test_hold_priority_orders_grants():
    env = Environment()
    resource = Resource(env, capacity=1)
    holders = {name: Holder(env, resource, priority=priority)
               for name, priority in (("low", 5.0), ("high", 1.0),
                                      ("mid", 3.0))}
    env.run()
    # First grant is FIFO (a token claim: "low" found the server free);
    # the queue then orders by priority.
    released = {name: holder.value for name, holder in holders.items()}
    assert released == {"low": 1.0, "high": 2.0, "mid": 3.0}


def test_state_exception_fails_process_and_propagates_to_waiter():
    env = Environment()
    caught = []

    class Exploder(CallbackProcess):
        __slots__ = ()

        def _start(self, value):
            self.wait(self.env.timeout(1.0), self._boom)

        def _boom(self, value):
            raise ValueError("state failed")

    def waiter(env, target):
        try:
            yield target
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter(env, Exploder(env)))
    env.run()
    assert caught == ["state failed"]


def test_unwaited_failure_raises_from_run():
    env = Environment()

    class Exploder(CallbackProcess):
        __slots__ = ()

        def _start(self, value):
            raise RuntimeError("nobody caught this")

    Exploder(env)
    with pytest.raises(RuntimeError, match="nobody caught this"):
        env.run()


def test_failed_wait_target_fails_process_and_reaches_waiter():
    env = Environment()
    target = env.event()
    error = ValueError("target failed")
    caught = []

    class Waiter(CallbackProcess):
        __slots__ = ()

        def _start(self, value):
            self.wait(target, self._got)

        def _got(self, value):  # pragma: no cover - the target fails
            self._finish()

    def failer(env):
        yield env.timeout(2.0)
        target.fail(error)

    def observer(env, process):
        try:
            yield process
        except ValueError as exc:
            caught.append((exc, env.now))

    waiter = Waiter(env)
    env.process(failer(env))
    env.process(observer(env, waiter))
    env.run()
    assert caught == [(error, 2.0)]
    assert not waiter.is_alive and waiter.value is error


def test_wait_on_processed_failed_event_fails_process():
    env = Environment()
    error = ValueError("failed earlier")
    failed = env.event()
    failed.fail(error)
    failed.defuse()  # processed at t=0 with nobody waiting
    caught = []

    class LateWaiter(CallbackProcess):
        __slots__ = ()

        def _start(self, value):
            self.wait_timeout(1.0, self._late)

        def _late(self, value):
            self.wait(failed, self._got)

        def _got(self, value):  # pragma: no cover - the target failed
            self._finish()

    def observer(env, process):
        try:
            yield process
        except ValueError as exc:
            caught.append((exc, env.now))

    waiter = LateWaiter(env)
    env.process(observer(env, waiter))
    env.run()
    assert failed.processed
    assert caught == [(error, 1.0)]
    assert not waiter.is_alive and waiter.value is error


def test_silent_completion_still_observable_as_processed():
    env = Environment()

    class Quiet(CallbackProcess):
        __slots__ = ()

        def _start(self, value):
            self.wait(self.env.timeout(1.0), self._end)

        def _end(self, value):
            self._finish("quiet")

    quiet = Quiet(env)
    env.run()
    # Nobody waited and no monitors were attached: the completion event
    # was skipped, but the processed state and value are intact.
    assert quiet.processed
    assert quiet.value == "quiet"


def test_completion_event_scheduled_when_monitored():
    env = Environment()
    seen = []
    env.observe("step", lambda when, event: seen.append(event))

    class Quiet(CallbackProcess):
        __slots__ = ()

        def _start(self, value):
            self._finish("watched")

    quiet = Quiet(env)
    env.run()
    assert quiet in seen  # completion went through the calendar
    assert quiet.value == "watched"


def test_active_process_is_set_during_states():
    env = Environment()
    observed = []

    class Observer(CallbackProcess):
        __slots__ = ()

        def _start(self, value):
            observed.append(env.active_process)
            self._finish()

    process = Observer(env)
    env.run()
    assert observed == [process]
    assert env.active_process is None


def test_timeout_at_lands_on_exact_accumulated_float():
    env = Environment()
    steps = [0.1, 0.2, 0.30000000000000004, 0.7]

    def reference(env):
        for step in steps:
            yield env.timeout(step)
        return env.now

    ref = env.process(reference(env))
    env.run()
    expected = ref.value

    env2 = Environment()
    when = env2.now
    for step in steps:
        when += step
    fired = []
    env2.timeout_at(when).callbacks.append(
        lambda event: fired.append(env2.now))
    env2.run()
    assert fired == [expected]


def test_timeout_at_rejects_past():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        env.timeout_at(0.5)

    env.process(proc(env))
    with pytest.raises(ValueError):
        env.run()


def test_observe_gates_follow_monitor_kinds():
    # kind -> (_schedule_fast, _unmonitored) while one callback of that
    # kind is attached.
    gates = {"step": (True, False), "schedule": (False, False),
             "resource": (True, False), "access": (True, False),
             "transfer": (True, True), "alias": (True, True)}
    env = Environment()
    probe = lambda *args, **kwargs: None
    for kind, expected in gates.items():
        env.observe(kind, probe)
        assert (env._schedule_fast, env._unmonitored) == expected, kind
        env.unobserve(kind, probe)
        assert env._schedule_fast and env._unmonitored, kind
        env.unobserve(kind, probe)  # absent: a no-op
    with pytest.raises(ValueError):
        env.observe("steps", probe)
    with pytest.raises(ValueError):
        env.unobserve("steps", probe)


def test_release_quiet_regrants_and_recycles():
    env = Environment()
    resource = Resource(env, capacity=1)
    granted = []

    def holder(env):
        request = resource.request()
        yield request
        granted.append(env.now)
        yield env.timeout(1.0)
        resource.release_quiet(request)

    def waiter(env):
        with resource.request() as grant:
            yield grant
            granted.append(env.now)
            yield env.timeout(1.0)

    env.process(holder(env))
    env.process(waiter(env))
    env.run()
    assert granted == [0.0, 1.0]
    assert resource.count == 0 and resource.queue_length == 0


def test_finished_process_is_freed_without_the_cycle_collector():
    # A process stores bound methods of itself (its wakeup edge and
    # pending state), a reference cycle while it runs.  Once finished it
    # must be freed by reference counting alone: with the cyclic
    # collector off, nothing of it may outlive the run.
    class WeakHolder(Holder):
        __slots__ = ("__weakref__",)

    env = Environment()
    resource = Resource(env, capacity=1)
    # The second holder queues behind the first: one token grant and one
    # Request grant.
    refs = [weakref.ref(WeakHolder(env, resource)) for _ in range(2)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        env.run()
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()
    assert env.now == 2.0


# -- wait_at / call_at: the timer edge ---------------------------------------


class Timed(CallbackProcess):
    """Wakes through ``wait_at`` at 1.0, then ``wait_timeout`` to 1.5.

    Records ``env.active_process is self`` in each timer state;
    ``explode`` makes the first timer state raise instead.
    """

    __slots__ = ("seen", "explode")

    def __init__(self, env, explode=False):
        self.seen = []
        self.explode = explode
        super().__init__(env)

    def _start(self, value):
        self.wait_at(1.0, self._first)

    def _first(self, value):
        self.seen.append(self.env.active_process is self)
        if self.explode:
            raise ValueError("timer state failed")
        self.wait_timeout(0.5, self._second)

    def _second(self, value):
        self.seen.append(self.env.active_process is self)
        self._finish(self.env.now)


class Note:
    """Collects what a ``call_at`` callback is called with."""

    def __init__(self):
        self.calls = []

    def fire(self, trigger):
        self.calls.append(trigger)


def test_wait_at_and_call_at_reject_the_past():
    env = Environment()
    process = Timed(env)
    env.run(until=1.2)
    with pytest.raises(ValueError, match="in the past"):
        env.call_at(1.0, Note().fire)
    with pytest.raises(ValueError, match="in the past"):
        process.wait_at(1.0, process._second)
    with pytest.raises(ValueError, match="negative delay"):
        process.wait_timeout(-0.5, process._second)
    env.run()
    assert process.value == 1.5
    # Inside a state the error fails the process like any other raise.
    env = Environment()
    env.run(until=2.0)
    late = Timed(env)
    with pytest.raises(ValueError, match="in the past"):
        env.run()
    assert not late.is_alive


@pytest.mark.parametrize("kind", (None,) + MONITOR_KINDS)
def test_active_process_is_set_in_wait_at_states(kind):
    env = Environment()
    received = []
    if kind is not None:
        env.observe(kind, lambda *args, **info: received.append(args))
    process = Timed(env)
    env.run()
    assert process.seen == [True, True]
    assert process.value == 1.5
    assert env.active_process is None
    if kind == "step":
        assert received and all(isinstance(event, Event)
                                for _, event in received)
    elif kind == "schedule":
        assert received and all(isinstance(event, Event)
                                for event, _ in received)


@pytest.mark.parametrize("monitored", [False, True])
def test_wait_at_state_failure_fails_process_and_reaches_waiter(monitored):
    env = Environment()
    if monitored:
        env.observe("step", lambda when, event: None)
    caught = []

    def waiter(env, target):
        try:
            yield target
        except ValueError as exc:
            caught.append((str(exc), env.now))

    process = Timed(env, explode=True)
    env.process(waiter(env, process))
    env.run()
    assert caught == [("timer state failed", 1.0)]
    assert not process.is_alive
    assert process.seen == [True]


def test_step_dispatches_a_raw_timer_entry():
    env = Environment()
    note = Note()
    env.call_at(1.0, note.fire)
    assert type(env._queue[0][2]) is MethodType
    env.step()
    assert env.now == 1.0
    assert note.calls == [None]


def _same_time_order(monitored):
    env = Environment()
    if monitored:
        env.observe("schedule", lambda event, process: None)
    order = []

    class Recorder:
        def fire(self, trigger):
            order.append("timer")

    def proc(env):
        yield env.timeout(1.0)
        for index in range(3):
            event = env.event()
            event.callbacks.append(lambda event, index=index:
                                   order.append(index))
            event.succeed()
        env.call_at(env.now, Recorder().fire)
        late = env.event()
        late.callbacks.append(lambda event: order.append("late"))
        late.succeed()

    env.process(proc(env))
    env.run()
    return order


def test_same_time_call_at_runs_in_eid_order():
    assert _same_time_order(False) == [0, 1, 2, "timer", "late"]
    assert _same_time_order(True) == _same_time_order(False)


def test_tie_break_seed_boxes_timers_and_stays_schedule_invariant():
    env = Environment(tie_break_seed=3)
    Timed(env)
    env.call_at(0.5, Note().fire)
    assert [type(entry[2]) for entry in env._queue] == [Timeout, Timeout]

    def scenario(tie_break_seed, trace):
        env = Environment(tie_break_seed=tie_break_seed)
        resource = Resource(env, capacity=1)
        holders = [Holder(env, resource) for _ in range(4)]
        timers = [Timed(env) for _ in range(3)]
        env.run()
        return {"released": sorted(holder.value for holder in holders),
                "timers": [timer.value for timer in timers],
                "now": env.now}

    report = assert_schedule_invariant(scenario, permutations=4)
    assert report.baseline_metrics["released"] == [1.0, 2.0, 3.0, 4.0]
