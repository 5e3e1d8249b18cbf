"""Kernel edge cases beyond the basic semantics tests."""

import pytest

from repro.des import (
    Environment,
    EmptySchedule,
    Event,
    Resource,
    Store,
)


def test_run_until_already_processed_event():
    env = Environment()
    event = env.event()
    event.succeed("early")
    env.run()  # processes it
    assert env.run(until=event) == "early"


def test_run_until_event_never_triggered_raises():
    env = Environment()
    target = env.event()
    env.timeout(1.0)  # something to drain
    with pytest.raises(RuntimeError, match="never triggered"):
        env.run(until=target)


def test_any_of_with_failed_event_propagates():
    env = Environment()
    caught = []

    def failer(env):
        yield env.timeout(1.0)
        raise ValueError("bad")

    def waiter(env):
        try:
            yield env.any_of([env.process(failer(env)), env.timeout(10.0)])
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter(env))
    env.run()
    assert caught == ["bad"]


def test_all_of_value_preserves_completion_order():
    env = Environment()
    order = []

    def waiter(env):
        slow = env.timeout(2.0, "slow")
        fast = env.timeout(1.0, "fast")
        values = yield env.all_of([slow, fast])
        order.extend(values.values())

    env.process(waiter(env))
    env.run()
    assert order == ["fast", "slow"]


def test_store_purge_removes_matching():
    env = Environment()
    store = Store(env)
    for value in range(6):
        store.put(value)
    env.run()
    removed = store.purge(lambda v: v % 2 == 0)
    assert removed == 3
    assert store.items == [1, 3, 5]


def test_store_get_cancel_is_idempotent_after_fire():
    env = Environment()
    store = Store(env)
    store.put("item")
    get = store.get()
    env.run()
    assert get.value == "item"
    get.cancel()  # no-op: already satisfied
    assert store.size == 0


def test_nested_all_of_conditions():
    env = Environment()
    results = []

    def waiter(env):
        inner = env.all_of([env.timeout(1.0, "a"), env.timeout(2.0, "b")])
        outer = env.all_of([inner, env.timeout(3.0, "c")])
        values = yield outer
        results.append(len(values))

    env.process(waiter(env))
    env.run()
    assert results == [2]
    assert env.now == 3.0


def test_resource_released_by_exception_in_with_block():
    env = Environment()
    resource = Resource(env, capacity=1)
    got = []

    def crasher(env):
        with resource.request() as req:
            yield req
            raise RuntimeError("boom")

    def patient(env):
        yield env.timeout(0.1)
        with resource.request() as req:
            yield req
            got.append(env.now)

    crash_process = env.process(crasher(env))
    env.process(patient(env))
    with pytest.raises(RuntimeError):
        env.run()
    env.run()  # continue after the failure surfaced
    assert got == [0.1]


def test_event_defuse_inside_condition():
    # A condition defuses its failed member; the member's failure must not
    # also escape via step().
    env = Environment()

    def failer(env):
        yield env.timeout(1.0)
        raise KeyError("inner")

    def watcher(env):
        try:
            yield env.all_of([env.process(failer(env))])
        except KeyError:
            pass

    env.process(watcher(env))
    env.run()  # no raise


def test_clock_never_goes_backwards():
    env = Environment()
    stamps = []

    def ticker(env):
        for delay in [0.5, 0.0, 1.5, 0.0, 0.25]:
            yield env.timeout(delay)
            stamps.append(env.now)

    env.process(ticker(env))
    env.run()
    assert stamps == sorted(stamps)


def test_step_after_drain_raises_empty():
    env = Environment()
    env.timeout(1.0)
    env.run()
    with pytest.raises(EmptySchedule):
        env.step()


def test_event_repr_states():
    env = Environment()
    event = Event(env)
    assert "pending" in repr(event)
    event.succeed()
    assert "triggered" in repr(event)
    env.run()
    assert "processed" in repr(event)
