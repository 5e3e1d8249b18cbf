"""Runtime sanitizer: catches injected regressions, silent on clean runs."""

import heapq

import pytest

from repro.check import (
    MonotonicityError,
    ResourceLeakError,
    sanitize,
)
from repro.des import Environment, Resource, Store


def _inject_stale_event(env):
    """Corrupt the calendar: an event timestamped before the clock."""
    event = env.event()
    event._ok = True
    heapq.heappush(env._queue, (env.now - 0.5, 10 ** 9, event))


def test_clean_run_passes():
    env = Environment()
    resource = Resource(env, capacity=1)

    def worker(env):
        with resource.request() as request:
            yield request
            yield env.timeout(1.0)

    with sanitize(env) as monitor:
        env.process(worker(env))
        env.run()
    assert monitor.events_processed > 0
    assert monitor.held_requests == 0


def test_catches_injected_event_time_regression():
    env = Environment()

    def worker(env):
        yield env.timeout(2.0)

    env.process(worker(env))
    with pytest.raises(MonotonicityError):
        with sanitize(env):
            env.run()
            _inject_stale_event(env)
            env.run()


def test_monotonicity_fires_before_the_engine_guard():
    # Without the sanitizer the engine raises its own (vaguer) error;
    # under sanitize the typed error wins at the same event.
    env = Environment()
    _inject_stale_event(env)
    env._now = 1.0
    with pytest.raises(MonotonicityError):
        with sanitize(env):
            env.run()


def test_catches_injected_resource_leak():
    env = Environment()
    resource = Resource(env, capacity=2)

    def leaker(env):
        request = resource.request()
        yield request
        yield env.timeout(1.0)
        # never released

    with pytest.raises(ResourceLeakError) as excinfo:
        with sanitize(env):
            env.process(leaker(env))
            env.run()
    assert "never released" in str(excinfo.value)


def test_released_requests_do_not_leak():
    env = Environment()
    resource = Resource(env, capacity=1)

    def polite(env):
        request = resource.request()
        yield request
        yield env.timeout(0.5)
        resource.release(request)

    with sanitize(env) as monitor:
        for _ in range(3):
            env.process(polite(env))
        env.run()
    assert monitor.held_requests == 0


def test_uninstall_restores_zero_overhead_hooks():
    env = Environment()
    with sanitize(env):
        pass
    assert env._step_monitors == []
    assert env._resource_monitors == []


def test_sanitizer_does_not_mask_body_exceptions():
    env = Environment()
    resource = Resource(env, capacity=1)

    def leaker(env):
        request = resource.request()
        yield request

    with pytest.raises(RuntimeError, match="boom"):
        with sanitize(env):
            env.process(leaker(env))
            env.run()
            raise RuntimeError("boom")


def test_store_traffic_is_not_a_resource_leak():
    env = Environment()
    mailbox = Store(env)

    def producer(env):
        yield mailbox.put("message")

    def consumer(env):
        item = yield mailbox.get()
        assert item == "message"

    with sanitize(env) as monitor:
        env.process(producer(env))
        env.process(consumer(env))
        env.run()
    assert monitor.held_requests == 0
