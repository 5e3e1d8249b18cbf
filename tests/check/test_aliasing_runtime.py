"""The zero-copy safety pass, runtime half: poisoned pools, stamps."""

import pytest

from repro.check import (
    AliasSanitizer,
    StaleViewError,
    UseAfterRecycleError,
    alias_sanitize,
)
from repro.core import build_local_swift
from repro.core.buffered import BufferedSwiftFile
from repro.des import Environment
from repro.des.resources import Resource


def _tick(env, rounds, delay=0.25):
    for _ in range(rounds):
        yield env.timeout(delay)


# -- use-after-recycle --------------------------------------------------------


def test_stale_value_read_raises_with_dual_stacks():
    env = Environment()
    holder = {}

    def worker(env):
        timeout = env.timeout(1.0, value="life-1")
        holder["t"] = timeout
        yield timeout
        yield env.timeout(1.0)  # the drain loop recycles the object here

    env.process(worker(env))
    with alias_sanitize(env) as monitor:
        env.run()
        assert monitor.events_recycled > 0
        with pytest.raises(UseAfterRecycleError) as excinfo:
            holder["t"].value
    message = str(excinfo.value)
    assert "recycled at:" in message          # stack one: the recycle site
    assert "engine.py" in message
    assert "use site" in message              # stack two: the raise itself


def test_rearm_while_referenced_is_caught_at_the_rearm():
    env = Environment()

    def worker(env):
        timeout = env.timeout(0.5)
        yield timeout
        yield env.timeout(0.5)  # `timeout` recycled by the drain loop
        # Injected bug: re-attach a waiter to the pooled object.
        timeout.callbacks.append(lambda event: None)
        yield env.timeout(0.5)  # pool pop re-arms it -> must trip

    env.process(worker(env))
    with pytest.raises(UseAfterRecycleError) as excinfo:
        with alias_sanitize(env):
            env.run()
    message = str(excinfo.value)
    assert "re-armed while 1 callback(s) still wait" in message
    assert "recycled at:" in message


def test_pooling_stays_enabled_under_the_sanitizer():
    # The point of the instrumented pools: _unmonitored must stay True so
    # the sanitizer watches the very fast path production runs use.
    env = Environment()
    env.process(_tick(env, 50))
    with alias_sanitize(env) as monitor:
        assert env._unmonitored
        env.run()
        assert env._unmonitored
        assert monitor.events_recycled > 0
        assert monitor.events_rearmed > 0


def test_uninstall_restores_plain_unpoisoned_pools():
    env = Environment()
    env.process(_tick(env, 10))
    with alias_sanitize(env):
        env.run()
    for pool in (env._timeout_pool, env._release_pool, env._request_pool):
        assert type(pool) is list
    # Parked events are readable again (poison removed at uninstall).
    for event in env._timeout_pool:
        assert not isinstance(event.value, Exception)


# -- guarded buffers ----------------------------------------------------------


def test_guarded_view_trips_on_real_flush():
    deployment = build_local_swift(num_agents=3)
    env = deployment.env
    handle = deployment.client().open("obj", "w", striping_unit=8192)
    buffered = BufferedSwiftFile(handle, buffer_size=4096)

    monitor = AliasSanitizer(env)
    monitor.install()
    try:
        buffered.write(b"A" * 64)
        monitor.adopt(buffered._write_buffer, "write-buffer")
        view = monitor.borrow(buffered._write_buffer)
        assert view.tobytes() == b"A" * 64  # fresh borrow reads fine
        buffered.write(b"B" * 64)           # in-place growth -> mutate
        assert view.stale
        with pytest.raises(StaleViewError) as excinfo:
            view.tobytes()
        message = str(excinfo.value)
        assert "borrowed at:" in message
        assert "invalidated at:" in message
        assert "mutated in place" in message

        # Re-borrow, then flush: the buffer is swapped out wholesale.
        view = monitor.borrow(buffered._write_buffer)
        buffered.flush()
        with pytest.raises(StaleViewError) as excinfo:
            len(view)
        assert "retired" in str(excinfo.value)
    finally:
        monitor.uninstall()


def test_borrow_requires_adoption():
    env = Environment()
    monitor = AliasSanitizer(env)
    monitor.install()
    try:
        with pytest.raises(ValueError):
            monitor.borrow(bytearray(4))
    finally:
        monitor.uninstall()


# -- pooled-event edge cases the sanitizer must bless -------------------------


def test_cancel_then_exit_recycle_is_clean():
    env = Environment()
    resource = Resource(env, capacity=1)

    def holder(env, resource):
        with resource.request() as request:
            yield request
            yield env.timeout(10.0)

    def canceller(env, resource):
        for _ in range(5):
            with resource.request() as request:
                request.cancel()  # withdrawn before the grant
                yield env.timeout(0.5)

    def churner(env, resource):
        yield env.timeout(11.0)  # after the holder releases
        for _ in range(5):
            with resource.request() as request:
                yield request
                yield env.timeout(0.1)

    env.process(holder(env, resource))
    env.process(canceller(env, resource))
    env.process(churner(env, resource))
    with alias_sanitize(env) as monitor:
        env.run()
    # Cancelled requests are never pooled; granted-with-block ones are.
    assert monitor.events_recycled > 0


def test_monitor_attached_mid_run_suspends_pooling_cleanly():
    env = Environment()
    stepped = []

    def attach_later(env):
        yield env.timeout(1.0)
        env.observe("step", lambda when, event: stepped.append(when))
        yield env.timeout(1.0)

    env.process(attach_later(env))
    env.process(_tick(env, 20))
    with alias_sanitize(env) as monitor:
        env.run()
    assert stepped  # the monitor really attached mid-run
    assert monitor.events_recycled > 0  # pooling ran before the attach


def test_drain_to_empty_run_is_clean():
    env = Environment()
    resource = Resource(env, capacity=2)

    def worker(env, resource):
        for _ in range(10):
            with resource.request() as request:
                yield request
                yield env.timeout(0.05)

    for _ in range(4):
        env.process(worker(env, resource))
    with alias_sanitize(env) as monitor:
        env.run()  # until=None: the inlined drain-to-empty loop
    assert monitor.events_recycled > 0
    assert monitor.events_rearmed > 0


# -- bit-identity -------------------------------------------------------------


def _roundtrip(sanitized: bool):
    deployment = build_local_swift(num_agents=3)
    env = deployment.env
    handle = deployment.client().open("obj", "w", striping_unit=4096)
    payload = bytes(range(256)) * 64
    if sanitized:
        with alias_sanitize(env):
            handle.pwrite(0, payload)
            data = handle.pread(0, len(payload))
    else:
        handle.pwrite(0, payload)
        data = handle.pread(0, len(payload))
    return data, env.now


def test_sanitized_run_is_bit_identical():
    plain = _roundtrip(sanitized=False)
    sanitized = _roundtrip(sanitized=True)
    assert plain == sanitized
