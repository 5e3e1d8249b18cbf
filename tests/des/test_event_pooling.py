"""Event free-list recycling: the fast path must be invisible.

The engine pools processed Timeout/Release/Request instances and re-arms
them on later calls.  These tests pin the contract boundaries: recycling
only in monitor-free environments, re-armed events carry fresh state,
identity reuse never changes simulation results, and the one historically
sharp edge — cancel-then-exit on a granted Request — stays safe.
"""

from repro.des import Environment, Resource
from repro.des.engine import _POOL_LIMIT


def test_timeouts_are_recycled_and_re_armed():
    env = Environment()
    seen = []

    def proc(env):
        for index in range(10):
            timeout = env.timeout(0.5, value=index)
            seen.append(id(timeout))
            got = yield timeout
            assert got == index, "re-armed timeout must carry the new value"

    env.process(proc(env))
    env.run()
    assert env.now == 5.0
    # After the first yield returns, the free list feeds every later call.
    assert len(set(seen)) < len(seen), "pool never recycled a Timeout"
    assert len(env._timeout_pool) >= 1


def test_pool_is_bounded():
    env = Environment()

    def proc(env):
        yield env.all_of([env.timeout(1.0) for _ in range(3 * _POOL_LIMIT)])

    env.process(proc(env))
    env.run()
    assert len(env._timeout_pool) <= _POOL_LIMIT


def test_monitors_disable_recycling():
    # Every monitor kind that clears `_unmonitored` keeps processed
    # Timeouts and Releases out of the pools, run loop included.
    for kind in ("step", "schedule", "resource"):
        env = Environment()
        env.observe(kind, lambda *args: None)
        resource = Resource(env, capacity=1)

        def proc(env):
            with resource.request() as request:
                yield request
                yield env.timeout(1.0)
            for _ in range(5):
                yield env.timeout(1.0)

        env.process(proc(env))
        env.run()
        assert env._timeout_pool == [], kind
        assert env._release_pool == [], kind
        assert env._request_pool == [], kind


def test_pooled_events_arrive_with_empty_callbacks():
    env = Environment()

    def proc(env):
        for _ in range(4):
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    for event in (env._timeout_pool + env._release_pool
                  + env._request_pool):
        assert event.callbacks == [], "pool invariant: empty list"


def _contended_run(tie_break_seed=None):
    """The bench workload in miniature; returns the completion log."""
    env = Environment(tie_break_seed=tie_break_seed)
    resource = Resource(env, capacity=2)
    log = []

    def worker(env, name):
        for turn in range(20):
            with resource.request() as request:
                yield request
                yield env.timeout(0.001)
            log.append((env.now, name, turn))

    for name in range(6):
        env.process(worker(env, name))
    env.run()
    return log


def test_recycling_is_deterministic_and_invisible():
    first = _contended_run()
    second = _contended_run()
    assert first == second
    # The slow path (tie-shuffle mode disables the direct-push fast path
    # but not pooling) must serve the same requests in some complete order.
    shuffled = _contended_run(tie_break_seed=9)
    assert len(shuffled) == len(first)
    assert {entry[1:] for entry in shuffled} == {e[1:] for e in first}


def test_requests_recycle_only_after_with_block_exit():
    env = Environment()
    resource = Resource(env, capacity=1)

    def holder(env):
        with resource.request() as request:
            yield request
            # Granted and inside the with-block: the object must NOT be
            # in the free list while we still hold it.
            assert request not in env._request_pool
            yield env.timeout(1.0)
        assert request.callbacks is None or request.callbacks == []

    env.process(holder(env))
    env.run()
    assert len(env._request_pool) == 1


def test_cancel_then_exit_does_not_double_release():
    """A granted request cancelled early, then exited: the explicit
    release inside the block plus __exit__'s release must free exactly
    one slot — and never evict another holder."""
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def early_canceller(env):
        with resource.request() as request:
            yield request
            order.append("got")
            yield env.timeout(1.0)
            resource.release(request)  # explicit early release
            yield env.timeout(1.0)     # __exit__ releases again at exit
        order.append("out")

    def waiter(env):
        yield env.timeout(1.5)
        with resource.request() as request:
            yield request
            order.append("waiter-got")
            yield env.timeout(5.0)
        order.append("waiter-out")

    env.process(early_canceller(env))
    env.process(waiter(env))
    env.run()
    assert order == ["got", "waiter-got", "out", "waiter-out"]
    assert len(resource.users) == 0


def test_unyielded_request_cancel_withdraws_cleanly():
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def hesitant(env):
        with resource.request():
            # Never yield the request: __exit__ must withdraw it whether
            # or not it was already granted.
            yield env.timeout(0.5)
        log.append("abandoned")

    def steady(env):
        yield env.timeout(1.0)
        with resource.request() as request:
            yield request
            log.append("steady-got")

    env.process(hesitant(env))
    env.process(steady(env))
    env.run()
    assert log == ["abandoned", "steady-got"]
    assert len(resource.users) == 0


def test_pooling_with_value_carrying_timeouts():
    env = Environment()
    results = []

    def producer(env):
        for index in range(8):
            value = yield env.timeout(0.25, value=("payload", index))
            results.append(value)

    env.process(producer(env))
    env.run()
    assert results == [("payload", index) for index in range(8)]
