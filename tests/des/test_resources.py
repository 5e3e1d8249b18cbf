"""Resource and Store semantics."""

import pytest

from repro.des import Environment, Resource, Store
from repro.des.resources import StoreGet


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity():
    env = Environment()
    resource = Resource(env, capacity=2)
    log = []

    def user(env, name, hold):
        with resource.request() as req:
            yield req
            log.append((name, "got", env.now))
            yield env.timeout(hold)
        log.append((name, "rel", env.now))

    env.process(user(env, "a", 2.0))
    env.process(user(env, "b", 2.0))
    env.process(user(env, "c", 1.0))
    env.run()
    # a and b enter immediately; c waits until one releases at t=2.
    assert ("a", "got", 0.0) in log
    assert ("b", "got", 0.0) in log
    assert ("c", "got", 2.0) in log
    assert ("c", "rel", 3.0) in log


def test_resource_fifo_order():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def user(env, name):
        with resource.request() as req:
            yield req
            order.append(name)
            yield env.timeout(1.0)

    for name in "abcde":
        env.process(user(env, name))
    env.run()
    assert order == list("abcde")


def test_resource_priority_order():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def holder(env):
        with resource.request() as req:
            yield req
            yield env.timeout(1.0)

    def user(env, name, priority):
        yield env.timeout(0.1)  # ensure the holder grabbed it first
        with resource.request(priority=priority) as req:
            yield req
            order.append(name)
            yield env.timeout(0.1)

    env.process(holder(env))
    env.process(user(env, "low", 5.0))
    env.process(user(env, "high", 1.0))
    env.run()
    assert order == ["high", "low"]


def test_resource_count_and_queue_length():
    env = Environment()
    resource = Resource(env, capacity=1)
    observed = []

    def holder(env):
        with resource.request() as req:
            yield req
            yield env.timeout(2.0)

    def observer(env):
        yield env.timeout(1.0)
        resource.request()  # leave waiting
        observed.append((resource.count, resource.queue_length))

    env.process(holder(env))
    env.process(observer(env))
    env.run()
    assert observed == [(1, 1)]


def test_cancel_waiting_request():
    env = Environment()
    resource = Resource(env, capacity=1)
    granted = []

    def holder(env):
        with resource.request() as req:
            yield req
            yield env.timeout(2.0)

    def canceller(env):
        yield env.timeout(0.5)
        req = resource.request()
        yield env.timeout(0.5)
        req.cancel()

    def patient(env):
        yield env.timeout(1.0)
        with resource.request() as req:
            yield req
            granted.append(env.now)

    env.process(holder(env))
    env.process(canceller(env))
    env.process(patient(env))
    env.run()
    # The cancelled request must not block 'patient'.
    assert granted == [2.0]


def test_cancel_before_grant_never_fires_and_frees_the_queue():
    env = Environment()
    resource = Resource(env, capacity=1)
    cancelled = []

    def holder(env):
        with resource.request() as req:
            yield req
            yield env.timeout(2.0)

    def canceller(env):
        yield env.timeout(0.5)
        req = resource.request()
        yield env.timeout(0.5)
        req.cancel()
        cancelled.append(req)

    env.process(holder(env))
    env.process(canceller(env))
    env.run()
    req = cancelled[0]
    # The withdrawn request's event must never fire (no phantom grant,
    # no Release routed through a server it never held).
    assert not req.triggered
    assert resource.count == 0
    assert resource.queue_length == 0


def test_cancel_after_grant_releases_and_grants_next_waiter():
    env = Environment()
    resource = Resource(env, capacity=1)
    granted = []

    def first(env):
        req = resource.request()
        yield req
        yield env.timeout(1.0)
        req.cancel()  # granted, so this is a release

    def second(env):
        yield env.timeout(0.5)
        with resource.request() as req:
            yield req
            granted.append(env.now)

    env.process(first(env))
    env.process(second(env))
    env.run()
    assert granted == [1.0]
    assert resource.count == 0


def test_cancel_granted_but_unprocessed_request():
    # The grant event has fired but the waiter has not resumed yet: the
    # server slot is genuinely occupied, so cancel must release it.
    env = Environment()
    resource = Resource(env, capacity=1)
    req = resource.request()
    assert resource.count == 1
    req.cancel()
    assert resource.count == 0
    assert resource.queue_length == 0


def test_double_cancel_is_a_no_op():
    env = Environment()
    resource = Resource(env, capacity=1)
    blocker = resource.request()
    assert blocker.triggered
    waiting = resource.request()
    waiting.cancel()
    waiting.cancel()  # second cancel must not disturb anything
    assert resource.queue_length == 0
    assert resource.count == 1
    blocker.cancel()
    blocker.cancel()
    assert resource.count == 0


def test_cancel_then_context_exit_releases_once():
    env = Environment()
    resource = Resource(env, capacity=2)
    log = []

    def early_leaver(env):
        with resource.request() as req:
            yield req
            yield env.timeout(0.5)
            req.cancel()
            yield env.timeout(0.5)
        # __exit__ ran after an explicit cancel: must not double-release.
        log.append(("left", resource.count))

    def bystander(env):
        with resource.request() as req:
            yield req
            yield env.timeout(2.0)
            log.append(("bystander-done", resource.count))

    env.process(early_leaver(env))
    env.process(bystander(env))
    env.run()
    # A double release would have evicted the bystander's slot.
    assert ("left", 1) in log
    assert ("bystander-done", 1) in log
    assert resource.count == 0


def test_store_put_get_fifo():
    env = Environment()
    store = Store(env)
    received = []

    def producer(env):
        for item in [1, 2, 3]:
            yield store.put(item)
            yield env.timeout(1.0)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == [1, 2, 3]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    times = []

    def consumer(env):
        item = yield store.get()
        times.append((item, env.now))

    def producer(env):
        yield env.timeout(5.0)
        yield store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert times == [("late", 5.0)]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env):
        yield store.put("first")
        log.append(("put-first", env.now))
        yield store.put("second")
        log.append(("put-second", env.now))

    def consumer(env):
        yield env.timeout(3.0)
        yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert log == [("put-first", 0.0), ("put-second", 3.0)]


def test_store_get_with_predicate():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        yield store.put({"seq": 1})
        yield store.put({"seq": 2})
        yield store.put({"seq": 3})

    def consumer(env):
        item = yield store.get(lambda m: m["seq"] == 2)
        got.append(item["seq"])

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == [2]
    assert [m["seq"] for m in store.items] == [1, 3]


def test_store_put_nowait_wakes_a_matching_get_without_an_event():
    # Unmonitored, an arriving item that a waiting get matches resumes
    # the waiter inside put_nowait: neither the put nor the wakeup makes
    # an event.  The consumer never finishes, so no completion id hides
    # in the count.
    env = Environment()
    store = Store(env, capacity=2)
    got = []

    def consumer(env):
        while True:
            item = yield store.get(lambda m: m["seq"] % 2 == 0)
            got.append((item["seq"], env.now))

    env.process(consumer(env))
    env.run()
    scheduled = env._eid
    store.put_nowait({"seq": 1})
    assert got == []
    store.put_nowait({"seq": 2})
    assert got == [(2, 0.0)]
    assert env._eid == scheduled
    assert not env._queue and not env._ready
    assert [m["seq"] for m in store.items] == [1]
    store.put_nowait({"seq": 3})
    with pytest.raises(RuntimeError):
        store.put_nowait({"seq": 4})


def test_store_wakeup_is_an_event_when_monitored():
    env = Environment()
    steps = []
    env.observe("step", lambda when, event: steps.append(type(event)))
    store = Store(env)
    got = []

    def consumer(env):
        got.append((yield store.get()))

    env.process(consumer(env))
    env.run()
    store.put_nowait("item")
    assert got == []
    env.run()
    assert got == ["item"]
    assert StoreGet in steps


def test_store_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)
