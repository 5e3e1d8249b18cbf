"""Process semantics: returns, exceptions, interrupts, waiting on processes."""

import gc
import weakref

import pytest

from repro.des import Environment, Interrupt, Process


def test_process_return_value_is_event_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return "result"

    process = env.process(proc(env))
    env.run()
    assert process.value == "result"
    assert not process.is_alive


def test_finished_process_is_freed_without_the_cycle_collector():
    # A process stores a bound method of itself (its resume edge), a
    # reference cycle while it runs.  Once its generator returns it must
    # be freed by reference counting alone.
    class WeakProcess(Process):
        __slots__ = ("__weakref__",)

    def proc(env):
        yield env.timeout(1.0)
        return "result"

    env = Environment()
    ref = weakref.ref(WeakProcess(env, proc(env)))
    enabled = gc.isenabled()
    gc.disable()
    try:
        env.run()
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    assert env.now == 1.0


def test_close_ends_parked_processes_and_empties_the_calendar():
    # A server loop parked on an event nobody triggers never finishes;
    # close() ends it, so what its frame holds is freed at once, even
    # while the event it waits on is still referenced.
    class Payload:
        pass

    env = Environment()
    request = env.event()
    payload = Payload()
    ref = weakref.ref(payload)
    closed = []

    def server(env, held):
        try:
            yield request
        finally:
            closed.append(env.now)

    def client(env):
        yield env.timeout(1.0)

    env.process(server(env, payload))
    env.process(client(env))
    del payload
    env.run(until=0.5)
    enabled = gc.isenabled()
    gc.disable()
    try:
        env.close()
        assert closed == [0.5]
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    assert env.peek() == float("inf")
    assert env.run() is None


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_process_waiting_on_process():
    env = Environment()
    log = []

    def child(env):
        yield env.timeout(2.0)
        return "child-done"

    def parent(env):
        result = yield env.process(child(env))
        log.append(result)

    env.process(parent(env))
    env.run()
    assert log == ["child-done"]
    assert env.now == 2.0


def test_process_exception_propagates_to_waiter():
    env = Environment()
    caught = []

    def child(env):
        yield env.timeout(1.0)
        raise ValueError("child failed")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["child failed"]


def test_unwaited_process_exception_surfaces_in_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise KeyError("unhandled")

    env.process(proc(env))
    with pytest.raises(KeyError):
        env.run()


def test_interrupt_delivers_cause():
    env = Environment()
    causes = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            causes.append(interrupt.cause)

    def attacker(env, victim_process):
        yield env.timeout(1.0)
        victim_process.interrupt("stop now")

    victim_process = env.process(victim(env))
    env.process(attacker(env, victim_process))
    env.run(until=victim_process)
    assert causes == ["stop now"]
    assert env.now == 1.0


def test_interrupt_dead_process_is_error():
    env = Environment()

    def quick(env):
        yield env.timeout(0.1)

    process = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        process.interrupt()


def test_process_cannot_interrupt_itself():
    env = Environment()
    errors = []

    def selfish(env):
        try:
            env.active_process.interrupt()
        except RuntimeError as exc:
            errors.append(str(exc))
        yield env.timeout(0)

    env.process(selfish(env))
    env.run()
    assert len(errors) == 1


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(10.0)
        except Interrupt:
            log.append(("interrupted", env.now))
        yield env.timeout(5.0)
        log.append(("finished", env.now))

    def attacker(env, victim_process):
        yield env.timeout(2.0)
        victim_process.interrupt()

    victim_process = env.process(victim(env))
    env.process(attacker(env, victim_process))
    env.run()
    assert log == [("interrupted", 2.0), ("finished", 7.0)]


def test_yield_non_event_is_error():
    env = Environment()

    def bad(env):
        yield "not an event"

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    log = []

    def proc(env):
        done = env.event()
        done.succeed("early")
        yield env.timeout(1.0)
        # 'done' was processed during the timeout; yielding it must not hang.
        value = yield done
        log.append((value, env.now))

    env.process(proc(env))
    env.run()
    assert log == [("early", 1.0)]


def test_active_process_visible_during_step():
    env = Environment()
    seen = []

    def proc(env):
        seen.append(env.active_process)
        yield env.timeout(0)

    process = env.process(proc(env))
    env.run()
    assert seen == [process]
    assert env.active_process is None


def test_two_processes_interleave():
    env = Environment()
    log = []

    def ticker(env, name, period):
        for _ in range(3):
            yield env.timeout(period)
            log.append((name, env.now))

    env.process(ticker(env, "fast", 1.0))
    env.process(ticker(env, "slow", 2.0))
    env.run()
    # At t=2.0 both fire; 'slow' scheduled its timeout first (at t=0) so it
    # is processed first -- ties break by scheduling order.
    assert log == [
        ("fast", 1.0), ("slow", 2.0), ("fast", 2.0),
        ("fast", 3.0), ("slow", 4.0), ("slow", 6.0),
    ]
