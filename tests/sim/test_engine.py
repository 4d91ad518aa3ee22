"""Unit tests for the discrete-event engine and events."""

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, AnyOf, Environment, Event, Interrupt


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(2.5)
    env.run()
    assert env.now == 2.5


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_run_until_time_stops_clock_exactly():
    env = Environment()
    env.timeout(10.0)
    env.run(until=3.0)
    assert env.now == 3.0


def test_timeout_nan_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(float("nan"))


def test_nan_delay_cannot_reorder_the_heap():
    # A NaN entry compares false against everything, so heapq would
    # have fired 3, nan, 1, 2 as [1.0, 2.0, nan, 3.0].
    env = Environment()
    fired = []
    for delay in (3.0, float("nan"), 1.0, 2.0):
        try:
            tmo = env.timeout(delay, value=delay)
        except SimulationError:
            continue
        tmo.callbacks.append(lambda ev: fired.append(ev.value))
    env.run()
    assert fired == [1.0, 2.0, 3.0]


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_run_until_nan_rejected():
    env = Environment()
    env.timeout(1.0)
    with pytest.raises(SimulationError):
        env.run(until=float("nan"))
    assert env.now == 0.0


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_peek_empty_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_events_fire_in_time_order():
    env = Environment()
    order = []
    for delay in (3.0, 1.0, 2.0):
        tmo = env.timeout(delay, value=delay)
        tmo.callbacks.append(lambda ev: order.append(ev.value))
    env.run()
    assert order == [1.0, 2.0, 3.0]


def test_simultaneous_events_fifo_within_same_time():
    env = Environment()
    order = []
    for tag in "abc":
        tmo = env.timeout(1.0, value=tag)
        tmo.callbacks.append(lambda ev: order.append(ev.value))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_runs_and_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        yield env.timeout(2.0)
        return "done"

    p = env.process(proc())
    env.run()
    assert env.now == 3.0
    assert p.value == "done"


def test_process_receives_timeout_value():
    env = Environment()
    got = []

    def proc():
        value = yield env.timeout(1.0, value=42)
        got.append(value)

    env.process(proc())
    env.run()
    assert got == [42]


def test_process_waits_on_process():
    env = Environment()

    def child():
        yield env.timeout(2.0)
        return 7

    def parent():
        result = yield env.process(child())
        return result * 2

    p = env.process(parent())
    env.run()
    assert p.value == 14


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(1.5)
        return "payload"

    p = env.process(proc())
    assert env.run(until=p) == "payload"
    assert env.now == 1.5


def test_run_until_failed_event_raises_even_when_already_processed():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("boom"))
    ev.defuse()
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=ev)
    assert ev.processed
    # The early exit for a processed event used to return the exception.
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=ev)


def test_run_until_never_triggering_event_raises():
    env = Environment()
    ev = env.event()
    env.timeout(1.0)
    with pytest.raises(SimulationError):
        env.run(until=ev)


def test_event_succeed_once_only():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        ev.fail("not an exception")


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_failed_event_propagates_into_process():
    env = Environment()

    class Boom(Exception):
        pass

    def proc():
        ev = env.event()
        ev.fail(Boom("x"))
        try:
            yield ev
        except Boom:
            return "caught"

    p = env.process(proc())
    env.run()
    assert p.value == "caught"


def test_unhandled_process_exception_surfaces_at_run():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise ValueError("kaput")

    env.process(proc())
    with pytest.raises(ValueError, match="kaput"):
        env.run()


def test_process_yielding_non_event_raises():
    env = Environment()

    def proc():
        yield 42

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()

    def proc():
        tmo = env.timeout(1.0, value="early")
        yield env.timeout(2.0)  # let the first timeout get processed
        value = yield tmo  # already processed; must still resume us
        return value

    p = env.process(proc())
    env.run()
    assert p.value == "early"
    assert env.now == 2.0


def test_interrupt_raises_in_target_process():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            log.append((env.now, exc.cause))

    def attacker(vproc):
        yield env.timeout(1.0)
        vproc.interrupt(cause="stop")

    v = env.process(victim())
    env.process(attacker(v))
    env.run()
    assert log == [(1.0, "stop")]
    assert not v.is_alive


def test_interrupt_dead_process_raises():
    env = Environment()

    def quick():
        yield env.timeout(0.1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_allof_collects_all_values():
    env = Environment()

    def proc():
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(2.0, value="b")
        results = yield AllOf(env, [t1, t2])
        return sorted(results.values())

    p = env.process(proc())
    env.run()
    assert p.value == ["a", "b"]
    assert env.now == 2.0


def test_anyof_triggers_on_first():
    env = Environment()

    def proc():
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        results = yield AnyOf(env, [t1, t2])
        return list(results.values())

    p = env.process(proc())
    env.run(until=p)
    assert p.value == ["fast"]
    assert env.now == 1.0


def test_event_requires_same_environment():
    env1, env2 = Environment(), Environment()

    def proc():
        yield Event(env2)

    env1.process(proc())
    with pytest.raises(SimulationError):
        env1.run()


def test_active_process_visible_during_resume():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(1.0)
        seen.append(env.active_process)

    p = env.process(proc())
    env.run()
    assert seen == [p]
    assert env.active_process is None


def test_run_until_horizon_updates_tracer_after_heap_empties():
    # Regression: when the schedule empties before the horizon, the
    # clock jumps to the horizon and the installed tracer must jump
    # with it — otherwise events recorded right after run() carry a
    # stale timestamp.
    from repro import obs

    with obs.capture() as (tracer, _):
        env = Environment()
        env.timeout(1.0)  # exhausted well before the horizon
        env.run(until=5.0)
        assert env.now == 5.0
        assert tracer.now == 5.0
        span = tracer.event("test", "after-run")
        assert span is not None and span.start == 5.0
