"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import AllOf, AnyOf, Interrupt, Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_timeout_advances_clock(sim):
    log = []

    def proc(sim):
        yield sim.timeout(10.0)
        log.append(sim.now)
        yield sim.timeout(5.5)
        log.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert log == [10.0, 15.5]


def test_timeout_carries_value(sim):
    def proc(sim):
        value = yield sim.timeout(1.0, value="payload")
        return value

    assert sim.run_process(proc(sim)) == "payload"


def test_negative_timeout_rejected(sim):
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_run_until_stops_clock_exactly(sim):
    def proc(sim):
        while True:
            yield sim.timeout(10.0)

    sim.process(proc(sim))
    assert sim.run(until=35.0) == 35.0
    assert sim.now == 35.0


def test_run_until_past_is_error(sim):
    sim.run(until=10.0)
    with pytest.raises(SimulationError):
        sim.run(until=5.0)


def test_event_succeed_delivers_value(sim):
    evt = sim.event()

    def waiter(sim, evt):
        value = yield evt
        return value

    def trigger(sim, evt):
        yield sim.timeout(3.0)
        evt.succeed(42)

    p = sim.process(waiter(sim, evt))
    sim.process(trigger(sim, evt))
    sim.run()
    assert p.value == 42
    assert sim.now == 3.0


def test_event_fail_raises_in_waiter(sim):
    evt = sim.event()

    def waiter(sim, evt):
        try:
            yield evt
        except ValueError as exc:
            return f"caught {exc}"

    def trigger(sim, evt):
        yield sim.timeout(1.0)
        evt.fail(ValueError("boom"))

    p = sim.process(waiter(sim, evt))
    sim.process(trigger(sim, evt))
    sim.run()
    assert p.value == "caught boom"


def test_event_double_trigger_rejected(sim):
    evt = sim.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)
    with pytest.raises(SimulationError):
        evt.fail(RuntimeError("x"))


def test_fail_requires_exception(sim):
    with pytest.raises(SimulationError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_succeed_negative_delay_leaves_event_pending(sim):
    evt = sim.event()
    with pytest.raises(SimulationError, match="past"):
        evt.succeed(1, delay=-1.0)
    # the rejected trigger must not have consumed the event: it is
    # still pending and can be triggered for real
    assert not evt.triggered
    evt.succeed(2)
    sim.run()
    assert evt.value == 2


def test_fail_negative_delay_leaves_event_pending(sim):
    evt = sim.event()
    with pytest.raises(SimulationError, match="past"):
        evt.fail(RuntimeError("boom"), delay=-0.5)
    assert not evt.triggered
    evt.succeed(7)
    sim.run()
    assert evt.value == 7


def test_value_before_trigger_is_error(sim):
    with pytest.raises(SimulationError):
        _ = sim.event().value


def test_process_return_value(sim):
    def proc(sim):
        yield sim.timeout(1.0)
        return "done"

    assert sim.run_process(proc(sim)) == "done"


def test_process_exception_propagates(sim):
    def proc(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("kaput")

    with pytest.raises(RuntimeError, match="kaput"):
        sim.run_process(proc(sim))


def test_process_waits_for_child_process(sim):
    def child(sim):
        yield sim.timeout(7.0)
        return 99

    def parent(sim):
        result = yield sim.process(child(sim))
        return (sim.now, result)

    assert sim.run_process(parent(sim)) == (7.0, 99)


def test_yield_non_event_is_error(sim):
    def proc(sim):
        yield "garbage"

    with pytest.raises(SimulationError, match="non-event"):
        sim.run_process(proc(sim))


def test_deterministic_tie_break_order(sim):
    """Events at the same instant fire in scheduling order."""
    log = []

    def proc(sim, tag):
        yield sim.timeout(5.0)
        log.append(tag)

    for tag in ("a", "b", "c"):
        sim.process(proc(sim, tag))
    sim.run()
    assert log == ["a", "b", "c"]


def test_two_runs_replay_identically():
    def world(sim, log):
        def worker(n):
            for i in range(3):
                yield sim.timeout(n + 0.5)
                log.append((sim.now, n, i))

        for n in range(4):
            sim.process(worker(n))

    log1, log2 = [], []
    s1, s2 = Simulator(), Simulator()
    world(s1, log1)
    world(s2, log2)
    s1.run()
    s2.run()
    assert log1 == log2


def test_anyof_fires_on_first(sim):
    def proc(sim):
        t_fast = sim.timeout(2.0, value="fast")
        t_slow = sim.timeout(9.0, value="slow")
        results = yield AnyOf(sim, [t_fast, t_slow])
        return (sim.now, list(results.values()))

    assert sim.run_process(proc(sim)) == (2.0, ["fast"])


def test_allof_waits_for_all(sim):
    def proc(sim):
        events = [sim.timeout(t, value=t) for t in (3.0, 1.0, 2.0)]
        results = yield AllOf(sim, events)
        return (sim.now, sorted(results.values()))

    assert sim.run_process(proc(sim)) == (3.0, [1.0, 2.0, 3.0])


def test_allof_empty_fires_immediately(sim):
    def proc(sim):
        yield AllOf(sim, [])
        return sim.now

    assert sim.run_process(proc(sim)) == 0.0


def test_interrupt_raises_in_target(sim):
    def victim(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            return ("interrupted", intr.cause, sim.now)

    def attacker(sim, target):
        yield sim.timeout(4.0)
        target.interrupt(cause="stop")

    v = sim.process(victim(sim))
    sim.process(attacker(sim, v))
    sim.run()
    assert v.value == ("interrupted", "stop", 4.0)


def test_interrupt_dead_process_is_error(sim):
    def quick(sim):
        yield sim.timeout(1.0)

    def attacker(sim, target):
        yield sim.timeout(5.0)
        target.interrupt()

    q = sim.process(quick(sim))
    a = sim.process(attacker(sim, q))
    with pytest.raises(SimulationError):
        sim.run()
    del a


def test_is_alive_tracks_lifetime(sim):
    def proc(sim):
        yield sim.timeout(2.0)

    p = sim.process(proc(sim))
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_run_process_detects_deadlock(sim):
    def stuck(sim):
        yield sim.event()  # never triggered

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(stuck(sim))


def test_reentrant_run_rejected(sim):
    def proc(sim):
        yield sim.timeout(1.0)
        sim.run()

    with pytest.raises(SimulationError, match="re-entrant"):
        sim.run_process(proc(sim))


def test_peek_reports_next_event_time(sim):
    assert sim.peek() == float("inf")
    sim.timeout(12.0)
    assert sim.peek() == 12.0


def test_step_on_empty_heap_raises_simulation_error(sim):
    with pytest.raises(SimulationError, match="empty event heap"):
        sim.step()
    # after draining, too
    sim.timeout(1.0)
    sim.run()
    with pytest.raises(SimulationError, match="empty event heap"):
        sim.step()


def test_callback_after_processed_runs_immediately(sim):
    evt = sim.timeout(1.0, value="x")
    sim.run()
    seen = []
    evt.add_callback(lambda e: seen.append(e.value))
    assert seen == ["x"]


def test_cross_simulator_wait_rejected(sim):
    other = Simulator()
    foreign = other.timeout(1.0)

    def proc(sim):
        yield foreign

    with pytest.raises(SimulationError):
        sim.run_process(proc(sim))
