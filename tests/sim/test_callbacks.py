"""The engine's callback bookkeeping, seen from its public surface.

An event stores its first waiter without building a list and only
keeps a list from the second one on. These tests pin what that must
not change: callbacks fire once, in registration order, whatever their
number; registering on a processed event runs the callback at once;
conditions and interrupts work as before. Every test runs on the
bucketed queue, the heapq reference spec and the sanitizer's
step-by-step path.
"""

from __future__ import annotations

import pytest

from repro.sim import Interrupt, Simulator

MODES = [("bucket", False), ("heapq", False), ("bucket", True)]


@pytest.fixture(params=MODES, ids=lambda m: f"{m[0]}-debug{m[1]}")
def sim(request):
    queue, debug = request.param
    return Simulator(queue=queue, debug=debug)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_callbacks_fire_once_in_registration_order(sim, n):
    evt = sim.event()
    fired: list = []
    for i in range(n):
        evt.add_callback(lambda e, i=i: fired.append((i, e.value, sim.now)))
    assert not evt.processed
    evt.succeed("v", delay=2.0)
    sim.run()
    assert evt.processed
    assert fired == [(i, "v", 2.0) for i in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_process_waiter_after_plain_callbacks(sim, n):
    """A process yielding an event that already has callbacks resumes
    after them, in the order everything registered."""
    evt = sim.event()
    order: list = []
    for i in range(n - 1):
        evt.add_callback(lambda e, i=i: order.append(f"cb{i}"))

    def waiter():
        got = yield evt
        order.append(("proc", got))

    sim.process(waiter())
    sim.run()  # the waiter registers at its kick-off
    evt.add_callback(lambda e: order.append("late"))
    evt.succeed(5)
    sim.run()
    assert order == [f"cb{i}" for i in range(n - 1)] + [("proc", 5), "late"]


def test_add_callback_on_processed_event_runs_at_once(sim):
    evt = sim.timeout(1.0, "done")
    sim.run()
    assert evt.processed
    seen: list = []
    evt.add_callback(lambda e: seen.append(e.value))
    assert seen == ["done"]


def test_yielding_a_processed_event_resumes_at_once(sim):
    evt = sim.timeout(1.0, "early")
    trace: list = []

    def late():
        yield sim.timeout(3.0)
        got = yield evt  # already processed: no wait
        trace.append((sim.now, got))

    sim.process(late())
    sim.run()
    assert trace == [(3.0, "early")]


def test_any_of_and_all_of(sim):
    fast = sim.timeout(1.0, "fast")
    slow = sim.timeout(4.0, "slow")
    trace: list = []

    def waiter():
        first = yield sim.any_of([fast, slow])
        trace.append((sim.now, first))
        both = yield sim.all_of([fast, slow])
        trace.append((sim.now, both))

    sim.process(waiter())
    sim.run()
    assert trace == [
        (1.0, {fast: "fast"}),
        (4.0, {fast: "fast", slow: "slow"}),
    ]


def test_condition_children_keep_their_other_waiters(sim):
    child = sim.event()
    order: list = []
    child.add_callback(lambda e: order.append("own"))
    cond = sim.all_of([child])
    cond.add_callback(lambda e: order.append("cond"))
    child.succeed(1)
    sim.run()
    assert order == ["own", "cond"]
    assert cond.value == {child: 1}


def test_interrupt_detaches_a_sole_waiter(sim):
    evt = sim.event()
    trace: list = []

    def sleeper():
        try:
            yield evt
        except Interrupt as irq:
            trace.append((sim.now, "interrupted", irq.cause))

    proc = sim.process(sleeper())

    def waker():
        yield sim.timeout(1.0)
        proc.interrupt("wake")
        yield sim.timeout(1.0)
        evt.succeed("late")

    sim.process(waker())
    sim.run()
    # the late trigger fires with nobody attached and resumes nothing
    assert trace == [(1.0, "interrupted", "wake")]
    assert evt.processed and evt.value == "late"


def test_interrupt_detaches_only_its_own_waiter(sim):
    evt = sim.event()
    trace: list = []
    evt.add_callback(lambda e: trace.append(("cb", e.value)))

    def sleeper(name):
        try:
            got = yield evt
            trace.append((name, got))
        except Interrupt:
            trace.append((name, "interrupted"))

    first = sim.process(sleeper("first"))
    sim.process(sleeper("second"))

    def waker():
        yield sim.timeout(1.0)
        first.interrupt()
        evt.succeed("v")

    sim.process(waker())
    sim.run()
    assert trace == [("first", "interrupted"), ("cb", "v"), ("second", "v")]
