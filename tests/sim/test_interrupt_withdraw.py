"""Interrupting a process, or a condition firing without one of its
children, withdraws the store or resource wait left behind.

A process interrupted while waiting on a ``Store.get()``, a full
store's ``Store.put()`` or a queued ``Resource.request()`` must leave
that queue: otherwise the next put hands its item to the abandoned
getter (the item is lost), the abandoned put's item still enters the
store, or the abandoned request is granted a slot nobody will ever
release. The same holds for such a wait that loses an ``any_of`` (or
is still pending when an ``all_of`` fails) and has no other waiter.
A get already handed its item at the same instant, but not yet fired,
gives the item back to the store's head or to the next waiting getter;
a request already granted its slot gives the slot to the next queued
request or frees it.
Each scenario runs on the bucketed queue, the heapq reference spec and
the sanitizer's step-by-step path.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim import Interrupt, Resource, Simulator, Store

#: (queue kind, debug) of every run
MODES = [("bucket", False), ("heapq", False), ("bucket", True)]


def _quits_on_interrupt(sim, wait, log, name):
    """A process that waits on ``wait()`` and returns when interrupted."""

    def body():
        try:
            got = yield wait()
        except Interrupt as irq:
            log.append((sim.now, name, "interrupted", irq.cause))
            return
        log.append((sim.now, name, "got", got))

    return sim.process(body(), name=name)


def _interrupt_at(sim, target, when):
    def body():
        yield sim.timeout(when)
        target.interrupt("stop")

    sim.process(body())


@pytest.mark.parametrize("queue,debug", MODES)
def test_interrupted_getter_does_not_swallow_the_next_item(queue, debug):
    sim = Simulator(queue=queue, debug=debug)
    box = Store(sim, name="box")
    log: list = []
    sleeper = _quits_on_interrupt(sim, box.get, log, "sleeper")
    _interrupt_at(sim, sleeper, 1.0)

    def live():
        yield sim.timeout(2.0)
        item = yield box.get()
        log.append((sim.now, "live", "got", item))

    def producer():
        yield sim.timeout(3.0)
        yield box.put("item")

    sim.process(live())
    sim.process(producer())
    sim.run()
    assert log == [
        (1.0, "sleeper", "interrupted", "stop"),
        (3.0, "live", "got", "item"),
    ]
    assert box.level == 0
    assert len(box._getters) == 0


@pytest.mark.parametrize("queue,debug", MODES)
def test_interrupted_putter_never_delivers_its_item(queue, debug):
    sim = Simulator(queue=queue, debug=debug)
    box = Store(sim, capacity=1, name="box")
    box.put("first")  # fills the store
    log: list = []
    putter = _quits_on_interrupt(sim, lambda: box.put("dropped"), log, "putter")
    _interrupt_at(sim, putter, 1.0)

    def consumer():
        yield sim.timeout(2.0)
        for _ in range(2):
            item = yield box.get()
            log.append((sim.now, "consumer", "got", item))

    def late_producer():
        yield sim.timeout(3.0)
        yield box.put("second")

    sim.process(consumer())
    sim.process(late_producer())
    sim.run()
    assert log == [
        (1.0, "putter", "interrupted", "stop"),
        (2.0, "consumer", "got", "first"),
        (3.0, "consumer", "got", "second"),
    ]
    assert box.level == 0
    assert len(box._putters) == 0


@pytest.mark.parametrize("queue,debug", MODES)
def test_interrupted_requester_is_never_granted(queue, debug):
    sim = Simulator(queue=queue, debug=debug)
    slot = Resource(sim, capacity=1, name="slot")
    log: list = []

    def holder():
        req = slot.request()
        yield req
        yield sim.timeout(5.0)
        slot.release(req)

    def third():
        yield sim.timeout(2.0)
        req = slot.request()
        yield req
        log.append((sim.now, "third", "granted"))
        slot.release(req)

    sim.process(holder())
    waiter = _quits_on_interrupt(sim, slot.request, log, "waiter")
    _interrupt_at(sim, waiter, 1.0)
    sim.process(third())
    sim.run()
    assert log == [
        (1.0, "waiter", "interrupted", "stop"),
        (5.0, "third", "granted"),
    ]
    assert (slot.count, slot.queued) == (0, 0)
    # only the third requester waited (3 ns); the withdrawn one charged nothing
    assert slot.total_wait_time == 3.0


@pytest.mark.parametrize("queue,debug", MODES)
def test_release_after_withdrawal_is_a_no_op(queue, debug):
    """The usual ``try``/``finally`` release still works when the
    interrupt lands while the request is queued."""
    sim = Simulator(queue=queue, debug=debug)
    slot = Resource(sim, capacity=1)
    held = slot.request()

    def careful():
        req = slot.request()
        try:
            yield req
        finally:
            slot.release(req)

    proc = sim.process(careful())
    _interrupt_at(sim, proc, 1.0)
    # the interrupt escapes `careful` and surfaces from run()
    with pytest.raises(Interrupt):
        sim.run()
    assert (slot.count, slot.queued) == (1, 0)
    slot.release(held)
    assert slot.count == 0
    with pytest.raises(SimulationError):
        slot.release(held)


@pytest.mark.parametrize("queue,debug", MODES)
def test_shared_wait_is_kept_while_another_waiter_remains(queue, debug):
    """Only the last waiter's interrupt withdraws the event."""
    sim = Simulator(queue=queue, debug=debug)
    box = Store(sim)
    getter = box.get()
    log: list = []

    def waiter(name):
        try:
            got = yield getter
        except Interrupt:
            log.append((sim.now, name, "interrupted"))
            return
        log.append((sim.now, name, got))

    first = sim.process(waiter("first"))
    sim.process(waiter("second"))
    _interrupt_at(sim, first, 1.0)

    def producer():
        yield sim.timeout(2.0)
        yield box.put("item")

    sim.process(producer())
    sim.run()
    assert log == [(1.0, "first", "interrupted"), (2.0, "second", "item")]


@pytest.mark.parametrize("queue,debug", MODES)
def test_getter_losing_an_any_of_does_not_swallow_the_next_item(queue, debug):
    sim = Simulator(queue=queue, debug=debug)
    box = Store(sim, name="box")
    log: list = []

    def reader():
        fired = yield sim.any_of([box.get(), sim.timeout(1.0)])
        log.append((sim.now, "any_of", list(fired.values())))
        item = yield box.get()
        log.append((sim.now, "got", item))

    def producer():
        yield sim.timeout(2.0)
        yield box.put("x")

    sim.process(reader())
    sim.process(producer())
    sim.run()
    assert log == [(1.0, "any_of", [None]), (2.0, "got", "x")]
    assert box.level == 0
    assert len(box._getters) == 0


@pytest.mark.parametrize("queue,debug", MODES)
def test_put_and_request_losing_a_condition_are_withdrawn(queue, debug):
    """A full store's put loses an ``any_of``; a queued request is still
    pending when an ``all_of`` fails. Neither takes effect later."""
    sim = Simulator(queue=queue, debug=debug)
    box = Store(sim, capacity=1)
    box.put("first")
    slot = Resource(sim, capacity=1)
    held = slot.request()
    log: list = []

    def putter():
        yield sim.any_of([box.put("dropped"), sim.timeout(1.0)])
        log.append((sim.now, "put gave up"))

    def requester():
        failing = sim.event()
        failing.fail(ValueError("boom"), delay=1.0)
        try:
            yield sim.all_of([slot.request(), failing])
        except ValueError:
            log.append((sim.now, "request gave up"))

    def consumer():
        yield sim.timeout(2.0)
        item = yield box.get()
        log.append((sim.now, "got", item))
        slot.release(held)
        log.append((sim.now, "level", box.level, "queued", slot.queued))

    sim.process(putter())
    sim.process(requester())
    sim.process(consumer())
    sim.run()
    assert log == [
        (1.0, "put gave up"),
        (1.0, "request gave up"),
        (2.0, "got", "first"),
        (2.0, "level", 0, "queued", 0),
    ]
    assert (slot.count, len(box._putters)) == (0, 0)


@pytest.mark.parametrize("queue,debug", MODES)
def test_losing_wait_with_another_waiter_is_kept(queue, debug):
    """A child the condition shares with a process stays queued."""
    sim = Simulator(queue=queue, debug=debug)
    box = Store(sim)
    getter = box.get()
    log: list = []

    def racer():
        yield sim.any_of([getter, sim.timeout(1.0)])
        log.append((sim.now, "racer", "timed out"))

    def patient():
        item = yield getter
        log.append((sim.now, "patient", item))

    def producer():
        yield sim.timeout(2.0)
        yield box.put("item")

    sim.process(racer())
    sim.process(patient())
    sim.process(producer())
    sim.run()
    assert log == [(1.0, "racer", "timed out"), (2.0, "patient", "item")]


# -- a get withdrawn after it was handed its item, before it fired -------


@pytest.mark.parametrize("queue,debug", MODES)
def test_interrupt_after_the_hand_off_gives_the_item_back(queue, debug):
    """``box.put('y')`` hands 'y' to the sleeper's get, and the interrupt
    in the same frame lands before that get fires: 'y' goes back to the
    store, and the stale get fires with no waiter."""
    sim = Simulator(queue=queue, debug=debug)
    box = Store(sim, name="box")
    log: list = []
    sleeper = _quits_on_interrupt(sim, box.get, log, "sleeper")

    def kicker():
        yield sim.timeout(1.0)
        box.put("y")
        sleeper.interrupt("stop")
        log.append((sim.now, "level", box.level))

    def late():
        yield sim.timeout(2.0)
        item = yield box.get()
        log.append((sim.now, "late", "got", item))

    sim.process(kicker())
    sim.process(late())
    sim.run()
    assert log == [
        (1.0, "level", 1),
        (1.0, "sleeper", "interrupted", "stop"),
        (2.0, "late", "got", "y"),
    ]
    assert box.level == 0 and len(box._getters) == 0


@pytest.mark.parametrize("queue,debug", MODES)
def test_get_losing_an_any_of_after_the_hand_off_gives_the_item_back(queue, debug):
    """The putter's 1 ns timeout fires first and hands 'x' to the
    waiter's get; the waiter's own timeout then wins the ``any_of``
    before the get fires, so 'x' goes back to the store."""
    sim = Simulator(queue=queue, debug=debug)
    box = Store(sim, name="box")
    log: list = []

    def putter():
        yield sim.timeout(1.0)
        yield box.put("x")

    def waiter():
        fired = yield sim.any_of([sim.timeout(1.0), box.get()])
        log.append((sim.now, "any_of", list(fired.values())))
        item = yield box.get()
        log.append((sim.now, "got", item))

    sim.process(putter())
    sim.process(waiter())
    sim.run()
    assert log == [(1.0, "any_of", [None]), (1.0, "got", "x")]
    assert box.level == 0 and len(box._getters) == 0


@pytest.mark.parametrize("queue,debug", MODES)
def test_given_back_item_goes_to_the_next_waiting_getter(queue, debug):
    sim = Simulator(queue=queue, debug=debug)
    box = Store(sim, name="box")
    log: list = []
    first = _quits_on_interrupt(sim, box.get, log, "first")
    _quits_on_interrupt(sim, box.get, log, "second")

    def kicker():
        yield sim.timeout(1.0)
        box.put("y")
        first.interrupt("stop")

    sim.process(kicker())
    sim.run()
    # the hand-on is queued before the interrupt, in the same frame
    assert log == [
        (1.0, "second", "got", "y"),
        (1.0, "first", "interrupted", "stop"),
    ]
    assert box.level == 0 and len(box._getters) == 0


@pytest.mark.parametrize("queue,debug", MODES)
def test_given_back_item_can_take_a_bounded_store_one_over_capacity(queue, debug):
    """'x' is handed to the sleeper's get, 'z' then fills the one-slot
    buffer, and the interrupt gives 'x' back to its head: the store
    holds two items, one over its capacity. A waiting putter is
    admitted only once gets bring the level back under capacity."""
    sim = Simulator(queue=queue, debug=debug)
    box = Store(sim, capacity=1, name="box")
    log: list = []
    sleeper = _quits_on_interrupt(sim, box.get, log, "sleeper")

    def kicker():
        yield sim.timeout(1.0)
        box.put("x")
        box.put("z")
        sleeper.interrupt("stop")
        log.append((sim.now, "level", box.level))
        yield box.put("w")
        log.append((sim.now, "w accepted", box.level))

    def consumer():
        yield sim.timeout(2.0)
        for _ in range(3):
            item = yield box.get()
            log.append((sim.now, "got", item, box.level))

    sim.process(kicker())
    sim.process(consumer())
    sim.run()
    assert log == [
        (1.0, "level", 2),
        (1.0, "sleeper", "interrupted", "stop"),
        (2.0, "got", "x", 1),
        # taking 'z' admits 'w' in the same frame
        (2.0, "got", "z", 1),
        (2.0, "w accepted", 0),
        (2.0, "got", "w", 0),
    ]
    assert box.max_level == 2
    assert len(box._putters) == 0 and len(box._getters) == 0


@pytest.mark.parametrize("queue,debug", MODES)
def test_request_losing_an_any_of_after_the_grant_frees_the_slot(queue, debug):
    """The holder's 1 ns timeout fires first and releases the slot,
    granting the waiter's request; the waiter's own timeout then wins
    the ``any_of`` before that grant fires. The slot is freed, the
    stale grant fires with no waiter, and releasing it is a no-op."""
    sim = Simulator(queue=queue, debug=debug)
    slot = Resource(sim, capacity=1, name="slot")
    held = slot.request()
    log: list = []

    def holder():
        yield sim.timeout(1.0)
        slot.release(held)

    def waiter():
        req = slot.request()
        try:
            got = yield sim.any_of([sim.timeout(1.0), req])
            log.append((sim.now, "granted" if req in got else "gave up",
                        slot.count))
        finally:
            slot.release(req)

    def late():
        yield sim.timeout(2.0)
        req = slot.request()
        yield req
        log.append((sim.now, "late", "granted", slot.count))
        slot.release(req)

    sim.process(holder())
    sim.process(waiter())
    sim.process(late())
    sim.run()
    assert log == [(1.0, "gave up", 0), (2.0, "late", "granted", 1)]
    assert (slot.count, slot.queued) == (0, 0)


@pytest.mark.parametrize("queue,debug", MODES)
def test_interrupt_after_the_grant_passes_the_slot_on(queue, debug):
    """``slot.release(held)`` grants the waiter's queued request, and
    the interrupt in the same frame lands before that grant fires: the
    slot goes on to the next queued request at the same instant."""
    sim = Simulator(queue=queue, debug=debug)
    slot = Resource(sim, capacity=1, name="slot")
    held = slot.request()
    log: list = []
    waiter = _quits_on_interrupt(sim, slot.request, log, "waiter")

    def third():
        yield sim.timeout(0.5)
        req = slot.request()
        yield req
        log.append((sim.now, "third", "granted", slot.count))
        slot.release(req)

    def kicker():
        yield sim.timeout(1.0)
        slot.release(held)
        waiter.interrupt("stop")
        log.append((sim.now, "count", slot.count, "queued", slot.queued))

    sim.process(third())
    sim.process(kicker())
    sim.run()
    assert log == [
        (1.0, "count", 1, "queued", 0),
        # the grant to the third was queued before the interrupt
        (1.0, "third", "granted", 1),
        (1.0, "waiter", "interrupted", "stop"),
    ]
    assert (slot.count, slot.queued) == (0, 0)
