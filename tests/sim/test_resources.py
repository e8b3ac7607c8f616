"""Tests for Resource and Store."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Resource, Simulator, Store


def test_resource_grants_up_to_capacity(sim):
    res = Resource(sim, capacity=2)
    order = []

    def worker(sim, res, wid):
        grant = res.request()
        yield grant
        order.append((sim.now, wid))
        yield sim.timeout(10.0)
        res.release(grant)

    for wid in range(4):
        sim.process(worker(sim, res, wid))
    sim.run()
    assert order == [(0.0, 0), (0.0, 1), (10.0, 2), (10.0, 3)]


def test_resource_fifo_fairness(sim):
    res = Resource(sim, capacity=1)
    order = []

    def worker(sim, res, wid, delay):
        yield sim.timeout(delay)
        grant = res.request()
        yield grant
        order.append(wid)
        yield sim.timeout(100.0)
        res.release(grant)

    # arrival order: 0 (t=0), 1 (t=1), 2 (t=2)
    for wid in range(3):
        sim.process(worker(sim, res, wid, float(wid)))
    sim.run()
    assert order == [0, 1, 2]


def test_resource_capacity_validation(sim):
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_release_unknown_request_is_error(sim):
    res1 = Resource(sim, 1)
    res2 = Resource(sim, 1)
    grant = res1.request()
    with pytest.raises(SimulationError):
        res2.release(grant)


def test_release_queued_request_cancels_it(sim):
    res = Resource(sim, 1)
    first = res.request()
    second = res.request()
    assert res.queued == 1
    res.release(second)  # cancel while still waiting
    assert res.queued == 0
    res.release(first)
    assert res.count == 0


def test_release_granted_request_twice_is_error(sim):
    res = Resource(sim, 1)
    grant = res.request()
    res.release(grant)
    assert res.count == 0
    with pytest.raises(SimulationError):
        res.release(grant)
    assert res.count == 0


def test_cancelled_request_is_never_granted_nor_charged(sim):
    res = Resource(sim, 1)
    log = []

    def holder(sim, res):
        grant = res.request()
        yield grant
        yield sim.timeout(25.0)
        res.release(grant)

    def quitter(sim, res):
        yield sim.timeout(5.0)
        req = res.request()
        yield sim.timeout(5.0)
        res.release(req)  # gives up while still queued
        log.append(("quit", sim.now, req.triggered))

    def waiter(sim, res):
        yield sim.timeout(6.0)
        grant = yield res.request()
        log.append(("granted", sim.now))
        res.release(grant)

    sim.process(holder(sim, res))
    sim.process(quitter(sim, res))
    sim.process(waiter(sim, res))
    sim.run()
    assert log == [("quit", 10.0, False), ("granted", 25.0)]
    # only the waiter's 19 ns count; the cancelled request charged nothing
    assert res.total_wait_time == 19.0
    assert res.total_requests == 3
    assert res.count == 0 and res.queued == 0


def test_resource_counts(sim):
    res = Resource(sim, capacity=2)
    g1 = res.request()
    g2 = res.request()
    g3 = res.request()
    assert res.count == 2
    assert res.queued == 1
    res.release(g1)
    assert res.count == 2  # g3 was granted
    assert res.queued == 0
    res.release(g2)
    res.release(g3)
    assert res.count == 0


def test_resource_wait_time_accounting(sim):
    res = Resource(sim, 1)

    def holder(sim, res):
        grant = res.request()
        yield grant
        yield sim.timeout(25.0)
        res.release(grant)

    def waiter(sim, res):
        grant = res.request()
        yield grant
        res.release(grant)

    sim.process(holder(sim, res))
    sim.process(waiter(sim, res))
    sim.run()
    assert res.total_requests == 2
    assert res.total_wait_time == 25.0


def test_store_fifo_order(sim):
    store = Store(sim)
    got = []

    def producer(sim, store):
        for i in range(5):
            yield store.put(i)

    def consumer(sim, store):
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_get_blocks_until_put(sim):
    store = Store(sim)
    log = []

    def consumer(sim, store):
        item = yield store.get()
        log.append((sim.now, item))

    def producer(sim, store):
        yield sim.timeout(8.0)
        yield store.put("late")

    sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    assert log == [(8.0, "late")]


def test_bounded_store_blocks_put(sim):
    store = Store(sim, capacity=1)
    log = []

    def producer(sim, store):
        yield store.put("a")
        log.append(("a_in", sim.now))
        yield store.put("b")  # blocks until a consumed
        log.append(("b_in", sim.now))

    def consumer(sim, store):
        yield sim.timeout(10.0)
        yield store.get()

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert log == [("a_in", 0.0), ("b_in", 10.0)]


def test_store_handoff_to_waiting_getter(sim):
    """An item offered while a getter waits bypasses the buffer."""
    store = Store(sim, capacity=1)

    def consumer(sim, store):
        item = yield store.get()
        return item

    def producer(sim, store):
        yield sim.timeout(1.0)
        yield store.put("direct")

    c = sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    assert c.value == "direct"
    assert store.level == 0


def test_store_try_get(sim):
    store = Store(sim)
    assert store.try_get() is None
    store.put("x")
    assert store.try_get() == "x"
    assert store.try_get() is None


def test_store_level_and_max_level(sim):
    store = Store(sim)
    for i in range(3):
        store.put(i)
    assert store.level == 3
    assert store.max_level == 3
    store.get()
    assert store.level == 2


def test_bounded_store_level_and_putter_admission(sim):
    store = Store(sim, capacity=2)
    puts = [store.put(i) for i in range(4)]
    assert store.level == 2
    assert store.max_level == 2
    sim.run()
    assert [p.processed for p in puts] == [True, True, False, False]

    # each get frees one slot, admitting the oldest blocked putter
    got = store.get()
    assert store.level == 2
    sim.run()
    assert got.value == 0
    assert [p.processed for p in puts] == [True, True, True, False]
    assert store.try_get() == 1
    sim.run()
    assert puts[3].processed
    assert [store.try_get(), store.try_get(), store.try_get()] == [2, 3, None]
    assert store.max_level == 2
    assert (store.total_puts, store.total_gets) == (4, 1)


@pytest.mark.parametrize("debug", [False, True], ids=["fast", "debug"])
def test_succeed_on_scheduled_event_raises(debug):
    sim = Simulator(debug=debug)
    evt = sim.event()
    evt.succeed("first")
    with pytest.raises(SimulationError):
        evt.succeed("second")
    with pytest.raises(SimulationError):
        sim.timeout(3.0).succeed()
    # the scheduled-guard itself, behind the triggered check: a pending
    # event already on the queue is refused and left pending
    pending = sim.event()
    pending._scheduled = True
    with pytest.raises(SimulationError, match="already scheduled"):
        pending.succeed()
    assert not pending.triggered
    sim.run()
    assert evt.value == "first"


def test_store_capacity_validation(sim):
    with pytest.raises(SimulationError):
        Store(sim, capacity=0)


def test_store_instrumentation_counters(sim):
    store = Store(sim)
    store.put(1)
    store.put(2)
    store.get()
    assert store.total_puts == 2
    assert store.total_gets == 1
