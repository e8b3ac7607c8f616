"""Differential test of the engine's zero-delay hand-offs.

Store puts and gets, resource grants, process kick-off and exit and
``Simulator.event()`` all build their event and queue it in the frame
that triggers it. One mixed scenario drives every such site, and its
fire trace must be identical on the bucketed queue, the heapq reference
spec and the sanitizer's step-by-step path. The scenario also withdraws
a blocked get, put and request by interrupting their processes. A second
group checks that re-triggering an event through those sites is still
refused.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim import Interrupt, Resource, Simulator, Store

#: (queue kind, debug) of every run the scenario is compared across
MODES = [("bucket", False), ("heapq", False), ("bucket", True), ("heapq", True)]


def _scenario(queue: str, debug: bool) -> list:
    """Run the mixed scenario; return its fire trace.

    Each entry is ``(now, kind, value)``, appended by a callback on the
    event as it fires, so the trace is the fire order of every watched
    event. It ends with the final clock and ``events_scheduled``.
    """
    sim = Simulator(queue=queue, debug=debug)
    box = Store(sim, capacity=2, name="box")
    mailbox = Store(sim, name="mailbox")
    slot = Resource(sim, capacity=1, name="slot")
    # what the deserters block on: an empty store, a full one, a held lock
    inbox = Store(sim, name="inbox")
    full = Store(sim, capacity=1, name="full")
    full.put("kept")
    lock = Resource(sim, capacity=1, name="lock")
    trace: list = []

    def watch(evt, kind, value=None):
        def record(e):
            if value is not None:
                shown = value
            elif e.ok:
                shown = e.value
            else:
                shown = repr(e.value)
            trace.append((sim.now, kind, shown))

        evt.add_callback(record)
        return evt

    def consumer(name, n, pause):
        for _ in range(n):
            yield watch(box.get(), f"{name}.get")
            if pause:
                yield sim.timeout(pause)

    def producer(name, items, pause):
        for item in items:
            yield watch(box.put(item), f"{name}.put", item)
            yield sim.timeout(pause)

    def poller():
        # non-blocking gets free a slot for a waiting putter
        for _ in range(4):
            yield sim.timeout(2.5)
            trace.append((sim.now, "try_get", box.try_get()))

    def worker(name, hold, start):
        yield sim.timeout(start)
        for _ in range(2):
            req = slot.request()
            yield watch(req, f"{name}.grant", name)
            yield sim.timeout(hold)
            slot.release(req)

    def quitter():
        # queues behind the holders, then gives up before its grant
        yield sim.timeout(0.5)
        req = watch(slot.request(), "quitter.grant", "quitter")
        yield sim.timeout(1.0)
        slot.release(req)
        trace.append((sim.now, "cancel", slot.queued))

    def child(i, delay):
        if delay:
            yield sim.timeout(delay)
        return i * 10

    def instant(i):
        # exits in its kick-off, before any yield
        return -i
        yield  # pragma: no cover - makes this a generator

    def spawner():
        for i in range(3):
            yield watch(sim.process(child(i, 0.75 * i)), "join")
            yield watch(sim.process(instant(i)), "join")
        kids = [sim.process(child(i, 1.25)) for i in range(3, 6)]
        for kid in kids:
            yield watch(kid, "join")

    def sleeper():
        try:
            yield watch(mailbox.get(), "mailbox.get")
        except Interrupt as irq:
            trace.append((sim.now, "interrupted", irq.cause))
            return "woken"

    def deserter(name, wait):
        # interrupted while blocked: its get, put or request is withdrawn
        # (unwatched: a watching callback would be a waiter that stays)
        try:
            got = yield wait()
            trace.append((sim.now, "withdrawn wait fired", (name, got)))
        except Interrupt:
            trace.append((sim.now, "deserted", name))

    def lock_holder():
        req = lock.request()
        yield req
        yield sim.timeout(2.25)
        lock.release(req)

    def after_desertion():
        # every queue the deserters left serves the next user in full
        yield sim.timeout(2.0)
        yield watch(inbox.put("mail"), "inbox.put", "mail")
        yield watch(inbox.get(), "inbox.get")
        yield watch(full.get(), "full.get")
        yield watch(full.put("fresh"), "full.put", "fresh")
        yield watch(full.get(), "full.get")
        req = lock.request()
        yield watch(req, "lock.granted", "late")
        lock.release(req)

    def waker(target):
        yield sim.timeout(1.75)
        for deserting in deserters:
            deserting.interrupt("leave")
        yield sim.timeout(1.25)
        target.interrupt("alarm")
        signal = sim.event()
        watch(signal, "signal")
        yield sim.timeout(0.25)
        signal.succeed("go")
        yield signal

    sim.process(consumer("c0", 3, 0.0))
    sim.process(producer("p0", ["a", "b", "c", "d", "e"], 0.0))
    sim.process(producer("p1", ["v", "w", "x", "y"], 0.5))
    sim.process(consumer("c1", 4, 2.0))
    sim.process(poller())
    for k, hold in enumerate([1.0, 1.5, 0.5]):
        sim.process(worker(f"w{k}", hold, 0.25 * k))
    sim.process(quitter())
    sim.process(spawner())
    sim.process(lock_holder())
    deserters = [
        sim.process(deserter("get", inbox.get)),
        sim.process(deserter("put", lambda: full.put("lost"))),
        sim.process(deserter("request", lock.request)),
    ]
    sim.process(after_desertion())
    napper = sim.process(sleeper())
    watch(napper, "exit")
    sim.process(waker(napper))
    sim.run()
    trace.append(("final", sim.now, sim.events_scheduled))
    return trace


def test_handoff_traces_match_across_disciplines():
    ref = _scenario("heapq", False)
    for queue, debug in MODES:
        assert _scenario(queue, debug) == ref, (queue, debug)


def test_scenario_reaches_every_handoff_site():
    fired = _scenario("bucket", False)[:-1]
    kinds = {kind for _, kind, _ in fired}
    # waiting getters and putters of the bounded store, and try_get
    assert {"c0.get", "c1.get", "p0.put", "p1.put", "try_get"} <= kinds
    assert any(t > 0 for t, k, _ in fired if k.endswith(".put"))
    # every item put was taken exactly once, some by try_get
    got = [v for _, k, v in fired if k in ("c0.get", "c1.get")]
    taken = [v for _, k, v in fired if k == "try_get" and v is not None]
    assert taken
    assert sorted(got + taken) == sorted("abcdevwxy")
    # contended grants, and the quitter cancelled while queued
    assert sum(1 for _, k, _ in fired if k.endswith(".grant")) == 6
    assert "quitter.grant" not in kinds
    assert (1.5, "cancel", 2) in fired
    # joins of timed, instant and batch children, in spawn order
    assert [v for _, k, v in fired if k == "join"] == [0, 0, 10, -1, 20, -2, 30, 40, 50]
    # the sleeper was interrupted off its get() and exited
    assert (3.0, "interrupted", "alarm") in fired
    assert (3.0, "exit", "woken") in fired
    assert (3.25, "signal", "go") in fired
    assert "mailbox.get" not in kinds
    # the deserters' get, put and request were withdrawn: none fired,
    # and the next users of those queues got every item and the lock
    assert {(1.75, "deserted", n) for n in ("get", "put", "request")} <= set(fired)
    assert "withdrawn wait fired" not in kinds
    assert [v for _, k, v in fired if k == "inbox.get"] == ["mail"]
    assert [v for _, k, v in fired if k == "full.get"] == ["kept", "fresh"]
    assert [(t, v) for t, k, v in fired if k == "lock.granted"] == [(2.25, "late")]


# -- re-triggering through the in-place sites ---------------------------------


def _refused(evt) -> None:
    with pytest.raises(SimulationError):
        evt.succeed("again")
    with pytest.raises(SimulationError):
        evt.fail(RuntimeError("again"))


@pytest.mark.parametrize("queue,debug", MODES)
def test_handoff_events_cannot_be_retriggered(queue, debug):
    sim = Simulator(queue=queue, debug=debug)
    store = Store(sim, capacity=1)
    waiting = store.get()
    put = store.put("a")  # hands "a" to the waiting getter
    store.put("b")
    ready = store.get()  # an item is waiting
    res = Resource(sim)
    first = res.request()  # granted on the spot
    second = res.request()
    res.release(first)  # grants the queued request
    signal = sim.event()
    signal.succeed(7)

    def body():
        yield sim.timeout(1.0)
        return "done"

    proc = sim.process(body())
    for evt in (waiting, put, ready, first, second, signal):
        _refused(evt)
    sim.run()
    _refused(proc)
    assert (waiting.value, put.value, ready.value) == ("a", None, "b")
    assert (first.value, second.value) == (first, second)
    assert (signal.value, proc.value) == (7, "done")


@pytest.mark.parametrize("queue,debug", MODES)
def test_grant_of_a_triggered_queued_request_raises(queue, debug):
    sim = Simulator(queue=queue, debug=debug)
    res = Resource(sim)
    holder = res.request()
    queued = res.request()
    queued.succeed("early")
    with pytest.raises(SimulationError, match="already triggered"):
        res.release(holder)


@pytest.mark.parametrize("queue,debug", MODES)
def test_handoff_to_a_triggered_getter_raises(queue, debug):
    sim = Simulator(queue=queue, debug=debug)
    store = Store(sim)
    getter = store.get()
    getter.succeed("early")
    with pytest.raises(SimulationError, match="already triggered"):
        store.put("late")


@pytest.mark.parametrize("queue,debug", MODES)
def test_exit_of_a_triggered_process_raises(queue, debug):
    sim = Simulator(queue=queue, debug=debug)

    def body():
        yield sim.timeout(1.0)

    proc = sim.process(body())
    proc.succeed("early")
    with pytest.raises(SimulationError, match="already scheduled"):
        sim.run()
