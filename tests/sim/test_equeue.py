"""Differential tests: the bucketed event queue against the heapq
reference spec, at the queue level and through the full Simulator.

The heapq implementation in :mod:`repro.sim.equeue` is the executable
specification of event ordering; the bucketed queue must match its pop
sequence exactly on every schedule, including same-timestamp ties and
pushes interleaved with pops.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator, Store
from repro.sim.equeue import (
    QUEUE_KINDS,
    BucketEventQueue,
    HeapEventQueue,
    make_queue,
)


# -- factory / registry ------------------------------------------------------


def test_make_queue_kinds():
    assert isinstance(make_queue("bucket"), BucketEventQueue)
    assert isinstance(make_queue("heapq"), HeapEventQueue)
    assert set(QUEUE_KINDS) == {"bucket", "heapq"}
    # the bucket queue IS-A heap queue behaviourally; only `bucketed`
    # tells the engine whether the ready lane is live
    assert BucketEventQueue.bucketed and not HeapEventQueue.bucketed


def test_make_queue_unknown_kind_rejected():
    with pytest.raises(ValueError, match="splay"):
        make_queue("splay")


def test_simulator_unknown_queue_kind_rejected():
    with pytest.raises(ValueError):
        Simulator(queue="fifo")


# -- queue-level differential -----------------------------------------------


def _queue_run(kind: str, seed: int) -> list[tuple[float, int]]:
    """Drive one queue through a random schedule, engine-style.

    Pushes happen at the current clock (entries due now and later,
    including exact ties); each pop advances the clock to the popped
    entry's time, as :meth:`Simulator.step` does.
    """
    rng = random.Random(seed)
    q = make_queue(kind)
    seq = 0
    now = 0.0
    out: list[tuple[float, int]] = []

    def push_some(n: int) -> None:
        nonlocal seq
        for _ in range(n):
            delay = rng.choice([0.0, 0.0, 0.25, 1.0, rng.random() * 4])
            q.push(now, (now + delay, seq, None))
            seq += 1

    push_some(12)
    while q:
        when, s, _payload = q.pop()
        assert when >= now  # clock monotonicity
        now = when
        out.append((when, s))
        if rng.random() < 0.4 and seq < 300:
            push_some(rng.randrange(0, 3))
    return out


@pytest.mark.parametrize("seed", range(25))
def test_queue_differential_random_schedules(seed):
    assert _queue_run("bucket", seed) == _queue_run("heapq", seed)


def test_queue_ties_pop_in_seq_order():
    for kind in QUEUE_KINDS:
        q = make_queue(kind)
        # all at t=5.0, deliberately pushed out of seq order is
        # impossible (seq is monotonic), so push a stale-time mix
        q.push(0.0, (5.0, 0, "a"))
        q.push(0.0, (2.0, 1, "b"))
        q.push(0.0, (5.0, 2, "c"))
        q.push(0.0, (2.0, 3, "d"))
        got = [q.pop()[2] for _ in range(4)]
        assert got == ["b", "d", "a", "c"], kind


def test_bucket_ready_lane_catches_now_pushes():
    q = make_queue("bucket")
    q.push(0.0, (3.0, 0, "later"))
    first = q.pop()
    assert first[2] == "later"
    # clock is now 3.0: a push at exactly `now` must go to the ready
    # lane, not the heap
    q.push(3.0, (3.0, 1, "tie"))
    assert len(q.ready) == 1 and not q.heap
    assert q.pop()[2] == "tie"


# -- Simulator-level differential -------------------------------------------


def _sim_trace(queue: str, seed: int, until=None, debug: bool = False) -> list:
    """A mixed workload: tied timeouts, store hand-offs, event chains.

    Returns the complete observable trace — (time, actor, step) tuples
    in fire order plus the final clock — which must be bit-identical
    across queue kinds.
    """
    rng = random.Random(seed)
    sim = Simulator(queue=queue, debug=debug)
    store: Store = Store(sim)
    trace: list = []

    def ticker(pid: int, sub: int):
        r = random.Random(sub)
        for k in range(10):
            yield sim.timeout(r.choice([0.0, 0.0, 0.5, 1.0, 3.75]))
            trace.append((sim.now, "tick", pid, k))

    def producer():
        for i in range(8):
            yield store.put(i)
            yield sim.timeout(rng.choice([0.0, 1.0]))

    def consumer():
        for _ in range(8):
            item = yield store.get()
            trace.append((sim.now, "got", item))

    for pid in range(5):
        sim.process(ticker(pid, seed * 100 + pid))
    sim.process(producer())
    sim.process(consumer())
    sim.run(until=until)
    trace.append(("final", sim.now))
    return trace


@pytest.mark.parametrize("seed", range(10))
def test_simulator_differential_traces(seed):
    assert _sim_trace("bucket", seed) == _sim_trace("heapq", seed)


@pytest.mark.parametrize("until", [0.0, 0.5, 1.0, 3.75, 7.25, 1000.0])
def test_simulator_differential_run_until_boundary(until):
    assert _sim_trace("bucket", 3, until) == _sim_trace("heapq", 3, until)


@pytest.mark.parametrize("kind", list(QUEUE_KINDS))
def test_step_on_empty_queue_raises(kind):
    sim = Simulator(queue=kind)
    with pytest.raises(SimulationError, match="no events scheduled"):
        sim.step()


@pytest.mark.parametrize("kind", list(QUEUE_KINDS))
def test_debug_mode_matches_plain_mode(kind):
    """The sanitized step path and the inlined hot loop fire the same
    schedule — debug mode must never change replay."""
    assert _sim_trace(kind, 7) == _sim_trace(kind, 7, debug=True)
