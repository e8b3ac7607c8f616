"""Finished processes and released grants are freed by refcounting.

A process that has exited and a ``Resource`` grant that has been
released hold no reference back to themselves, so the per-request
objects of a remote read (processes, their generators, grants, reply
stores, packets) die as soon as the read returns instead of waiting
for the cyclic collector. ``gc.DEBUG_SAVEALL`` keeps whatever the
collector would have freed in ``gc.garbage``: it must stay empty.
"""

from __future__ import annotations

import gc

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.sim import Resource, Simulator
from repro.units import CACHE_LINE, mib

MODES = [("bucket", False), ("heapq", False), ("bucket", True)]


def _cyclic_garbage(work) -> list:
    """The objects only the cyclic collector could free after *work*."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        work()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_remote_reads_leave_no_cyclic_garbage():
    cluster = Cluster()
    sess = cluster.session(6)
    assert cluster.hops(6, 12) == 3
    sess.borrow_remote(12, mib(2))
    ptr = sess.malloc(mib(1), Placement.REMOTE)

    def reads():
        for i in range(1000):
            sess.read(ptr + CACHE_LINE * i, CACHE_LINE, cached=False)

    garbage = _cyclic_garbage(reads)
    assert [type(o).__name__ for o in garbage] == []


@pytest.mark.parametrize("queue,debug", MODES)
def test_finished_processes_and_released_grants_leave_no_cyclic_garbage(
    queue, debug
):
    sim = Simulator(queue=queue, debug=debug)
    slot = Resource(sim, capacity=1)
    grants: list = []

    def user():
        req = slot.request()
        assert (yield req) is req
        yield sim.timeout(1.0)
        slot.release(req)
        grants.append(req)

    def work():
        for _ in range(50):
            sim.process(user())
        sim.run()

    garbage = _cyclic_garbage(work)
    assert [type(o).__name__ for o in garbage] == []
    # a released grant still reads as itself, also when yielded again
    assert len(grants) == 50
    assert all(req.value is req for req in grants)

    def again():
        assert (yield grants[0]) is grants[0]

    sim.process(again())
    sim.run()
