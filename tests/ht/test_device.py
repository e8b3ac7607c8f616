"""Tests for the HT device base class."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.ht.device import HTDevice
from repro.ht.packet import make_read_req


class Echo(HTDevice):
    """Records packets with a fixed service delay."""

    def __init__(self, sim, service_ns=10.0, **kw):
        super().__init__(sim, "echo", **kw)
        self.service_ns = service_ns
        self.log = []

    def handle(self, packet):
        yield self.sim.timeout(self.service_ns)
        self.log.append((self.sim.now, packet.tag))


def test_serial_dispatch_by_default(sim):
    dev = Echo(sim)
    for i in range(3):
        dev.deliver(make_read_req(1, 1, 0, 8, tag=i + 1))
    sim.run()
    assert dev.log == [(10.0, 1), (20.0, 2), (30.0, 3)]
    assert dev.received.value == 3


def test_parallel_dispatch(sim):
    dev = Echo(sim, parallelism=3)
    for i in range(3):
        dev.deliver(make_read_req(1, 1, 0, 8, tag=i + 1))
    sim.run()
    assert [t for t, _ in dev.log] == [10.0, 10.0, 10.0]


def test_parallelism_validated(sim):
    with pytest.raises(ProtocolError):
        Echo(sim, parallelism=0)


def test_handle_must_be_overridden(sim):
    dev = HTDevice(sim, "abstract")
    dev.deliver(make_read_req(1, 1, 0, 8, tag=1))
    with pytest.raises(NotImplementedError):
        sim.run()


def test_bounded_ingress_backpressure(sim):
    from repro.sim.engine import Store

    ingress = Store(sim, capacity=1)
    dev = Echo(sim, service_ns=50.0, ingress=ingress)
    accepted = []

    def producer(sim):
        for i in range(3):
            yield ingress.put(make_read_req(1, 1, 0, 8, tag=i + 1))
            accepted.append(sim.now)

    sim.process(producer(sim))
    sim.run()
    # first two admitted immediately (one into service, one buffered);
    # the third waits for a service completion
    assert accepted[0] == 0.0
    assert accepted[-1] >= 50.0
