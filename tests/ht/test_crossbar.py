"""Tests for the on-board crossbar."""

from __future__ import annotations

import pytest

from repro.errors import AddressError, ProtocolError
from repro.ht.crossbar import Crossbar
from repro.ht.device import HT_MAX_DEVICES
from repro.ht.packet import make_read_req
from repro.sim.engine import Store


class FakeDevice:
    def __init__(self, sim, lo, hi, name="dev"):
        self.lo, self.hi = lo, hi
        self.name = name
        self.inbox = Store(sim)

    def owns(self, addr):
        return self.lo <= addr < self.hi

    def deliver(self, packet):
        self.inbox.put(packet)


def test_routes_by_address_slice(sim):
    xbar = Crossbar(sim, latency_ns=5.0)
    a = FakeDevice(sim, 0, 100, "a")
    b = FakeDevice(sim, 100, 200, "b")
    xbar.attach(a)
    xbar.attach(b)
    xbar.send(make_read_req(1, 1, 150, 8, tag=1))
    sim.run()
    assert a.inbox.level == 0
    assert b.inbox.level == 1


def test_traversal_latency_charged(sim):
    xbar = Crossbar(sim, latency_ns=24.0)
    dev = FakeDevice(sim, 0, 100)
    xbar.attach(dev)
    arrival = []

    def receiver(sim):
        yield dev.inbox.get()
        arrival.append(sim.now)

    sim.process(receiver(sim))
    xbar.send(make_read_req(1, 1, 50, 8, tag=1))
    sim.run()
    assert arrival == [24.0]


def test_fallback_gets_unclaimed_addresses(sim):
    xbar = Crossbar(sim)
    mc = FakeDevice(sim, 0, 100, "mc")
    rmc = FakeDevice(sim, 0, 0, "rmc")  # owns nothing by slice
    xbar.attach(mc)
    xbar.attach(rmc, fallback=True)
    assert xbar.route_target(50) is mc
    assert xbar.route_target(10**9) is rmc


def test_no_owner_no_fallback_is_error(sim):
    xbar = Crossbar(sim)
    xbar.attach(FakeDevice(sim, 0, 100))
    with pytest.raises(AddressError):
        xbar.route_target(500)


def test_double_fallback_rejected(sim):
    xbar = Crossbar(sim)
    xbar.attach(FakeDevice(sim, 0, 1), fallback=True)
    with pytest.raises(ProtocolError):
        xbar.attach(FakeDevice(sim, 1, 2), fallback=True)


def test_device_count_limit(sim):
    xbar = Crossbar(sim)
    for i in range(HT_MAX_DEVICES):
        xbar.attach(FakeDevice(sim, i, i + 1, f"d{i}"))
    with pytest.raises(ProtocolError):
        xbar.attach(FakeDevice(sim, 99, 100))


def test_concurrent_transfer_limit(sim):
    """With one internal link, transfers serialize."""
    xbar = Crossbar(sim, latency_ns=10.0, concurrent_transfers=1)
    dev = FakeDevice(sim, 0, 1000)
    xbar.attach(dev)
    arrivals = []

    def receiver(sim):
        for _ in range(3):
            yield dev.inbox.get()
            arrivals.append(sim.now)

    sim.process(receiver(sim))
    for i in range(3):
        xbar.send(make_read_req(1, 1, i, 8, tag=i + 1))
    sim.run()
    assert arrivals == [10.0, 20.0, 30.0]


def test_send_to_explicit_target(sim):
    xbar = Crossbar(sim, latency_ns=1.0)
    a = FakeDevice(sim, 0, 100, "a")
    b = FakeDevice(sim, 100, 200, "b")
    xbar.attach(a)
    xbar.attach(b)
    # address says a, but we force delivery to b (response path)
    xbar.send_to(make_read_req(1, 1, 50, 8, tag=1), b)
    sim.run()
    assert b.inbox.level == 1
    assert xbar.routed == 1
