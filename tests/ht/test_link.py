"""Tests for the link model."""

from __future__ import annotations

import pytest

from repro.config import LinkConfig
from repro.ht.link import DuplexLink, Link
from repro.ht.packet import make_read_req
from repro.sim.engine import Store


def _pkt(tag=1, size=64):
    return make_read_req(1, 2, 0x1000, size, tag)


def test_delivery_time_is_serialization_plus_propagation(sim):
    cfg = LinkConfig(bandwidth_Bpns=2.0, propagation_ns=10.0, header_bytes=8)
    link = Link(sim, cfg)
    arrivals = []

    def receiver(sim, link):
        pkt = yield link.sink.get()
        arrivals.append((sim.now, pkt.tag))

    sim.process(receiver(sim, link))
    link.send(_pkt(tag=5))  # wire_bytes = 8 header
    sim.run()
    # read req: 8 header bytes / 2 Bpns = 4 ns ser + 10 ns prop
    assert arrivals == [(14.0, 5)]


def test_serialization_is_exclusive_fifo(sim):
    cfg = LinkConfig(bandwidth_Bpns=1.0, propagation_ns=0.0, header_bytes=0)
    sink = Store(sim)
    link = Link(sim, LinkConfig(bandwidth_Bpns=1.0, propagation_ns=0.0,
                                header_bytes=0), sink=sink)
    from repro.ht.packet import make_write_req

    arrivals = []

    def receiver(sim):
        for _ in range(2):
            pkt = yield sink.get()
            arrivals.append((sim.now, pkt.tag))

    sim.process(receiver(sim))
    # wire bytes = 8-byte command header + payload
    link.send(make_write_req(1, 2, 0, bytes(100), tag=1))  # 108 ns
    link.send(make_write_req(1, 2, 0, bytes(50), tag=2))   # 58 ns after
    sim.run()
    assert arrivals == [(108.0, 1), (166.0, 2)]
    del cfg


def test_propagation_pipelines(sim):
    """Two back-to-back packets overlap in flight."""
    cfg = LinkConfig(bandwidth_Bpns=8.0, propagation_ns=100.0, header_bytes=8)
    link = Link(sim, cfg)
    arrivals = []

    def receiver(sim, link):
        for _ in range(2):
            pkt = yield link.sink.get()
            arrivals.append(sim.now)

    sim.process(receiver(sim, link))
    link.send(_pkt(tag=1))
    link.send(_pkt(tag=2))
    sim.run()
    # ser = 1 ns each; arrivals at 101 and 102, NOT 101 and 202
    assert arrivals == [101.0, 102.0]


def test_send_event_fires_when_wire_frees(sim):
    cfg = LinkConfig(bandwidth_Bpns=1.0, propagation_ns=50.0, header_bytes=8)
    link = Link(sim, cfg)

    def sender(sim, link):
        yield link.send(_pkt())
        return sim.now

    p = sim.process(sender(sim, link))
    sim.run()
    assert p.value == 8.0  # serialization only; not the propagation


def test_counters(sim):
    link = Link(sim, LinkConfig())
    link.send(_pkt(size=64))
    sim.run()
    assert link.packets.value == 1
    assert link.bytes.value == 8  # read request: header only


def test_utilization_between_zero_and_one(sim):
    link = Link(sim, LinkConfig(bandwidth_Bpns=0.1))

    def sender(sim, link):
        yield link.send(_pkt())

    sim.process(sender(sim, link))
    sim.run()
    u = link.utilization()
    assert 0.0 < u <= 1.0


def test_duplex_link_directions_independent(sim):
    duplex = DuplexLink(sim, LinkConfig(), "a", "b")
    assert duplex.direction(False) is duplex.forward
    assert duplex.direction(True) is duplex.backward
    assert duplex.forward is not duplex.backward


def test_busy_flag(sim):
    link = Link(sim, LinkConfig(bandwidth_Bpns=0.001))
    link.send(_pkt())
    assert link.busy
