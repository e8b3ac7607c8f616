"""Tests for the Remote Memory Controller, exercised inside a small
assembled cluster (the RMC's behaviour is only meaningful wired to a
fabric and memory controllers)."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.config import ClusterConfig, NetworkConfig, RMCConfig
from repro.errors import ProtocolError
from repro.ht.packet import make_read_req
from repro.sim.engine import Store
from repro.units import mib


def _cluster(**rmc_overrides):
    cfg = ClusterConfig(
        network=NetworkConfig(topology="line", dims=(3, 1)),
        rmc=RMCConfig(**rmc_overrides),
    )
    return Cluster(cfg)


def _remote_session(cluster, donor=2):
    app = cluster.session(1)
    app.borrow_remote(donor, mib(8))
    ptr = app.malloc(mib(4), Placement.REMOTE)
    return app, ptr


def test_remote_read_roundtrip_counts():
    cluster = _cluster()
    app, ptr = _remote_session(cluster)
    app.write_u64(ptr, 77)
    assert app.read_u64(ptr) == 77
    rmc1 = cluster.node(1).rmc
    rmc2 = cluster.node(2).rmc
    assert rmc1.client_requests.value > 0
    assert rmc2.server_requests.value == rmc1.client_requests.value
    assert rmc1.outstanding.peak >= 1
    assert len(rmc1.outstanding) == 0  # everything completed


def test_remote_latency_recorded():
    cluster = _cluster()
    app, ptr = _remote_session(cluster)
    app.read(ptr, 64, cached=False)
    tally = cluster.node(1).rmc.remote_latency_ns
    assert tally.count >= 1
    assert tally.mean > 0


def test_loopback_access_rejected():
    """The overlapped segment (own prefix) must never be accessed."""
    cluster = _cluster()
    node = cluster.node(1)
    addr = cluster.amap.encode(1, 0x1000)
    pkt = make_read_req(1, 1, addr, 64, tag=12345)
    pkt.meta["reply_to"] = Store(cluster.sim)
    node.rmc.deliver(pkt)
    with pytest.raises(ProtocolError, match="loopback"):
        cluster.sim.run()


def test_client_buffer_full_nacks_and_recovers():
    cluster = _cluster(buffer_entries=1)
    app, ptr = _remote_session(cluster)
    sim = cluster.sim
    core_a, core_b = app.node.cores[0], app.node.cores[1]
    done = []

    def reader(core):
        data = yield from core.read(ptr_phys, 64)
        done.append(data)

    ptr_phys = app.aspace.translate(ptr).phys_addr
    sim.process(reader(core_a))
    sim.process(reader(core_b))
    sim.run()
    assert len(done) == 2  # both complete despite the 1-entry buffer
    rmc = cluster.node(1).rmc
    retries = core_a.nack_retries.value + core_b.nack_retries.value
    assert rmc.client_nacks.value == retries
    assert retries >= 1


def test_server_buffer_full_nacks_over_fabric():
    cluster = _cluster(server_buffer_entries=1)
    sim = cluster.sim
    apps = []
    for client in (1, 3):  # both borrow from node 2
        app = cluster.session(client)
        app.borrow_remote(2, mib(8))
        ptr = app.malloc(mib(1), Placement.REMOTE)
        apps.append((app, ptr))

    def hammer(app, ptr, n):
        for i in range(n):
            yield from app.g_read(ptr + i * 4096, 64, cached=False)

    procs = [sim.process(hammer(a, p, 30)) for a, p in apps]
    sim.run()
    assert all(p.ok for p in procs)
    server = cluster.node(2).rmc
    clients_retx = (
        cluster.node(1).rmc.retransmissions.value
        + cluster.node(3).rmc.retransmissions.value
    )
    assert server.server_nacks.value == clients_retx
    assert server.server_nacks.value >= 1


def test_translation_table_ablation_slows_access():
    def latency(**kw):
        cluster = _cluster(**kw)
        app, ptr = _remote_session(cluster)
        app.read(ptr, 64, cached=False)  # warm TLB
        t0 = cluster.sim.now
        app.read(ptr + 64, 64, cached=False)
        return cluster.sim.now - t0

    assert latency(use_translation_table=True) > latency()


def test_ctrl_messages_reach_daemon_mailbox():
    cluster = _cluster()
    # the reservation protocol itself is the proof: it uses ctrl_in
    res = cluster.borrow(1, 2, mib(1))
    assert res.donor_node == 2
    assert cluster.amap.node_of(res.prefixed_start) == 2


def test_send_ctrl_to_self_rejected():
    cluster = _cluster()
    with pytest.raises(ProtocolError):
        cluster.node(1).rmc.send_ctrl(1, kind="reserve", size=1)


def test_inflight_gauge_returns_to_zero():
    cluster = _cluster()
    app, ptr = _remote_session(cluster)
    for i in range(4):
        app.read(ptr + i * 4096, 64, cached=False)
    rmc = cluster.node(1).rmc
    assert rmc.inflight.level == 0
    assert rmc.inflight.peak >= 1


# -- burst flow control -----------------------------------------------------


def test_client_nack_retries_whole_burst():
    """A client-RMC NACK rejects a whole burst with one decode; the core
    backs off and re-sends the same burst under the same tag, counting
    one retry per NACK."""
    cluster = _cluster(buffer_entries=1)
    app, ptr = _remote_session(cluster)
    app.write(ptr, bytes(range(256)) * 16, cached=False)
    sim = cluster.sim
    core_a, core_b = app.node.cores[0], app.node.cores[1]
    phys = app.aspace.translate(ptr).phys_addr
    reqs0 = cluster.node(1).rmc.client_requests.value
    done = []

    def reader(core):
        data = yield from core.cached_read(phys, 4096)  # 64-line burst
        done.append(data)

    sim.process(reader(core_a))
    sim.process(reader(core_b))
    sim.run()
    assert done == [bytes(range(256)) * 16] * 2
    rmc = cluster.node(1).rmc
    retries = core_a.nack_retries.value + core_b.nack_retries.value
    assert rmc.client_nacks.value == retries >= 1
    # the whole-burst NACK decode counts all 64 rejected lines in its
    # single event, and the core's retry counter mirrors it
    assert rmc.client_nacks.value % 64 == 0
    assert len(rmc.outstanding) == 0
    # the re-sent burst was accepted whole: the client pipe saw each
    # burst's full line count exactly once
    assert rmc.client_requests.value - reqs0 == 2 * 64


def test_server_nack_retransmits_whole_burst_over_fabric():
    """Server-side NACKs bounce the whole burst back to the client RMC,
    which retransmits it intact — server work is counted only for
    accepted bursts, so client and server totals still agree."""
    cluster = _cluster(server_buffer_entries=1)
    sim = cluster.sim
    apps = []
    for client in (1, 3):  # both borrow from node 2
        app = cluster.session(client)
        app.borrow_remote(2, mib(8))
        ptr = app.malloc(mib(1), Placement.REMOTE)
        apps.append((app, ptr))

    def hammer(app, ptr, n):
        for i in range(n):
            yield from app.g_read(ptr + i * 4096, 4096)  # cold bursts

    procs = [sim.process(hammer(a, p, 10)) for a, p in apps]
    sim.run()
    assert all(p.ok for p in procs)
    server = cluster.node(2).rmc
    clients = [cluster.node(1).rmc, cluster.node(3).rmc]
    retx = sum(c.retransmissions.value for c in clients)
    assert server.server_nacks.value == retx >= 1
    # one decode event per rejected burst, charged per line: both the
    # NACK counter and the retransmission counter move in 64-line units
    assert server.server_nacks.value % 64 == 0
    assert server.server_requests.value == sum(
        c.client_requests.value for c in clients
    )
    for c in clients:
        assert len(c.outstanding) == 0
