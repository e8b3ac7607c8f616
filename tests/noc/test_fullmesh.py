"""Tests for the switched (HToE-style) full-mesh fabric."""

from __future__ import annotations

import itertools

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.config import NetworkConfig, htoe_cluster
from repro.errors import TopologyError
from repro.noc.routing import RoutingTable
from repro.noc.topology import Topology
from repro.units import mib


def _topo(n=6):
    return Topology.build(NetworkConfig(topology="fullmesh", dims=(n, 1)))


def test_every_pair_is_one_hop():
    t = _topo(6)
    for a, b in itertools.permutations(range(1, 7), 2):
        assert t.hops(a, b) == 1


def test_edge_count_complete_graph():
    assert len(list(_topo(6).edges())) == 15


def test_routing_is_direct():
    rt = RoutingTable(_topo(5))
    for a, b in itertools.permutations(range(1, 6), 2):
        assert rt.path(a, b) == [a, b]


def test_too_small_rejected():
    with pytest.raises(TopologyError):
        _topo(1)


def test_htoe_cluster_end_to_end():
    """The Section IV-B outlook deployment: works, but each access pays
    the Ethernet path's latency."""
    cluster = Cluster(htoe_cluster(nodes=4))
    app = cluster.session(1)
    app.borrow_remote(3, mib(8))
    ptr = app.malloc(mib(1), Placement.REMOTE)
    app.write_u64(ptr, 2026)
    assert app.read_u64(ptr) == 2026
    assert cluster.hops(1, 3) == 1


def test_htoe_slower_than_native_ht_mesh():
    """Standard switches buy deployment convenience, not latency: a
    1-hop HToE access costs more than a 1-hop native HTX-mesh access."""
    from repro.config import ClusterConfig, NetworkConfig
    from repro.model.latency import LatencyModel

    native = LatencyModel.calibrate(
        Cluster(ClusterConfig(
            network=NetworkConfig(topology="line", dims=(3, 1))
        )),
        samples=24,
    )
    htoe = LatencyModel.calibrate(Cluster(htoe_cluster(nodes=3)), samples=24)
    assert htoe.remote_1hop_ns / native.remote_1hop_ns > 1.5
    # ... yet still 20x+ below a remote-swap page fault
    assert htoe.remote_1hop_ns < native.swap_fault_ns / 20


def test_uniform_latency_across_all_peers():
    """A switched fabric removes Fig. 6's distance effect entirely."""
    cluster = Cluster(htoe_cluster(nodes=6))
    latencies = []
    for donor in (2, 4, 6):
        app = cluster.session(1)
        app.borrow_remote(donor, mib(4))
        ptr = app.malloc(mib(1), Placement.REMOTE)
        app.read(ptr, 64, cached=False)  # warm
        t0 = cluster.sim.now
        app.read(ptr + 64, 64, cached=False)
        latencies.append(cluster.sim.now - t0)
    assert max(latencies) - min(latencies) < 1.0  # identical
