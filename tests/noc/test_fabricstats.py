"""Tests for fabric traffic analysis."""

from __future__ import annotations

import pytest

from repro.apps.randbench import RandomAccessBenchmark
from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, NetworkConfig
from repro.noc.fabricstats import FabricStats, LinkLoad, collect, mesh_heatmap
from repro.units import mib


@pytest.fixture(scope="module")
def loaded_cluster():
    """A 3x3 mesh with real traffic: node 1 hammers node 9."""
    cluster = Cluster(
        ClusterConfig(network=NetworkConfig(topology="mesh", dims=(3, 3)))
    )
    bench = RandomAccessBenchmark(cluster, seed=4, buffer_bytes=mib(2))
    bench.run_client(1, [9], threads=2, accesses_per_thread=60)
    return cluster


def test_collect_counts_real_traffic(loaded_cluster):
    stats = collect(loaded_cluster.network)
    assert stats.total_packets > 0
    assert max(link.packets for link in stats.links) > 0
    assert 0.0 <= stats.max_utilization <= 1.0


def test_traffic_follows_the_route(loaded_cluster):
    """X-Y routing from 1 (0,0) to 9 (2,2): requests use 1->2->3->6->9."""
    stats = collect(loaded_cluster.network)
    loads = {(l.src, l.dst): l.packets for l in stats.links}
    for edge in [(1, 2), (2, 3), (3, 6), (6, 9)]:
        assert loads[edge] > 0, f"no traffic on request edge {edge}"
    # responses route 9 (2,2) -> 8 -> 7 -> 4 -> 1
    for edge in [(9, 8), (8, 7), (7, 4), (4, 1)]:
        assert loads[edge] > 0, f"no traffic on response edge {edge}"
    # an edge on no route stays idle
    assert loads[(5, 2)] == 0


def test_switch_counters(loaded_cluster):
    stats = collect(loaded_cluster.network)
    # node 9's switch delivered every arriving request
    assert stats.switch_delivered[9] > 0
    # transit switches forwarded without delivering
    assert stats.switch_forwarded[2] > 0
    assert stats.switch_delivered[5] == 0


def test_heatmap_renders(loaded_cluster):
    text = mesh_heatmap(loaded_cluster.network)
    assert "fabric heat map" in text
    # all nine node ids appear
    for n in range(1, 10):
        assert f"{n:>3}" in text or f" {n}" in text
    # the busiest glyph appears somewhere
    assert "@" in text


def test_heatmap_rejects_non_mesh(sim):
    from repro.noc.network import Network

    net = Network(sim, NetworkConfig(topology="line", dims=(3, 1)))
    with pytest.raises(ValueError):
        mesh_heatmap(net)


def test_linkload_is_value_object():
    a = LinkLoad(1, 2, 10, 100, 0.5)
    b = LinkLoad(1, 2, 10, 100, 0.5)
    assert a == b


def test_stats_on_empty_stats_object():
    s = FabricStats(links=[], switch_forwarded={}, switch_delivered={})
    assert s.total_packets == 0
    assert s.max_utilization == 0.0
