"""Tests for topology builders."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import repro
from repro.config import NetworkConfig
from repro.errors import TopologyError
from repro.noc.topology import Topology


def _topo(kind, dims):
    return Topology.build(NetworkConfig(topology=kind, dims=dims))


class TestMesh:
    def test_node_count_and_ids_one_based(self):
        t = _topo("mesh", (4, 4))
        assert t.num_nodes == 16
        assert sorted({n for e in t.edges() for n in e}) == list(range(1, 17))
        with pytest.raises(TopologyError):  # a node 0 must never exist
            t.neighbors(0)

    def test_edge_count(self):
        # 4x4 mesh: 2 * 4 * 3 = 24 edges
        assert len(list(_topo("mesh", (4, 4)).edges())) == 24

    def test_coords_roundtrip(self):
        t = _topo("mesh", (4, 4))
        for n in range(1, 17):
            x, y = t.coords(n)
            assert t.node_at(x, y) == n

    def test_corner_and_interior_degree(self):
        t = _topo("mesh", (4, 4))
        assert len(t.neighbors(1)) == 2    # corner
        assert len(t.neighbors(6)) == 4    # interior

    def test_hops_manhattan(self):
        t = _topo("mesh", (4, 4))
        assert t.hops(1, 16) == 6
        assert t.hops(1, 2) == 1
        assert t.hops(6, 6) == 0

    def test_nodes_at_distance(self):
        t = _topo("mesh", (4, 4))
        assert t.nodes_at_distance(6, 1) == [2, 5, 7, 10]
        assert len(t.nodes_at_distance(6, 2)) >= 4

    def test_connected(self):
        assert nx.is_connected(nx.Graph(list(_topo("mesh", (5, 3)).edges())))


class TestTorus:
    def test_wraparound_edges(self):
        t = _topo("torus", (4, 4))
        assert 4 in t.neighbors(1)    # row wrap
        assert 13 in t.neighbors(1)   # column wrap

    def test_uniform_degree(self):
        t = _topo("torus", (4, 4))
        assert all(len(t.neighbors(n)) == 4 for n in range(1, 17))

    def test_diameter_halved_vs_mesh(self):
        mesh = _topo("mesh", (4, 4))
        torus = _topo("torus", (4, 4))
        assert torus.hops(1, 16) < mesh.hops(1, 16)


class TestRingAndLine:
    def test_line_nodes_and_endpoints(self):
        t = _topo("line", (5, 1))
        assert t.num_nodes == 5
        assert len(t.neighbors(1)) == 1
        assert len(t.neighbors(3)) == 2

    def test_ring_closes(self):
        t = _topo("ring", (5, 1))
        assert 1 in t.neighbors(5)
        assert all(len(t.neighbors(n)) == 2 for n in range(1, 6))

    def test_tiny_ring_rejected(self):
        with pytest.raises(TopologyError):
            _topo("ring", (2, 1))

    def test_line_hops(self):
        t = _topo("line", (6, 1))
        assert t.hops(1, 6) == 5


def test_unknown_node_queries_rejected():
    t = _topo("mesh", (2, 2))
    with pytest.raises(TopologyError):
        t.coords(99)
    with pytest.raises(TopologyError):
        t.hops(1, 99)
    with pytest.raises(TopologyError):
        t.node_at(5, 5)


def _nx_reference(kind, dims):
    """A networkx graph built by the topology rules: same nodes, same
    edges, added in the same order."""
    w, h = dims
    if kind == "fullmesh":
        return nx.complete_graph(range(1, w + 1))
    g = nx.Graph()
    g.add_nodes_from(range(1, w * h + 1))
    if kind in ("ring", "line"):
        for n in range(1, w):
            g.add_edge(n, n + 1)
        if kind == "ring":
            g.add_edge(w, 1)
        return g
    for n in range(1, w * h + 1):
        x, y = (n - 1) % w, (n - 1) // w
        if x + 1 < w:
            g.add_edge(n, n + 1)
        elif kind == "torus" and w > 2:
            g.add_edge(n, n - (w - 1))
        if y + 1 < h:
            g.add_edge(n, n + w)
        elif kind == "torus" and h > 2:
            g.add_edge(n, n - w * (h - 1))
    return g


_SHAPES = (
    [(k, (w, h)) for k in ("mesh", "torus") for w in range(2, 7) for h in range(2, 7)]
    + [("ring", (n, 1)) for n in range(3, 9)]
    + [("line", (n, 1)) for n in range(1, 9)]
    + [("fullmesh", (n, 1)) for n in range(2, 9)]
)


@pytest.mark.parametrize(
    "kind,dims", _SHAPES, ids=[f"{k}-{w}x{h}" for k, (w, h) in _SHAPES]
)
def test_matches_networkx_reference(kind, dims):
    """Edge order, neighbors and every distance query equal the
    networkx builder's exactly: links are wired and partitions cut in
    ``edges()`` order, so the order is part of the schedule."""
    t = _topo(kind, dims)
    g = _nx_reference(kind, dims)
    assert list(t.edges()) == list(g.edges())
    assert t.num_nodes == g.number_of_nodes()
    for n in g:
        assert t.neighbors(n) == sorted(g.neighbors(n))
        lengths = nx.single_source_shortest_path_length(g, n)
        assert {m: t.hops(n, m) for m in g} == lengths
        for d in range(max(lengths.values()) + 2):
            assert t.nodes_at_distance(n, d) == sorted(
                m for m, hop in lengths.items() if hop == d
            )
    assert t.mean_hops() == nx.average_shortest_path_length(g)


def test_runtime_does_not_import_networkx():
    """networkx is a test-only dependency: building clusters, running
    accessors and the harness CLI must not load it."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import repro.cluster.cluster, repro.apps.access, repro.harness.cli\n"
        "print('networkx' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
