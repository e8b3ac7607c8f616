"""Interconnect topologies.

Node identifiers are **1-based** everywhere (a node 0 must not exist —
it would collide with the "local" address prefix, Section III-B). For
2-D topologies node ``n`` sits at coordinates
``((n-1) % width, (n-1) // width)``.

A topology is an insertion-ordered adjacency dict; breadth-first
search answers the distance queries. :meth:`Topology.edges` yields
each undirected edge once, in the order the builder added its
endpoints: ``Network`` wires its links and ``FaultInjector`` cuts
partitions in that order, so it is part of the simulated schedule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.config import NetworkConfig
from repro.errors import TopologyError

__all__ = ["Topology"]


def _adjacency(
    n_nodes: int, edges: Iterable[tuple[int, int]]
) -> dict[int, list[int]]:
    """Nodes ``1..n_nodes`` with *edges* added in order (no duplicates)."""
    adj: dict[int, list[int]] = {n: [] for n in range(1, n_nodes + 1)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _grid_edges(kind: str, w: int, h: int) -> Iterator[tuple[int, int]]:
    """Each node's +x then +y edge, in node order; a torus wraps a
    dimension longer than 2."""
    for n in range(1, w * h + 1):
        x, y = (n - 1) % w, (n - 1) // w
        if x + 1 < w:
            yield n, n + 1
        elif kind == "torus" and w > 2:
            yield n, n - (w - 1)
        if y + 1 < h:
            yield n, n + w
        elif kind == "torus" and h > 2:
            yield n, n - w * (h - 1)


@dataclass(frozen=True)
class Topology:
    """An undirected interconnect graph with coordinate metadata."""

    kind: str
    dims: tuple[int, int]
    #: node -> neighbors in the order their edges were added
    adj: dict[int, list[int]] = field(compare=False, repr=False)

    @staticmethod
    def build(config: NetworkConfig) -> "Topology":
        """Construct the topology described by *config*."""
        kind = config.topology
        if kind in ("mesh", "torus"):
            w, h = config.dims
            return Topology(kind, (w, h), _adjacency(w * h, _grid_edges(kind, w, h)))
        if kind in ("ring", "line"):
            n_nodes = config.dims[0]
            if kind == "ring" and n_nodes < 3:
                raise TopologyError("a ring needs >= 3 nodes")
            edges = [(n, n + 1) for n in range(1, n_nodes)]
            if kind == "ring":
                edges.append((n_nodes, 1))
            return Topology(kind, (n_nodes, 1), _adjacency(n_nodes, edges))
        if kind == "fullmesh":
            # every pair directly connected — the abstraction of a
            # non-blocking central switch, i.e. the HT-over-Ethernet /
            # InfiniBand deployment Section IV-B anticipates (switch
            # traversal time goes into the link's latency instead)
            n_nodes = config.dims[0]
            if n_nodes < 2:
                raise TopologyError("a full mesh needs >= 2 nodes")
            pairs = itertools.combinations(range(1, n_nodes + 1), 2)
            return Topology(kind, (n_nodes, 1), _adjacency(n_nodes, pairs))
        raise TopologyError(f"unknown topology kind {kind!r}")

    # -- geometry -------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.adj)

    @property
    def width(self) -> int:
        return self.dims[0]

    def coords(self, node: int) -> tuple[int, int]:
        """(x, y) grid position of a node."""
        self._check(node)
        return (node - 1) % self.width, (node - 1) // self.width

    def node_at(self, x: int, y: int) -> int:
        w, h = self.dims
        if not (0 <= x < w and 0 <= y < h):
            raise TopologyError(f"coords ({x}, {y}) outside {w}x{h} grid")
        return y * w + x + 1

    def neighbors(self, node: int) -> list[int]:
        self._check(node)
        return sorted(self.adj[node])

    def hops(self, src: int, dst: int) -> int:
        """Minimal hop count between two nodes."""
        dist = self._distances(src)
        self._check(dst)
        return dist[dst]

    def nodes_at_distance(self, src: int, d: int) -> list[int]:
        """All nodes exactly *d* hops from *src* (used by Fig. 6/7 setups)."""
        return sorted(n for n, hop in self._distances(src).items() if hop == d)

    def mean_hops(self) -> float:
        """Mean minimal hop count over all ordered pairs of distinct
        nodes (an integer sum over one division, so exact)."""
        n = self.num_nodes
        if n == 1:
            return 0.0
        total = sum(sum(self._distances(src).values()) for src in self.adj)
        return total / (n * (n - 1))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once: nodes in insertion order, each
        paired with its not-yet-visited neighbors in edge order."""
        seen: set[int] = set()
        for node, nbrs in self.adj.items():
            for nb in nbrs:
                if nb not in seen:
                    yield node, nb
            seen.add(node)

    def _distances(self, src: int) -> dict[int, int]:
        """Breadth-first hop counts from *src* to every reachable node."""
        self._check(src)
        adj = self.adj
        dist = {src: 0}
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt: list[int] = []
            for node in frontier:
                for nb in adj[node]:
                    if nb not in dist:
                        dist[nb] = d
                        nxt.append(nb)
            frontier = nxt
        return dist

    def _check(self, node: int) -> None:
        if node not in self.adj:
            raise TopologyError(
                f"node {node} not in {self.kind} topology of {self.num_nodes}"
            )
