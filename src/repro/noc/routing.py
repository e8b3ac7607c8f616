"""Deterministic routing.

2-D meshes/tori use **X-Y dimension-order routing** (correct X first,
then Y), which is minimal and deadlock-free on meshes — the natural
choice for the prototype's FPGA switches. Rings/lines route along the
shorter arc (lines have only one).

The full ``(current, destination) -> next hop`` table is precomputed at
construction; lookups on the critical path are a dict access.

**Quarantine.** The health layer can mark a flapping link *degraded*
with :meth:`RoutingTable.quarantine_edge`: the table is rebuilt to
route around the quarantined edges where the topology allows it. The
rebuild is refused (returns ``False``, table untouched) when avoiding
the edge would disconnect some pair — a line topology, say, has no
alternate path, so the health layer must fall back to suspicion
escalation instead. The rebuilt routes come from a deterministic BFS
(smallest-id neighbor wins ties), keeping simulations replayable.
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.noc.topology import Topology

__all__ = ["RoutingTable"]


class RoutingTable:
    """Precomputed next-hop table over a :class:`Topology`."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._next: dict[tuple[int, int], int] = {}
        #: directed edges the health layer routed around (both
        #: directions of a quarantined link appear here)
        self._quarantined: set[tuple[int, int]] = set()
        self._build()

    def next_hop(self, current: int, dest: int) -> int:
        """The neighbor to forward to from *current* toward *dest*."""
        if current == dest:
            raise TopologyError(f"packet for node {dest} is already there")
        try:
            return self._next[(current, dest)]
        except KeyError:
            raise TopologyError(
                f"no route from {current} to {dest} in {self.topology.kind}"
            ) from None

    def path(self, src: int, dst: int) -> list[int]:
        """Full node sequence src..dst under this routing function."""
        path = [src]
        cur = src
        guard = self.topology.num_nodes + 1
        while cur != dst:
            cur = self.next_hop(cur, dst)
            path.append(cur)
            if len(path) > guard:
                raise TopologyError(
                    f"routing loop detected from {src} to {dst}: {path}"
                )
        return path

    def hops(self, src: int, dst: int) -> int:
        return len(self.path(src, dst)) - 1

    # -- quarantine --------------------------------------------------------
    @property
    def quarantined(self) -> set[tuple[int, int]]:
        """The quarantined links, as undirected ``(low, high)`` pairs."""
        return {(a, b) for a, b in self._quarantined if a < b}

    def quarantine_edge(self, a: int, b: int) -> bool:
        """Route around the link *a*—*b* (both directions) if possible.

        Returns ``True`` and commits a rebuilt next-hop table when every
        node pair stays routable without the quarantined edges; returns
        ``False`` and leaves the table (and the quarantine set) exactly
        as they were when the edge is a cut edge — the caller should
        escalate to declaring the peer dead instead.
        """
        self.topology._check(a)
        self.topology._check(b)
        avoided = self._quarantined | {(a, b), (b, a)}
        rebuilt = self._rebuild_avoiding(avoided)
        if rebuilt is None:
            return False
        self._quarantined = avoided
        self._next = rebuilt
        return True

    def clear_quarantine(self) -> None:
        """Forget all quarantined edges and restore the native routes."""
        self._quarantined = set()
        self._next = {}
        self._build()

    def clear_edge(self, a: int, b: int) -> bool:
        """Forget the quarantine on the *a*–*b* edge (both directions).

        Returns ``True`` (with a rebuilt table that again avoids only
        the remaining quarantined edges) when the edge was quarantined;
        ``False``, table untouched, otherwise.
        """
        pair = {(a, b), (b, a)}
        if not (pair & self._quarantined):
            return False
        remaining = self._quarantined - pair
        if not remaining:
            self.clear_quarantine()
            return True
        rebuilt = self._rebuild_avoiding(remaining)
        if rebuilt is None:  # pragma: no cover - shrinking the avoid
            # set can only add routes; an avoidable set stays avoidable
            raise TopologyError(
                f"routing table unroutable after clearing edge {a}-{b}"
            )
        self._quarantined = remaining
        self._next = rebuilt
        return True

    def _rebuild_avoiding(
        self, avoided: set[tuple[int, int]]
    ) -> "dict[tuple[int, int], int] | None":
        """Next-hop table over the topology minus *avoided* directed edges.

        Deterministic per-destination reverse BFS: a node forwards to
        its smallest-id usable neighbor that is one hop closer to the
        destination. Returns ``None`` if any (cur, dst) pair becomes
        unroutable.
        """
        topo = self.topology
        nodes = list(range(1, topo.num_nodes + 1))
        table: dict[tuple[int, int], int] = {}
        for dst in nodes:
            # BFS distances *to* dst over usable directed edges
            dist = {dst: 0}
            frontier = [dst]
            while frontier:
                nxt_frontier: list[int] = []
                for node in frontier:
                    for nb in topo.neighbors(node):
                        if (nb, node) in avoided or nb in dist:
                            continue
                        dist[nb] = dist[node] + 1
                        nxt_frontier.append(nb)
                frontier = sorted(nxt_frontier)
            for cur in nodes:
                if cur == dst:
                    continue
                if cur not in dist:
                    return None
                for nb in topo.neighbors(cur):
                    if (cur, nb) in avoided:
                        continue
                    if dist.get(nb, -1) == dist[cur] - 1:
                        table[(cur, dst)] = nb
                        break
                else:  # pragma: no cover - dist guarantees a hop exists
                    return None
        return table

    # -- construction ------------------------------------------------------
    def _build(self) -> None:
        topo = self.topology
        kind = topo.kind
        n = topo.num_nodes
        for cur in range(1, n + 1):
            for dst in range(1, n + 1):
                if cur == dst:
                    continue
                if kind in ("mesh", "torus"):
                    nxt = self._dor_next(cur, dst)
                elif kind == "ring":
                    nxt = self._ring_next(cur, dst)
                elif kind == "fullmesh":
                    nxt = dst  # one switched hop to anywhere
                else:  # line
                    nxt = cur + 1 if dst > cur else cur - 1
                self._next[(cur, dst)] = nxt

    def _dor_next(self, cur: int, dst: int) -> int:
        topo = self.topology
        w, h = topo.dims
        cx, cy = topo.coords(cur)
        dx, dy = topo.coords(dst)
        wrap = topo.kind == "torus"
        if cx != dx:
            step = self._axis_step(cx, dx, w, wrap)
            return topo.node_at((cx + step) % w, cy)
        step = self._axis_step(cy, dy, h, wrap)
        return topo.node_at(cx, (cy + step) % h)

    @staticmethod
    def _axis_step(c: int, d: int, extent: int, wrap: bool) -> int:
        """+1 or -1 along one axis (shorter way around on a torus)."""
        if not wrap:
            return 1 if d > c else -1
        forward = (d - c) % extent
        backward = (c - d) % extent
        return 1 if forward <= backward else -1

    def _ring_next(self, cur: int, dst: int) -> int:
        n = self.topology.num_nodes
        forward = (dst - cur) % n
        backward = (cur - dst) % n
        if forward <= backward:
            return cur % n + 1
        return (cur - 2) % n + 1
