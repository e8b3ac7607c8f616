"""Fabric-wide traffic analysis.

Fig. 8's diagnosis ("not as a result of network congestion but as a
result of RMC congestion in the server") needs evidence about where
traffic actually flowed. This module aggregates the per-link and
per-switch counters of a live :class:`~repro.noc.network.Network` into
a summary and renders a per-link utilization heat map for 2-D meshes —
the view the paper's argument implicitly relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.noc.network import Network

__all__ = ["LinkLoad", "FabricStats", "collect", "mesh_heatmap"]

_SHADES = " .:-=+*#%@"


@dataclass(frozen=True)
class LinkLoad:
    """Traffic carried by one directed link."""

    src: int
    dst: int
    packets: int
    bytes: int
    utilization: float


@dataclass(frozen=True)
class FabricStats:
    """Aggregated fabric state at one instant."""

    links: list[LinkLoad]
    switch_forwarded: dict[int, int]
    switch_delivered: dict[int, int]

    @property
    def total_packets(self) -> int:
        return sum(link.packets for link in self.links)

    @property
    def max_utilization(self) -> float:
        return max((l.utilization for l in self.links), default=0.0)


def collect(network: Network) -> FabricStats:
    """Snapshot a network's traffic counters."""
    links = [
        LinkLoad(
            src=src,
            dst=dst,
            packets=link.packets.value,
            bytes=link.bytes.value,
            utilization=link.utilization(),
        )
        for (src, dst), link in sorted(network.links.items())
    ]
    return FabricStats(
        links=links,
        switch_forwarded={
            n: sw.forwarded.value for n, sw in network.switches.items()
        },
        switch_delivered={
            n: sw.delivered.value for n, sw in network.switches.items()
        },
    )


def mesh_heatmap(network: Network, by: str = "packets") -> str:
    """ASCII heat map of a 2-D mesh: nodes as ids, links as shaded
    glyphs scaled to traffic (darker = busier).

    ``by`` selects the metric: "packets" or "utilization".
    """
    topo = network.topology
    if topo.kind not in ("mesh", "torus"):
        raise ValueError(f"heatmap needs a 2-D mesh/torus, got {topo.kind}")
    stats = collect(network)
    loads = {(l.src, l.dst): l for l in stats.links}

    def metric(a: int, b: int) -> float:
        fwd = loads.get((a, b))
        rev = loads.get((b, a))
        vals = [
            getattr(l, by if by == "utilization" else "packets")
            for l in (fwd, rev)
            if l is not None
        ]
        return float(sum(vals))

    w, h = topo.dims
    peak = max(
        (metric(a, b) for a, b in topo.edges()),
        default=0.0,
    )

    def shade(value: float) -> str:
        if peak <= 0:
            return _SHADES[0]
        idx = min(len(_SHADES) - 1, int(value / peak * (len(_SHADES) - 1)))
        return _SHADES[idx]

    lines = [f"fabric heat map (by {by}; '@'=busiest, ' '=idle)"]
    for y in range(h):
        row_nodes = []
        for x in range(w):
            n = topo.node_at(x, y)
            row_nodes.append(f"{n:>3}")
            if x + 1 < w:
                row_nodes.append(
                    f"-{shade(metric(n, topo.node_at(x + 1, y))) * 3}-"
                )
        lines.append("".join(row_nodes))
        if y + 1 < h:
            row_links = []
            for x in range(w):
                n = topo.node_at(x, y)
                glyph = shade(metric(n, topo.node_at(x, y + 1)))
                row_links.append(f"  {glyph}")
                if x + 1 < w:
                    row_links.append("     ")
            lines.append("".join(row_links))
    return "\n".join(lines)
