"""The per-node fabric switch.

Each FPGA carries a switch that routes HNC packets between its four
mesh ports and the local RMC (Section IV-B). The model:

* one bounded ingress queue (input buffering; full buffers exert
  back-pressure on upstream links because their delivery ``put``
  blocks),
* a forwarding process that charges the switch traversal latency and
  pushes the packet onto the proper output link (or hands it to the
  local endpoint when it has arrived),
* per-switch forwarded/delivered counters feeding the congestion
  analysis of Figs. 7 and 8.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.config import NetworkConfig
from repro.errors import TopologyError
from repro.ht.link import Link
from repro.ht.packet import Packet
from repro.noc.routing import RoutingTable
from repro.sim.engine import Simulator, Store
from repro.sim.stats import Counter

__all__ = ["Switch"]


class Switch:
    """One node's fabric switch."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        config: NetworkConfig,
        routing: RoutingTable,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.routing = routing
        #: neighbor node id -> outgoing Link (filled in by Network)
        self.out_links: dict[int, Link] = {}
        #: local endpoint callback (the RMC's fabric-ingress deliver)
        self._endpoint: Optional[Callable[[Packet], None]] = None
        # Ingress shared by all input ports; bounded so a congested
        # switch back-pressures its upstream links.
        port_count = 5  # 4 mesh directions + local injection
        self.ingress = Store(
            sim,
            capacity=config.switch_buffer_packets * port_count,
            name=f"sw{node_id}.in",
        )
        # Low-priority virtual channel: prefetch bursts traverse through
        # their own lane so a speculative multi-line burst can never
        # head-of-line block a demand packet in the shared loop. The
        # lane is unbounded — prefetch never exerts back-pressure on
        # demand either.
        self._pf_lane = Store(sim, name=f"sw{node_id}.pf")
        self.forwarded = Counter(f"sw{node_id}.forwarded")
        self.delivered = Counter(f"sw{node_id}.delivered")
        #: fault-injection hook; armed only by sim/faults.py (SIM007)
        self._faults = None
        sim.process(self._forward_loop(), name=f"sw{node_id}.fwd")
        sim.process(self._pf_forward_loop(), name=f"sw{node_id}.pf_fwd")

    # -- wiring ----------------------------------------------------------
    def connect(self, neighbor: int, link: Link) -> None:
        if neighbor in self.out_links:
            raise TopologyError(
                f"switch {self.node_id} already linked to {neighbor}"
            )
        self.out_links[neighbor] = link

    def set_endpoint(self, deliver: Callable[[Packet], None]) -> None:
        if self._endpoint is not None:
            raise TopologyError(f"switch {self.node_id} already has an endpoint")
        self._endpoint = deliver

    # -- packet entry points -----------------------------------------------
    def inject(self, packet: Packet) -> "Store":
        """Local RMC injects a packet; returns the ingress store event
        source so callers may block on admission via ``put``."""
        return self.ingress

    # -- forwarding engine ---------------------------------------------------
    def _forward_loop(self) -> Generator:
        while True:
            packet: Packet = yield self.ingress.get()
            if self._faults is not None and self._faults.filter_switch(
                self.node_id, packet
            ):
                continue  # dropped in flight, or the node is dead
            if self.sim.audit is not None:
                self.sim.audit.record(f"switch{self.node_id}", packet)
            if packet.meta.get("prefetch"):
                # divert to the low-priority VC; the demand loop moves
                # straight on to the next ingress packet
                yield self._pf_lane.put(packet)
                continue
            # bursts pay one arbitration+traversal per coalesced line
            yield self.sim.timeout(
                self.config.switch_latency_ns * packet.line_count
            )
            link = self._route(packet)
            if link is not None:
                # Wait for serialization (this is where link contention
                # and back-pressure arise); propagation is pipelined
                # inside Link.
                yield link.send(packet)

    def _pf_forward_loop(self) -> Generator:
        # same traversal charges as the demand loop, FIFO among
        # prefetch packets only
        while True:
            packet: Packet = yield self._pf_lane.get()
            yield self.sim.timeout(
                self.config.switch_latency_ns * packet.line_count
            )
            link = self._route(packet)
            if link is not None:
                yield link.send(packet)

    def _route(self, packet: Packet) -> Optional[Link]:
        """Deliver *packet* locally, or pick its output link.

        Returns ``None`` once a packet addressed to this node has been
        handed to the endpoint; otherwise counts the hop and returns
        the link toward the next switch. A plain call rather than a
        sub-generator, so a hop creates no generator object.
        """
        if packet.dst == self.node_id:
            self.delivered.value += packet.line_count
            if self._endpoint is None:
                raise TopologyError(
                    f"switch {self.node_id}: packet arrived but no "
                    "endpoint is attached"
                )
            self._endpoint(packet)
            return None
        nxt = self.routing.next_hop(self.node_id, packet.dst)
        try:
            link = self.out_links[nxt]
        except KeyError:
            raise TopologyError(
                f"switch {self.node_id}: no link toward {nxt}"
            ) from None
        packet.hops += 1
        self.forwarded.value += packet.line_count
        return link
