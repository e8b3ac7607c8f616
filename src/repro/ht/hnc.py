"""High Node Count (HNC) HyperTransport encapsulation.

Plain HT headers address at most 32 devices, so the prototype bridges
node-crossing packets onto HNC HT, whose extended header carries a
14-bit destination-node identifier — the same 14 bits that form the
prefix of every remote physical address (Section III-B / Fig. 3).

The bridge rules mirror Section 7.2 of the HNC spec as the paper uses
them:

* **encapsulate** (local HT -> fabric): the destination node id is read
  straight from the top 14 bits of the packet's physical address — no
  translation table.
* **decapsulate** (fabric -> local HT): the node prefix is cleared so
  the embedded address is a plain local physical address at the owner.
"""

from __future__ import annotations

from repro.errors import ProtocolError
from typing import Any

from repro.ht.packet import (
    CORRUPT_KEY,
    REQUEST_TYPES,
    RESPONSE_TYPES,
    Packet,
    PacketType,
    clone_packet,
)
from repro.mem.addressmap import AddressMap
from repro.sim.stats import Counter

__all__ = [
    "HNC_NODE_BITS",
    "HNCBridge",
    "hnc_encapsulate",
    "hnc_decapsulate",
    "packet_intact",
]

#: Width of the HNC node-identifier field.
HNC_NODE_BITS: int = 14


def hnc_encapsulate(
    packet: Packet, amap: AddressMap, local_node: int, **overrides: Any
) -> Packet:
    """Turn a local HT memory packet into an HNC fabric packet.

    The fabric destination is the node prefix of the address. Raises
    :class:`ProtocolError` for packets whose address is local (prefix
    0 or ``local_node``) — those must never reach the fabric. A request
    is bridged as one :func:`clone_packet` copy, which also takes the
    field *overrides* (the RMC re-stamps ``issue_ns`` and ``meta``
    there); responses and control messages cross as they are, and
    *overrides* only apply to requests.
    """
    ptype = packet.ptype
    if ptype in REQUEST_TYPES:
        owner = amap.node_of(packet.addr)
        if owner == 0 or owner == local_node:
            raise ProtocolError(
                f"address {packet.addr:#x} is local to node {local_node}; "
                "encapsulating it would loop back"
            )
        return clone_packet(packet, src=local_node, dst=owner, **overrides)
    if ptype in RESPONSE_TYPES or ptype is PacketType.CTRL:
        # Responses/control already carry explicit fabric src/dst.
        if packet.dst == local_node:
            raise ProtocolError(
                f"response {packet!r} is destined to the local node; "
                "it must not enter the fabric"
            )
        return packet
    raise ProtocolError(f"cannot encapsulate {packet.ptype}")


def hnc_decapsulate(packet: Packet, amap: AddressMap, local_node: int) -> Packet:
    """Turn an HNC fabric packet into a local HT packet at the owner.

    For requests, the node prefix is stripped from the address (the
    RMC "sets those 14 bits to zero", Section III-B); responses pass
    through untouched.
    """
    if packet.dst != local_node:
        raise ProtocolError(
            f"packet for node {packet.dst} decapsulated at node {local_node}"
        )
    if packet.ptype in REQUEST_TYPES:
        owner = amap.node_of(packet.addr)
        if owner != local_node:
            raise ProtocolError(
                f"request addr {packet.addr:#x} carries prefix {owner}, "
                f"but arrived at node {local_node}"
            )
        return clone_packet(packet, addr=amap.strip_node(packet.addr))
    return packet


def packet_intact(packet: Packet) -> bool:
    """CRC-style integrity check run at decapsulation.

    HNC HT protects each packet with a per-hop CRC; we do not model the
    polynomial, only its verdict: a packet the fault layer damaged in
    flight fails the check. Clean packets always pass, so the check is
    a single dict probe on the hot path.
    """
    return not packet.meta.get(CORRUPT_KEY)


class HNCBridge:
    """Stateless HT<->HNC bridging bound to one node.

    Kept as an object (rather than bare functions) so the RMC can count
    bridged packets and so an ablation can swap in a table-based
    variant.
    """

    def __init__(self, amap: AddressMap, local_node: int) -> None:
        if not 1 <= local_node <= amap.max_nodes:
            raise ProtocolError(
                f"node id {local_node} outside 1..{amap.max_nodes}"
            )
        self.amap = amap
        self.local_node = local_node
        self.encapsulated = 0
        self.decapsulated = 0
        self.corrupt_detected = Counter(f"hnc{local_node}.corrupt")

    def to_fabric(self, packet: Packet, **overrides: Any) -> Packet:
        self.encapsulated += 1
        return hnc_encapsulate(packet, self.amap, self.local_node, **overrides)

    def from_fabric(self, packet: Packet) -> Packet:
        self.decapsulated += 1
        return hnc_decapsulate(packet, self.amap, self.local_node)

    def verify(self, packet: Packet) -> bool:
        """Integrity-check an arriving fabric packet; count failures."""
        if packet_intact(packet):
            return True
        self.corrupt_detected.add(packet.line_count)
        return False
