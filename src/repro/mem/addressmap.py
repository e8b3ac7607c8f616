"""The cluster physical address map (Section III-B, Fig. 3).

Every node sees an identical 48-bit physical memory map:

* addresses whose 14 most significant bits are **zero** refer to the
  node's own memory and are served by a local memory controller;
* addresses whose top 14 bits hold a **node identifier** are mapped to
  the RMC, which forwards them to that node.

Node identifiers start at **1** — there is never a node 0 — so "prefix
zero == local" holds at every node, the map is position-independent,
and the RMC needs no translation table. The price is the overlapped
segment the paper notes: node *k* addressing window *k* would loop back
to itself; the reservation protocol guarantees this never happens, and
:meth:`AddressMap.is_loopback` lets the RMC assert it.

With the default 34-bit per-node window each node can own 16 GiB,
exactly the prototype's per-node capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AddressError

__all__ = ["AddressMap", "NODE_BITS", "DEFAULT_NODE_SHIFT"]

#: Width of the node-identifier prefix (fixed by the HNC header format).
NODE_BITS: int = 14

#: log2 of the per-node window: 2**34 = 16 GiB, the prototype node size.
DEFAULT_NODE_SHIFT: int = 34


@dataclass(frozen=True)
class AddressMap:
    """Encode/decode the node prefix of physical addresses.

    ``node_shift`` is the log2 of the per-node address window. The full
    physical address is ``node_shift + 14`` bits wide (48 by default).
    """

    node_shift: int = DEFAULT_NODE_SHIFT
    #: first address past the map, and the in-window offset mask:
    #: derived once here so the per-packet decodes are one frame each
    _limit: int = field(init=False, repr=False, compare=False)
    _window_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 12 <= self.node_shift <= 50:
            raise AddressError(
                f"node_shift must be within [12, 50], got {self.node_shift}"
            )
        object.__setattr__(self, "_limit", 1 << self.address_bits)
        object.__setattr__(self, "_window_mask", self.window_bytes - 1)

    # -- derived geometry ---------------------------------------------------
    @property
    def window_bytes(self) -> int:
        """Size of one node's address window (16 GiB by default)."""
        return 1 << self.node_shift

    @property
    def max_nodes(self) -> int:
        """Largest representable node id (ids are 1-based)."""
        return (1 << NODE_BITS) - 1

    @property
    def address_bits(self) -> int:
        return self.node_shift + NODE_BITS

    # -- encode / decode --------------------------------------------------
    def encode(self, node: int, local_addr: int) -> int:
        """Stamp *node*'s prefix onto a local physical address.

        This is the rewrite the donor OS performs on the start address
        it returns in the reservation ack (Fig. 4).
        """
        if not 1 <= node <= self.max_nodes:
            raise AddressError(f"node id {node} outside 1..{self.max_nodes}")
        if not 0 <= local_addr < self.window_bytes:
            raise AddressError(
                f"local address {local_addr:#x} outside node window "
                f"(< {self.window_bytes:#x})"
            )
        return (node << self.node_shift) | local_addr

    def node_of(self, addr: int) -> int:
        """The 14-bit node prefix of *addr* (0 == local)."""
        if not 0 <= addr < self._limit:
            self._out_of_map(addr)
        return addr >> self.node_shift

    def strip_node(self, addr: int) -> int:
        """Clear the prefix — what the destination RMC does on arrival."""
        if not 0 <= addr < self._limit:
            self._out_of_map(addr)
        return addr & self._window_mask

    def is_local(self, addr: int) -> bool:
        """True if the prefix is zero (served by a local controller)."""
        return self.node_of(addr) == 0

    def is_remote(self, addr: int, local_node: int) -> bool:
        """True if *addr* must be forwarded to another node's RMC."""
        owner = self.node_of(addr)
        return owner != 0 and owner != local_node

    def is_loopback(self, addr: int, local_node: int) -> bool:
        """True for the overlapped segment: prefix == this node's own id.

        The paper notes this "will never happen in practice because of
        the way memory is reserved"; the RMC asserts it.
        """
        return self.node_of(addr) == local_node

    def window_range(self, node: int) -> tuple[int, int]:
        """The [start, end) prefixed address range owned by *node*."""
        if not 1 <= node <= self.max_nodes:
            raise AddressError(f"node id {node} outside 1..{self.max_nodes}")
        start = node << self.node_shift
        return start, start + self.window_bytes

    # -- helpers ---------------------------------------------------------------
    def _out_of_map(self, addr: int) -> None:
        raise AddressError(
            f"address {addr:#x} outside the {self.address_bits}-bit map"
        )
