"""One cluster node: sockets, caches, cores, memory controllers, RMC,
and its OS-lite — a complete coherency domain (Fig. 2(b)).

Address layout inside the node window: socket *i*'s memory controller
serves ``[i * dram.capacity, (i+1) * dram.capacity)``; every address at
or above the window (i.e. carrying a node prefix) falls through the
crossbar to the RMC, exactly like the BAR-based forwarding the paper
describes.
"""

from __future__ import annotations

from repro.config import NodeConfig, RMCConfig
from repro.ht.crossbar import Crossbar
from repro.ht.packet import TagAllocator
from repro.mem.addressmap import AddressMap
from repro.mem.backing import BackingStore
from repro.mem.cache import Cache
from repro.mem.coherence import CoherenceDomain
from repro.mem.controller import MemoryController
from repro.noc.network import Network
from repro.rmc.rmc import RMC
from repro.cluster.core import Core, FunctionalMemory
from repro.cluster.oslite import OSLite
from repro.cluster.reservation import ReservationClient
from repro.sim.engine import Simulator

__all__ = ["Node"]


class Node:
    """A motherboard: the unit of coherency in the proposed system."""

    def __init__(
        self,
        sim: Simulator,
        config: NodeConfig,
        rmc_config: RMCConfig,
        amap: AddressMap,
        node_id: int,
        network: Network,
        tags: TagAllocator,
        functional_mem: FunctionalMemory | None = None,
        *,
        batch: bool,
    ) -> None:
        self.sim = sim
        self.config = config
        self.node_id = node_id
        self.amap = amap
        self.name = f"node{node_id}"

        #: all of this node's physical memory (local addressing, no prefix)
        self.backing = BackingStore(config.total_memory_bytes)

        self.crossbar = Crossbar(sim, name=f"{self.name}.xbar", node_id=node_id)

        #: one memory controller per socket; contiguous per-socket
        #: slices by default, striped if node interleaving is enabled
        self.mcs: list[MemoryController] = []
        for socket in range(config.sockets):
            mc = MemoryController(
                sim,
                config.dram,
                self.backing,
                base=socket * config.dram.capacity_bytes,
                name=f"{self.name}.mc{socket}",
                interleave=(
                    (config.interleave_bytes, socket, config.sockets)
                    if config.interleave_bytes
                    else None
                ),
            )
            self.mcs.append(mc)
            self.crossbar.attach(mc)

        #: the Remote Memory Controller (crossbar fallback: any address
        #: with a non-zero prefix lands here)
        self.rmc = RMC(
            sim, rmc_config, amap, node_id, network, self.crossbar, tags,
            # prefetch bursts obey the same controller-slice alignment
            # as core-issued bursts
            burst_align_bytes=(
                config.interleave_bytes or config.dram.capacity_bytes
            ),
            batch=batch,
        )
        self.crossbar.attach(self.rmc, fallback=True)

        #: per-core private caches + the node-wide coherence domain
        self.caches = [
            Cache(config.cache, name=f"{self.name}.l2c{i}")
            for i in range(config.num_cores)
        ]
        self.coherence = CoherenceDomain(
            self.caches, broadcast=True, name=f"{self.name}.dom",
            debug=sim.debug,
        )

        self.cores = [
            Core(
                sim,
                config.core,
                rmc_config,
                amap,
                node_id,
                core_id=i,
                crossbar=self.crossbar,
                tags=tags,
                cache=self.caches[i],
                functional_mem=functional_mem,
                coherence=self.coherence,
                coherence_idx=i,
                # bursts must stay within one controller's slice: the
                # interleave stripe if striping is on, else the
                # per-socket contiguous slice
                burst_align_bytes=(
                    config.interleave_bytes or config.dram.capacity_bytes
                ),
                batch=batch,
            )
            for i in range(config.num_cores)
        ]

        self.os = OSLite(sim, config, amap, node_id, self.rmc)
        self.reservations = ReservationClient(self.os)

    def mc_for(self, local_addr: int) -> MemoryController:
        """The socket controller serving a local address."""
        for mc in self.mcs:
            if mc.owns(local_addr):
                return mc
        raise LookupError(
            f"{self.name}: no controller owns local address {local_addr:#x}"
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Node {self.node_id}: {self.config.num_cores} cores, "
            f"{self.config.total_memory_bytes >> 30} GiB>"
        )
