"""Top-level cluster assembly and orchestration.

``Cluster(config)`` builds the whole prototype: the fabric, one
:class:`~repro.cluster.node.Node` per fabric position, the region
manager with every node's home segment, and the zero-time functional
memory view that cached accesses use for data.

The class also provides the *control-plane verbs* experiments call:

* :meth:`borrow` — run the reservation protocol so one node's region
  grows with memory from a donor,
* :meth:`session` — open a process-level view (allocator + address
  space + access helpers) on one node,
* :meth:`fn_read` / :meth:`fn_write` — functional cluster-wide memory
  access by prefixed physical address.
"""

from __future__ import annotations

import math
from typing import Generator, Optional

import numpy as np

from repro.cluster import health as _health
from repro.cluster.node import Node
from repro.cluster.regions import RegionManager
from repro.cluster.reservation import Reservation
from repro.config import ClusterConfig, HealthConfig
from repro.errors import (
    AddressError,
    ConfigError,
    RemoteAccessError,
    ReservationError,
)
from repro.ht.packet import TagAllocator
from repro.mem.addressmap import DEFAULT_NODE_SHIFT, AddressMap
from repro.noc.network import Network
from repro.sim.engine import Simulator
from repro.sim.faults import FaultInjector, FaultPlan

__all__ = ["Cluster"]


class Cluster:
    """The assembled 16-node (by default) prototype."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        *,
        debug: Optional[bool] = None,
        queue: str = "bucket",
        batch: bool = True,
    ) -> None:
        self.config = config if config is not None else ClusterConfig()
        cfg = self.config

        shift = max(
            DEFAULT_NODE_SHIFT,
            math.ceil(math.log2(cfg.node.total_memory_bytes)),
        )
        self.amap = AddressMap(node_shift=shift)
        if cfg.num_nodes > self.amap.max_nodes:
            raise ConfigError(
                f"{cfg.num_nodes} nodes exceed the {self.amap.max_nodes} "
                "addressable by the 14-bit prefix"
            )

        # debug=None consults REPRO_SANITIZE inside the Simulator; the
        # node then inherits the resolved value so every sanitizer in
        # one cluster is on or off together. `queue` selects the event
        # queue ("heapq" = reference spec) for differential replay tests.
        # `batch=False` gives every core, RMC prefetcher and session
        # column touch the scalar per-line reference path (the
        # twin-cluster equivalence suites); it is chosen here, once.
        self.sim = Simulator(debug=debug, queue=queue)
        self.network = Network(self.sim, cfg.network)
        self.tags = TagAllocator()
        self.nodes: dict[int, Node] = {
            n: Node(
                self.sim,
                cfg.node,
                cfg.rmc,
                self.amap,
                node_id=n,
                network=self.network,
                tags=self.tags,
                functional_mem=self,
                batch=batch,
            )
            for n in range(1, cfg.num_nodes + 1)
        }

        self.regions = RegionManager(self.amap, cfg.num_nodes)
        for n in range(1, cfg.num_nodes + 1):
            self.regions.add_home_segment(
                n, 0, cfg.node.private_memory_bytes
            )

        #: fault injector, present only once :meth:`arm_faults` ran —
        #: a cluster that never arms one carries no failure machinery
        self.faults: Optional[FaultInjector] = None
        #: health monitor, present only once :meth:`arm_health` ran —
        #: same zero-cost-when-disarmed discipline as the fault layer
        self.health: Optional["_health.HealthMonitor"] = None
        #: per-node state and incarnation epoch (:class:`Membership`);
        #: held here so the fault layer's death callback works unarmed
        self.membership = _health.Membership()
        #: sessions opened via :meth:`session`, so donor-death cleanup
        #: can reach every process's allocator and page table
        self._sessions: list = []

    # -- basic queries ------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.config.num_nodes

    def node(self, node_id: int) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ConfigError(f"no node {node_id} in this cluster") from None

    def hops(self, a: int, b: int) -> int:
        return self.network.hops(a, b)

    def killed(self, node_id: int) -> bool:
        """True once the fault layer fail-stopped *node_id*."""
        return self.faults is not None and node_id in self.faults.dead_nodes

    # -- functional cluster-wide memory (FunctionalMemory protocol) -------
    def _resolve(self, paddr: int) -> tuple[Node, int]:
        owner = self.amap.node_of(paddr)
        if owner == 0:
            raise AddressError(
                "functional access needs a prefixed address; local "
                "addresses are ambiguous at cluster scope"
            )
        return self.node(owner), self.amap.strip_node(paddr)

    def fn_read(self, paddr: int, size: int) -> bytes:
        """Zero-time read by prefixed physical address."""
        node, local = self._resolve(paddr)
        return node.backing.read(local, size)

    def fn_write(self, paddr: int, data: bytes) -> None:
        """Zero-time write by prefixed physical address."""
        node, local = self._resolve(paddr)
        node.backing.write(local, data)

    def fn_read_array(self, paddr: int, count: int, dtype) -> np.ndarray:
        """Zero-time typed read: a fresh writable array, one copy total."""
        node, local = self._resolve(paddr)
        return node.backing.read_array(local, count, np.dtype(dtype))

    def fn_view_array(self, paddr: int, count: int, dtype) -> "np.ndarray | None":
        """Zero-time, zero-copy read-only window over the owner's chunk
        storage, or ``None`` when the range has no contiguous buffer."""
        node, local = self._resolve(paddr)
        return node.backing.view_array(local, count, np.dtype(dtype))

    def fn_read_into(self, paddr: int, out) -> None:
        """Zero-time read into a caller buffer (one copy, no staging)."""
        node, local = self._resolve(paddr)
        node.backing.read_into(local, out)

    # -- control plane ---------------------------------------------------------
    def borrow(self, borrower: int, donor: int, size: int) -> Reservation:
        """Grow *borrower*'s region with *size* bytes from *donor*.

        Runs the full Fig. 4 exchange on the simulated fabric and
        registers the new segment with the region manager. Blocks the
        caller (drains the event heap) — reservation is control-plane
        work, not on any measured path.
        """
        return self.sim.run_process(self.borrow_process(borrower, donor, size))

    def borrow_process(
        self, borrower: int, donor: int, size: int,
        timeout_ns: Optional[float] = None,
    ) -> Generator:
        """Process form of :meth:`borrow`, composable inside experiments.

        With *timeout_ns*, a donor that does not answer the reservation
        in time raises :class:`~repro.errors.ReservationError`.
        """
        node = self.node(borrower)
        if self.killed(donor):
            raise RemoteAccessError(
                f"node {donor} is dead; cannot borrow from it"
            )
        if self.health is not None and self.health.is_isolated(borrower):
            raise ReservationError(
                f"node {borrower} is isolated (below partition quorum); "
                "new borrows are self-fenced until it rejoins"
            )
        reservation = yield from node.reservations.reserve(
            donor, size, timeout_ns
        )
        self.regions.add_remote_segment(
            borrower, donor, reservation.prefixed_start, reservation.size
        )
        self.regions.check_invariants()
        if self.health is not None and self.health.cfg.watch_on_borrow:
            self.health.on_new_lease(borrower, reservation)
        return reservation

    def give_back(self, borrower: int, reservation: Reservation) -> None:
        """Shrink a region: release the lease and drop the segment."""
        node = self.node(borrower)
        region = self.regions.region_of(borrower)
        segment = next(
            s
            for s in region.segments
            if s.start == reservation.prefixed_start
        )
        self.sim.run_process(node.reservations.release(reservation))
        self.regions.remove_segment(borrower, segment)
        self.regions.check_invariants()

    def session(self, node_id: int) -> "Session":
        """Open a process-level view on *node_id*."""
        from repro.cluster.api import Session

        sess = Session(self, node_id)
        self._sessions.append(sess)
        return sess

    # -- failure model ------------------------------------------------------
    def arm_faults(self, plan: Optional[FaultPlan] = None) -> FaultInjector:
        """Attach a :class:`~repro.sim.faults.FaultInjector` to the fabric.

        Until this is called no component holds a fault hook, so the
        simulation is bit-identical to a build without the failure
        model. Call once, before :meth:`~repro.sim.engine.Simulator.run`
        if the plan has a timeline.
        """
        if self.faults is not None:
            raise ConfigError("fault injection is already armed")
        injector = FaultInjector(
            self.sim, plan if plan is not None else FaultPlan()
        )
        injector.attach_network(self.network)
        for node in self.nodes.values():
            injector.attach_node(node)
        # one idempotent degradation path, shared with declarations
        injector.on_node_death(lambda dead: _health.degrade_donor(self, dead))
        injector.on_link_restore(self._on_link_restore)
        self.faults = injector
        return injector

    def arm_health(
        self, config: Optional[HealthConfig] = None
    ) -> "_health.HealthMonitor":
        """Attach failure detection (and, with a TTL, finite leases).

        Until this is called no heartbeat, lease, or recovery machinery
        exists anywhere — the simulation is bit-identical to a build
        without the health subsystem. With ``lease_ttl_ns`` set, every
        donor's grants become finite leases and every borrower runs a
        renewal daemon per lease. Leases already held when arming are
        picked up.
        """
        if self.health is not None:
            raise ConfigError("the health subsystem is already armed")
        cfg = config if config is not None else self.config.health
        monitor = _health.HealthMonitor(self, cfg)
        self.health = monitor
        if cfg.lease_ttl_ns:
            for n, node in self.nodes.items():
                node.os.arm_leases(
                    cfg.lease_ttl_ns,
                    cfg.lease_grace_ns,
                    stop=lambda nid=n: monitor._stopped or self.killed(nid),
                )
        if cfg.watch_on_borrow:
            for node in self.nodes.values():
                for start in sorted(node.reservations.held):
                    monitor.on_new_lease(
                        node.node_id, node.reservations.held[start]
                    )
        if cfg.epoch_fencing:
            # borrower RMCs stamp outgoing requests with the lease's
            # grant epoch; donor RMCs NACK any request whose epoch no
            # longer matches the current grant (stale borrower after a
            # reclaim/re-grant). Hooks stay None until armed, so the
            # fenceless hot path is untouched.
            for node in self.nodes.values():
                node.rmc._lease_epochs = node.reservations
                node.rmc._fence = node.os
        return monitor

    def kill_node(self, node_id: int) -> None:
        """Fail-stop *node_id* immediately (arms a default plan if needed)."""
        self.node(node_id)
        if self.faults is None:
            self.arm_faults()
        self.faults.kill_node(node_id)

    def fail_link(self, a: int, b: int) -> None:
        """Take the *a*–*b* link down, both directions."""
        self.node(a)
        self.node(b)
        if self.faults is None:
            self.arm_faults()
        self.faults.fail_link(a, b)

    def _on_link_restore(self, a: int, b: int) -> None:
        """Fault-injector restore callback: let the health layer heal.

        Disarmed health means nothing to do — quarantines and death
        declarations only exist once :meth:`arm_health` ran.
        """
        if self.health is not None:
            self.health.on_link_restored(a, b)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Cluster {self.num_nodes} nodes, "
            f"{self.config.shared_pool_bytes >> 30} GiB shared pool>"
        )
