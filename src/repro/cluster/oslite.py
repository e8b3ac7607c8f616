"""Per-node operating-system model ("OS-lite").

The paper lists the OS work its full system needs (Section III):
hot-pluggable memory, cluster-wide knowledge of free memory, and the
reservation service that pins donated ranges. This module implements
those pieces at the level the evaluation requires:

* a physical **frame allocator** over the node's private memory,
* a **donation pool** — the slice of local memory set aside for the
  cluster shared pool (8 of 16 GB in the prototype), handed out as
  *contiguous, pinned* ranges to remote borrowers,
* the **reservation daemon**, a simulation process answering
  RESERVE/RELEASE control messages arriving through the RMC, stamping
  the node prefix onto granted start addresses (Fig. 4),
* the invariant the paper's correctness argument rests on: donated
  ranges are never handed to local processes and never swapped.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.config import NodeConfig
from repro.errors import AllocationError, ReservationError
from repro.ht.packet import Packet
from repro.mem.addressmap import AddressMap
from repro.rmc.rmc import RMC
from repro.sim.engine import Simulator
from repro.units import PAGE_SIZE

__all__ = ["FreeList", "OSLite", "Grant"]

#: OS-side handling time for one reservation-protocol message. The
#: paper stresses this path is not time-critical — only loads/stores
#: are — so a generous software cost is faithful.
RESERVATION_SERVICE_NS: float = 15_000.0

#: Handling time for a liveness probe / its ack: answered in the RMC's
#: control firmware without touching allocator state, so it is far
#: cheaper than a reservation — heartbeats must not saturate the
#: control plane they are monitoring.
PROBE_SERVICE_NS: float = 500.0

#: Handling time for a lease renewal / its ack: a deadline-table update,
#: no pool mutation.
LEASE_SERVICE_NS: float = 2_000.0

#: Per-message-kind service cost; anything unlisted (the original
#: reserve/release exchanges and their acks) charges the full
#: reservation cost, so disarmed runs are timed exactly as before.
_SERVICE_NS: dict[str, float] = {
    "probe": PROBE_SERVICE_NS,
    "probe_ack": PROBE_SERVICE_NS,
    "renew": LEASE_SERVICE_NS,
    "renew_ack": LEASE_SERVICE_NS,
    # SWIM-style indirect probes are firmware-level like direct ones
    "ping_req": PROBE_SERVICE_NS,
    "ping_req_ack": PROBE_SERVICE_NS,
}


class FreeList:
    """First-fit contiguous range allocator over ``[base, base+size)``.

    Keeps free extents sorted by address and coalesces on release —
    enough machinery for both the private frame pool and the donation
    pool (the paper reserves *contiguous* physical zones, Fig. 4).
    """

    def __init__(self, base: int, size: int, align: int = PAGE_SIZE) -> None:
        if size <= 0:
            raise AllocationError(f"empty free list (size={size})")
        if align <= 0 or align & (align - 1):
            raise AllocationError(f"alignment must be a power of two: {align}")
        if base % align or size % align:
            raise AllocationError(
                f"base {base:#x} / size {size:#x} not aligned to {align:#x}"
            )
        self.base = base
        self.size = size
        self.align = align
        #: sorted list of (start, length) free extents
        self._free: list[tuple[int, int]] = [(base, size)]
        self.allocated_bytes = 0

    def alloc(self, size: int) -> int:
        """Allocate a contiguous aligned range; returns its start."""
        if size <= 0:
            raise AllocationError(f"allocation size must be positive: {size}")
        size = -(-size // self.align) * self.align  # round up
        for i, (start, length) in enumerate(self._free):
            if length >= size:
                if length == size:
                    del self._free[i]
                else:
                    self._free[i] = (start + size, length - size)
                self.allocated_bytes += size
                return start
        raise AllocationError(
            f"cannot allocate {size:#x} contiguous bytes "
            f"(free={self.free_bytes:#x}, largest={self.largest_extent:#x})"
        )

    def free(self, start: int, size: int) -> None:
        """Return a range; coalesces with adjacent free extents."""
        size = -(-size // self.align) * self.align
        if start < self.base or start + size > self.base + self.size:
            raise AllocationError(
                f"free of [{start:#x}, {start + size:#x}) outside pool"
            )
        for fstart, flen in self._free:
            if start < fstart + flen and fstart < start + size:
                raise AllocationError(
                    f"double free overlapping [{fstart:#x}, {fstart + flen:#x})"
                )
        insort(self._free, (start, size))
        self.allocated_bytes -= size
        # coalesce
        merged: list[tuple[int, int]] = []
        for extent in self._free:
            if merged and merged[-1][0] + merged[-1][1] == extent[0]:
                merged[-1] = (merged[-1][0], merged[-1][1] + extent[1])
            else:
                merged.append(extent)
        self._free = merged

    @property
    def free_bytes(self) -> int:
        return sum(length for _, length in self._free)

    @property
    def largest_extent(self) -> int:
        return max((length for _, length in self._free), default=0)


@dataclass(frozen=True)
class Grant:
    """A donated range pinned for a remote borrower."""

    borrower_node: int
    #: local (unprefixed) start address on the donor
    local_start: int
    size: int
    #: the same start address with the donor's prefix stamped on
    prefixed_start: int
    #: per-donor monotonically increasing grant generation; a borrower
    #: whose lease was reclaimed holds a stale epoch and (with epoch
    #: fencing armed) is refused by the donor RMC
    epoch: int = 0


class OSLite:
    """One node's OS: memory accounting + reservation daemon."""

    def __init__(
        self,
        sim: Simulator,
        config: NodeConfig,
        amap: AddressMap,
        node_id: int,
        rmc: RMC,
    ) -> None:
        self.sim = sim
        self.config = config
        self.amap = amap
        self.node_id = node_id
        self.rmc = rmc
        private = config.private_memory_bytes
        total = config.total_memory_bytes
        #: frames for local processes ("the OS boots with 8 GB")
        self.private_pool = FreeList(0, private)
        #: the donated slice joining the cluster shared pool
        self.donation_pool = FreeList(private, total - private)
        #: active grants keyed by local start address
        self.grants: dict[int, Grant] = {}
        #: next grant epoch (monotonic per donor, never reused, so any
        #: reclaim/re-grant of a range is visible as an epoch change)
        self._next_epoch = 1
        #: hot-removed donation ranges now serving local allocations
        self._reclaimed: dict[int, FreeList] = {}
        #: req_tag -> event; completed when the matching ack arrives
        self._pending_acks: dict[int, "object"] = {}
        #: tags whose exchange ended without its ack (timeout, interrupt);
        #: a late ack for one of these is unwound, not a protocol bug
        self._orphaned: set[int] = set()
        #: finite-lease state — ``None`` until :meth:`arm_leases`, so
        #: the grant path pays a single ``is not None`` check when
        #: leases are off (the zero-cost-when-disarmed discipline)
        self._lease_deadlines: Optional[dict[int, float]] = None
        self._lease_ttl = 0.0
        self._lease_grace = 0.0
        #: (sim_ns, borrower, local_start) for every lease the expiry
        #: daemon reclaimed — the donor-side audit trail
        self.lease_reclaims: list[tuple[float, int, int]] = []
        self._daemon = sim.process(self._reservation_daemon(),
                                   name=f"os{node_id}.resd")

    # -- local allocation ---------------------------------------------------
    def alloc_local(self, size: int) -> int:
        """Allocate private local memory; returns a local phys address.

        Serves from the boot-time private pool first, then from any
        hot-removed ranges. Never touches the donation pool itself:
        donated memory "will never be accessed by processes being
        executed in the remote node" unless explicitly hot-removed.
        """
        try:
            return self.private_pool.alloc(size)
        except AllocationError:
            for pool in self._reclaimed.values():
                try:
                    return pool.alloc(size)
                except AllocationError:
                    continue
            raise

    def free_local(self, start: int, size: int) -> None:
        if start < self.private_pool.size:
            self.private_pool.free(start, size)
            return
        for pool in self._reclaimed.values():
            if pool.base <= start < pool.base + pool.size:
                pool.free(start, size)
                return
        raise AllocationError(
            f"node {self.node_id}: free of {start:#x} outside every "
            "local pool"
        )

    @property
    def local_free_bytes(self) -> int:
        return self.private_pool.free_bytes

    @property
    def donated_free_bytes(self) -> int:
        return self.donation_pool.free_bytes

    # -- memory hot-plug (Section III's kernel modification) ---------------
    def hot_remove_donation(self, size: int) -> int:
        """Reclaim *size* bytes from the donation pool into private use.

        Models the hot-remove/hot-add kernel support the paper lists as
        a system requirement: when local pressure grows, un-donated
        memory can be pulled back for local processes. Only memory not
        currently granted to a borrower can move (grants are pinned).
        Returns the local start address of the reclaimed range, which
        :meth:`alloc_local` can now serve from.
        """
        try:
            start = self.donation_pool.alloc(size)
        except AllocationError as exc:
            raise ReservationError(
                f"node {self.node_id} cannot hot-remove {size:#x} bytes: "
                f"{exc}"
            ) from exc
        self._reclaimed[start] = FreeList(start, size)
        return start

    def hot_add_donation(self, start: int) -> None:
        """Return a fully-idle hot-removed range to the donation pool."""
        pool = self._reclaimed.get(start)
        if pool is None:
            raise ReservationError(
                f"node {self.node_id}: no hot-removed range at {start:#x}"
            )
        if pool.allocated_bytes:
            raise ReservationError(
                f"node {self.node_id}: range at {start:#x} still has "
                f"{pool.allocated_bytes:#x} bytes in local use"
            )
        del self._reclaimed[start]
        self.donation_pool.free(start, pool.size)

    @property
    def hot_removed_bytes(self) -> int:
        return sum(p.size for p in self._reclaimed.values())

    # -- donor side of the reservation protocol ----------------------------
    def grant_reservation(self, borrower_node: int, size: int) -> Grant:
        """Pin a contiguous donated range for *borrower_node* (Fig. 4).

        The returned grant carries the prefixed start address the
        borrower will write into its page table.
        """
        if borrower_node == self.node_id:
            raise ReservationError(
                f"node {self.node_id} asked itself for memory — loopback "
                "reservations are forbidden (the overlapped segment)"
            )
        try:
            start = self.donation_pool.alloc(size)
        except AllocationError as exc:
            raise ReservationError(
                f"node {self.node_id} cannot donate {size:#x} bytes: {exc}"
            ) from exc
        grant = Grant(
            borrower_node=borrower_node,
            local_start=start,
            size=size,
            prefixed_start=self.amap.encode(self.node_id, start),
            epoch=self._next_epoch,
        )
        self._next_epoch += 1
        self.grants[start] = grant
        if self._lease_deadlines is not None:
            self._lease_deadlines[start] = (
                self.sim.now + self._lease_ttl + self._lease_grace
            )
        return grant

    def fence_admit(
        self, local_start: int, size: int, epoch: Optional[int]
    ) -> bool:
        """Donor-side epoch fence: may this remote access proceed?

        Called by the RMC server path (when armed via
        ``HealthConfig.epoch_fencing``) before admitting a request.
        Accesses to private memory are not lease-governed and always
        pass; an access into the donation pool passes only when a
        current grant covers the whole range *and* the request's epoch
        matches that grant — a stale epoch means the range was
        reclaimed (and possibly re-granted) since the requester's lease
        was issued, so the access must be refused, not retried.
        """
        if local_start + size <= self.donation_pool.base:
            return True
        for start, grant in self.grants.items():
            if start <= local_start and (
                local_start + size <= start + grant.size
            ):
                return epoch == grant.epoch
        return False

    def release_reservation(self, local_start: int) -> None:
        try:
            grant = self.grants.pop(local_start)
        except KeyError:
            raise ReservationError(
                f"node {self.node_id}: no grant at {local_start:#x}"
            ) from None
        if self._lease_deadlines is not None:
            self._lease_deadlines.pop(local_start, None)
        self.donation_pool.free(grant.local_start, grant.size)

    # -- donor-side finite leases ------------------------------------------
    def arm_leases(
        self, ttl_ns: float, grace_ns: float, *,
        stop: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Make every grant a finite lease that must be renewed.

        A grant's deadline starts at ``now + ttl + grace`` and each
        successful renewal pushes it out again; the expiry daemon
        reclaims grants whose borrowers stopped renewing (borrower
        death is the donor-side dual of donor death). *stop* is an
        optional zero-arg callable polled after every tick; the daemon
        exits once it returns True (the health layer stopped, or this
        node was killed — a dead node runs no OS).
        """
        if ttl_ns <= 0:
            raise ReservationError("lease ttl must be positive when arming")
        if self._lease_deadlines is not None:
            raise ReservationError(
                f"node {self.node_id}: leases already armed"
            )
        self._lease_deadlines = {
            start: self.sim.now + ttl_ns + grace_ns for start in self.grants
        }
        self._lease_ttl = ttl_ns
        self._lease_grace = grace_ns
        self.sim.process(
            self._lease_expiry_daemon(stop), name=f"os{self.node_id}.leased"
        )

    def _lease_expiry_daemon(
        self, stop: Optional[Callable[[], bool]]
    ) -> Generator:
        period = self._lease_ttl / 2
        while True:
            yield self.sim.timeout(period)
            if stop is not None and stop():
                return
            assert self._lease_deadlines is not None
            for start in sorted(self._lease_deadlines):
                if self._lease_deadlines[start] > self.sim.now:
                    continue
                grant = self.grants.get(start)
                if grant is None:  # pragma: no cover - release cleans up
                    del self._lease_deadlines[start]
                    continue
                self.lease_reclaims.append(
                    (self.sim.now, grant.borrower_node, start)
                )
                self.release_reservation(start)

    # -- requester side: one request/ack exchange -------------------------
    def ask(self, dst: int, timeout_ns: Optional[float] = None, /,
            **meta) -> Generator:
        """Send one control request to *dst* and wait for its ack.

        A simulation process: ``ack = yield from os.ask(dst, t, kind=...)``
        returns the ack packet, or ``None`` once *timeout_ns* passes
        (``None`` waits for the ack however long it takes). *timeout_ns*
        is positional-only because request metadata may carry its own
        ``timeout_ns`` key (``ping_req``). However the exchange ends —
        ack, timeout, interrupt or close — no pending ack survives it:
        a late ack is unwound by the daemon instead of raising.
        """
        tag = self.rmc.tags.next()
        evt = self._expect(tag)
        try:
            yield self.rmc.send_ctrl(dst, tag=tag, **meta)
            if timeout_ns is None:
                return (yield evt)
            yield self.sim.any_of([evt, self.sim.timeout(timeout_ns)])
            return evt.value if evt.triggered else None
        finally:
            self._abandon(tag)

    def ask_each(
        self, dsts: list[int], timeout_ns: float, /, **meta
    ) -> Generator:
        """Send the same control request to each of *dsts* at once.

        Returns one ack packet, or ``None`` for each destination that
        did not answer within *timeout_ns* of the last send, in *dsts*
        order; like :meth:`ask`, leaves no pending ack behind.
        """
        tags: list[int] = []
        evts = []
        try:
            for dst in dsts:
                tag = self.rmc.tags.next()
                tags.append(tag)
                evts.append(self._expect(tag))
                yield self.rmc.send_ctrl(dst, tag=tag, **meta)
            if evts:
                deadline = self.sim.timeout(timeout_ns)
                yield self.sim.any_of([self.sim.all_of(evts), deadline])
            return [evt.value if evt.triggered else None for evt in evts]
        finally:
            for tag in tags:
                self._abandon(tag)

    def _expect(self, req_tag: int):
        """Register interest in the ack for an outgoing request tag;
        returns an event whose value will be the ack packet."""
        if req_tag in self._pending_acks:
            raise ReservationError(f"duplicate pending ack tag {req_tag}")
        evt = self.sim.event()
        self._pending_acks[req_tag] = evt
        return evt

    def _abandon(self, req_tag: int) -> None:
        """Forget a pending ack (no-op once it arrived).

        The exchange may still be in flight: the donor can have pinned
        memory already. If the ack later arrives, the daemon unwinds it
        (releasing any granted reservation) instead of raising on an
        unexpected tag — no pending-ack entry and no donor-side pin
        survive.
        """
        if self._pending_acks.pop(req_tag, None) is not None:
            self._orphaned.add(req_tag)

    # -- the daemon --------------------------------------------------------
    def _reservation_daemon(self) -> Generator:
        """Route control messages: donor requests are serviced here;
        acks complete the local requester's pending operation."""
        while True:
            msg: Packet = yield self.rmc.ctrl_in.get()
            kind = msg.meta.get("kind")
            yield self.sim.timeout(_SERVICE_NS.get(kind, RESERVATION_SERVICE_NS))
            if kind == "reserve":
                yield from self._handle_reserve(msg)
            elif kind == "release":
                yield from self._handle_release(msg)
            elif kind == "probe":
                yield self.rmc.send_ctrl(
                    msg.src,
                    kind="probe_ack",
                    req_tag=msg.tag,
                    ok=True,
                    seq=msg.meta.get("seq", 0),
                )
            elif kind == "renew":
                yield from self._handle_renew(msg)
            elif kind == "ping_req":
                # the indirect probe takes a probe timeout to resolve;
                # run it beside the daemon so one slow suspect cannot
                # stall this node's whole control plane
                self.sim.process(
                    self._handle_ping_req(msg),
                    name=f"os{self.node_id}.pingreq",
                )
            elif kind in ("reserve_ack", "release_ack",
                          "probe_ack", "renew_ack", "ping_req_ack"):
                req_tag = msg.meta["req_tag"]
                evt = self._pending_acks.pop(req_tag, None)
                if evt is not None:
                    evt.succeed(msg)
                elif req_tag in self._orphaned:
                    self._orphaned.discard(req_tag)
                    if kind == "reserve_ack" and msg.meta["ok"]:
                        # the requester died mid-reserve but the donor
                        # pinned memory: give it straight back
                        self.sim.process(
                            self._release_stray(msg),
                            name=f"os{self.node_id}.stray",
                        )
                else:
                    raise ReservationError(
                        f"node {self.node_id}: unexpected ack "
                        f"{msg.meta!r}"
                    )
            else:
                raise ReservationError(
                    f"node {self.node_id}: unknown control message "
                    f"{msg.meta!r}"
                )

    def _handle_reserve(self, msg: Packet) -> Generator:
        size = msg.meta["size"]
        try:
            grant = self.grant_reservation(msg.src, size)
            yield self.rmc.send_ctrl(
                msg.src,
                kind="reserve_ack",
                req_tag=msg.tag,
                ok=True,
                prefixed_start=grant.prefixed_start,
                size=grant.size,
                epoch=grant.epoch,
            )
        except ReservationError as exc:
            yield self.rmc.send_ctrl(
                msg.src,
                kind="reserve_ack",
                req_tag=msg.tag,
                ok=False,
                error=str(exc),
            )

    def _handle_renew(self, msg: Packet) -> Generator:
        """Extend a lease's deadline; nack when the grant is gone.

        A nack tells the borrower its lease already expired (the grant
        was reclaimed or released) — the borrower-side state machine
        moves the lease to EXPIRED and triggers recovery, exactly as if
        the donor had died. A renewal carrying a *stale epoch* — the
        range was reclaimed and re-granted while the borrower was cut
        off — is nacked with ``reason="fenced"`` so the old tenant's
        renewal can never extend the new tenant's lease.
        """
        prefixed = msg.meta["prefixed_start"]
        local = self.amap.strip_node(prefixed)
        grant = self.grants.get(local)
        epoch = msg.meta.get("epoch")
        fenced = (
            grant is not None
            and epoch is not None
            and epoch != grant.epoch
        )
        ok = grant is not None and not fenced
        if ok and self._lease_deadlines is not None:
            self._lease_deadlines[local] = (
                self.sim.now + self._lease_ttl + self._lease_grace
            )
        if fenced:
            yield self.rmc.send_ctrl(
                msg.src, kind="renew_ack", req_tag=msg.tag, ok=False,
                reason="fenced",
            )
        else:
            yield self.rmc.send_ctrl(
                msg.src, kind="renew_ack", req_tag=msg.tag, ok=ok
            )

    def _handle_release(self, msg: Packet) -> Generator:
        prefixed = msg.meta["prefixed_start"]
        local = self.amap.strip_node(prefixed)
        # Idempotent on the wire: a borrower may retry after losing an
        # ack, or a stray-release may race a normal one — releasing a
        # grant that is already gone acks ok rather than wedging the
        # protocol on a ReservationError.
        if local in self.grants:
            self.release_reservation(local)
        yield self.rmc.send_ctrl(
            msg.src, kind="release_ack", req_tag=msg.tag, ok=True
        )

    def _handle_ping_req(self, msg: Packet) -> Generator:
        """Probe *target* on the requester's behalf (SWIM ping-req).

        An observer that keeps missing a suspect cannot tell a dead
        peer from a broken path; a helper on a different route can.
        The helper sends its own direct probe, waits up to the
        requester-supplied timeout, and reports ``reachable`` in the
        ``ping_req_ack`` either way.
        """
        target = msg.meta["target"]
        reachable = target == self.node_id
        if not reachable:
            ack = yield from self.ask(
                target, msg.meta["timeout_ns"], kind="probe", seq=0
            )
            reachable = ack is not None
        yield self.rmc.send_ctrl(
            msg.src,
            kind="ping_req_ack",
            req_tag=msg.tag,
            ok=True,
            target=target,
            reachable=reachable,
        )

    def _release_stray(self, ack: Packet) -> Generator:
        """Return a grant whose requester abandoned the exchange."""
        # waits for the release_ack so nothing dangles
        yield from self.ask(
            ack.src, kind="release", prefixed_start=ack.meta["prefixed_start"]
        )
