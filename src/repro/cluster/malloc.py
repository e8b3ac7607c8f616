"""The malloc-interposition layer (Section IV-B, last paragraph).

The prototype interposes a shared library on an *unmodified, already
compiled* application: ``malloc``/``free`` are intercepted, remote
memory is reserved, and the application receives an ordinary pointer —
every subsequent load/store is a plain memory instruction.

:class:`RegionAllocator` is that library's analogue for one simulated
process: it owns the process's virtual address space, carves local
allocations out of the node's private pool, carves remote allocations
out of reservations attached to the node's memory region, and writes
the (possibly prefixed) translations into the page table.

Remote arenas are keyed by their :class:`Reservation`, and only the
node's lease table says whether one is live: a lease that ended — given
back, revoked, expired or fenced — never places an allocation again.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.cluster.oslite import FreeList
from repro.cluster.reservation import Reservation, ReservationClient
from repro.errors import AllocationError
from repro.mem.addressmap import AddressMap
from repro.mem.paging import PTE, AddressSpace

__all__ = ["Placement", "RegionAllocator", "Allocation"]


class Placement(enum.Enum):
    """Where an allocation's frames must come from."""

    LOCAL = "local"
    REMOTE = "remote"
    #: local until the private pool runs dry, then remote — the
    #: behaviour an OS kernel would implement transparently
    AUTO = "auto"


@dataclass(frozen=True)
class Allocation:
    """One live allocation."""

    vaddr: int
    size: int
    phys_start: int
    #: the lease whose arena holds the frames, or ``None`` for local
    reservation: Optional[Reservation]

    @property
    def remote(self) -> bool:
        return self.reservation is not None


class RegionAllocator:
    """Per-process allocator over a node's memory region."""

    def __init__(
        self,
        leases: ReservationClient,
        address_space: AddressSpace,
        amap: AddressMap,
    ) -> None:
        self.leases = leases
        self.oslite = leases.oslite
        self.aspace = address_space
        self.amap = amap
        #: one arena per lease this process attached, in grant order;
        #: an arena takes placements exactly while its lease is live
        self._arenas: dict[Reservation, FreeList] = {}
        self._allocations: dict[int, Allocation] = {}
        self.local_bytes = 0
        self.remote_bytes = 0

    # -- growing the region ------------------------------------------------
    def add_reservation(self, reservation: Reservation) -> None:
        """Attach a remote lease as an arena."""
        self._arenas[reservation] = FreeList(
            reservation.prefixed_start,
            reservation.size,
            align=self.aspace.page_bytes,
        )

    def _live(self, reservation: Reservation) -> bool:
        return not self.leases.state_of(reservation).terminal

    @property
    def remote_free_bytes(self) -> int:
        return sum(
            fl.free_bytes for res, fl in self._arenas.items() if self._live(res)
        )

    def holds(self, reservation: Reservation) -> bool:
        """Does any allocation of this process sit on *reservation*?"""
        return any(
            a.reservation == reservation for a in self._allocations.values()
        )

    def retire_reservation(
        self, reservation: Reservation, epoch: Optional[int] = None
    ) -> None:
        """Poison this process's pages on an ended lease.

        The frames are gone (donor crash) or may be another tenant's
        (expiry, fencing): a touch raises
        :class:`~repro.errors.RemoteAccessError` blaming the donor at
        incarnation *epoch* (``None`` while the donor is alive).
        """
        page = self.aspace.page_bytes
        for alloc in self._allocations.values():
            if alloc.reservation == reservation:
                for i in range(-(-alloc.size // page)):
                    self.aspace.poison_page(
                        alloc.vaddr + i * page, reservation.donor_node, epoch
                    )

    # -- recovery hooks (driven by cluster/rebalance.py) -------------------
    def lost_allocations(self, donor: int) -> list[Allocation]:
        """Live allocations stranded on *donor*'s ended leases, by vaddr."""
        return sorted(
            (
                a
                for a in self._allocations.values()
                if a.reservation is not None
                and a.reservation.donor_node == donor
                and not self._live(a.reservation)
            ),
            key=lambda a: a.vaddr,
        )

    def rebind_allocation(self, vaddr: int, reservation: Reservation) -> int:
        """Move an allocation's frames onto the live lease *reservation*.

        Carves replacement frames out of the lease's arena and updates
        the allocation record; the caller re-materializes page contents
        and rewrites the PTEs. Returns the new physical start address.
        """
        alloc = self.allocation_at(vaddr)
        if not alloc.remote:
            raise AllocationError(
                f"allocation at {vaddr:#x} is local — nothing to rebind"
            )
        if not self._live(reservation):
            raise AllocationError(
                f"cannot rebind {vaddr:#x} onto ended lease at "
                f"{reservation.prefixed_start:#x}"
            )
        page = self.aspace.page_bytes
        rounded = -(-alloc.size // page) * page
        phys = self._arenas[reservation].alloc(rounded)
        self._allocations[vaddr] = Allocation(
            vaddr=vaddr,
            size=alloc.size,
            phys_start=phys,
            reservation=reservation,
        )
        return phys

    # -- the interposed entry points -----------------------------------------
    def malloc(self, size: int, placement: Placement = Placement.AUTO) -> int:
        """Allocate *size* bytes; returns the virtual address.

        Exactly what the interposed ``malloc`` does: pick frames, map
        pages (prefixed for remote frames), hand back a plain pointer.
        """
        if size <= 0:
            raise AllocationError(f"malloc size must be positive: {size}")
        page = self.aspace.page_bytes
        num_pages = -(-size // page)

        if placement is Placement.LOCAL:
            return self._alloc_local(size, num_pages)
        if placement is Placement.REMOTE:
            return self._alloc_remote(size, num_pages)
        try:
            return self._alloc_local(size, num_pages)
        except AllocationError:
            return self._alloc_remote(size, num_pages)

    def free(self, vaddr: int) -> None:
        """Release an allocation made by :meth:`malloc`."""
        try:
            alloc = self._allocations.pop(vaddr)
        except KeyError:
            raise AllocationError(f"free of unknown pointer {vaddr:#x}") from None
        page = self.aspace.page_bytes
        num_pages = -(-alloc.size // page)
        for i in range(num_pages):
            self.aspace.unmap_page(vaddr + i * page)
        rounded = num_pages * page
        if alloc.reservation is not None:
            if self._live(alloc.reservation):
                # an ended lease's frames cannot return to any freelist —
                # they are gone or another tenant's; only accounting drops
                self._arenas[alloc.reservation].free(alloc.phys_start, rounded)
            self.remote_bytes -= rounded
        else:
            self.oslite.free_local(alloc.phys_start, rounded)
            self.local_bytes -= rounded

    def allocation_at(self, vaddr: int) -> Allocation:
        try:
            return self._allocations[vaddr]
        except KeyError:
            raise AllocationError(f"no allocation at {vaddr:#x}") from None

    # -- internals ----------------------------------------------------------
    def _alloc_local(self, size: int, num_pages: int) -> int:
        phys = self.oslite.alloc_local(num_pages * self.aspace.page_bytes)
        vaddr = self._map(phys, num_pages, remote=False)
        self._allocations[vaddr] = Allocation(
            vaddr=vaddr, size=size, phys_start=phys, reservation=None
        )
        self.local_bytes += num_pages * self.aspace.page_bytes
        return vaddr

    def _alloc_remote(self, size: int, num_pages: int) -> int:
        rounded = num_pages * self.aspace.page_bytes
        for reservation, freelist in self._arenas.items():
            if not self._live(reservation):
                continue
            try:
                phys = freelist.alloc(rounded)
            except AllocationError:
                continue
            vaddr = self._map(phys, num_pages, remote=True)
            self._allocations[vaddr] = Allocation(
                vaddr=vaddr, size=size, phys_start=phys, reservation=reservation
            )
            self.remote_bytes += rounded
            return vaddr
        raise AllocationError(
            f"no remote arena can satisfy {rounded:#x} bytes "
            f"(remote free={self.remote_free_bytes:#x}); "
            "reserve more memory from a donor first"
        )

    def _map(self, phys_start: int, num_pages: int, remote: bool) -> int:
        page = self.aspace.page_bytes
        vaddr = self.aspace.reserve_virtual(num_pages)
        for i in range(num_pages):
            self.aspace.map_page(
                vaddr + i * page,
                PTE(
                    phys_page=phys_start + i * page,
                    writable=True,
                    remote=remote,
                    pinned=remote,  # donated frames are never swapped
                ),
            )
        return vaddr
