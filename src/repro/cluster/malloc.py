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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cluster.oslite import FreeList, OSLite
from repro.cluster.reservation import Reservation
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
    remote: bool
    #: index of the remote arena, or -1 for local
    arena: int


@dataclass
class _Arena:
    freelist: FreeList
    donor_node: int
    #: the donor crashed: no new placements, frees are bookkeeping-only
    dead: bool = False


class RegionAllocator:
    """Per-process allocator over a node's memory region."""

    def __init__(
        self,
        oslite: OSLite,
        address_space: AddressSpace,
        amap: AddressMap,
    ) -> None:
        self.oslite = oslite
        self.aspace = address_space
        self.amap = amap
        self._remote_arenas: list[_Arena] = []
        self._allocations: dict[int, Allocation] = {}
        self.local_bytes = 0
        self.remote_bytes = 0

    # -- growing the region ------------------------------------------------
    def add_reservation(self, reservation: Reservation) -> int:
        """Attach a remote lease as an arena; returns its index."""
        arena = _Arena(
            freelist=FreeList(
                reservation.prefixed_start,
                reservation.size,
                align=self.aspace.page_bytes,
            ),
            donor_node=reservation.donor_node,
        )
        self._remote_arenas.append(arena)
        return len(self._remote_arenas) - 1

    @property
    def remote_free_bytes(self) -> int:
        return sum(
            a.freelist.free_bytes for a in self._remote_arenas if not a.dead
        )

    def revoke_donor(self, donor: int, epoch: int | None = None) -> int:
        """Handle *donor*'s crash: poison its pages, retire its arenas.

        The paper is explicit that remote memory adds no fault
        tolerance — the data on a dead donor is simply gone. Mappings
        stay in the page table but are marked poisoned, so a touch
        raises :class:`~repro.errors.RemoteAccessError` instead of
        fabricating stale data (blaming *donor* at incarnation *epoch*),
        and new allocations never land on the dead node. Returns the
        number of live allocations lost.
        """
        lost = 0
        page = self.aspace.page_bytes
        for arena in self._remote_arenas:
            if arena.donor_node == donor:
                arena.dead = True
        for alloc in self._allocations.values():
            if not alloc.remote:
                continue
            if self._remote_arenas[alloc.arena].donor_node != donor:
                continue
            for i in range(-(-alloc.size // page)):
                self.aspace.poison_page(alloc.vaddr + i * page, donor, epoch)
            lost += 1
        return lost

    def expire_reservation(self, reservation: Reservation) -> int:
        """Retire the arena backed by an *expired* lease.

        The donor is (presumed) alive but the lease lapsed — the donor
        may have reclaimed and re-granted the range, so the frames must
        be treated exactly like a crashed donor's: the arena dies and
        the allocations on it are poisoned. Returns allocations lost.
        """
        lost = 0
        page = self.aspace.page_bytes
        expired: set[int] = set()
        for idx, arena in enumerate(self._remote_arenas):
            if (
                arena.freelist.base == reservation.prefixed_start
                and arena.donor_node == reservation.donor_node
                and not arena.dead
            ):
                arena.dead = True
                expired.add(idx)
        for alloc in self._allocations.values():
            if alloc.remote and alloc.arena in expired:
                for i in range(-(-alloc.size // page)):
                    self.aspace.poison_page(
                        alloc.vaddr + i * page, donor=reservation.donor_node
                    )
                lost += 1
        return lost

    # -- recovery hooks (driven by cluster/rebalance.py) -------------------
    def lost_allocations(self, donor: int) -> list[Allocation]:
        """Live allocations stranded on *donor*'s dead arenas, by vaddr."""
        return sorted(
            (
                a
                for a in self._allocations.values()
                if a.remote
                and self._remote_arenas[a.arena].dead
                and self._remote_arenas[a.arena].donor_node == donor
            ),
            key=lambda a: a.vaddr,
        )

    def rebind_allocation(self, vaddr: int, arena_idx: int) -> int:
        """Move an allocation's frames onto the (healthy) arena *arena_idx*.

        Carves replacement frames out of the new arena and updates the
        allocation record; the caller re-materializes page contents and
        rewrites the PTEs. Returns the new physical start address.
        """
        alloc = self.allocation_at(vaddr)
        if not alloc.remote:
            raise AllocationError(
                f"allocation at {vaddr:#x} is local — nothing to rebind"
            )
        arena = self._remote_arenas[arena_idx]
        if arena.dead:
            raise AllocationError(
                f"cannot rebind {vaddr:#x} onto dead arena {arena_idx}"
            )
        page = self.aspace.page_bytes
        rounded = -(-alloc.size // page) * page
        phys = arena.freelist.alloc(rounded)
        self._allocations[vaddr] = Allocation(
            vaddr=vaddr,
            size=alloc.size,
            phys_start=phys,
            remote=True,
            arena=arena_idx,
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
        if alloc.remote:
            arena = self._remote_arenas[alloc.arena]
            if not arena.dead:
                # a dead donor's frames cannot return to any freelist —
                # the memory no longer exists; only the accounting drops
                arena.freelist.free(alloc.phys_start, rounded)
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
            vaddr=vaddr, size=size, phys_start=phys, remote=False, arena=-1
        )
        self.local_bytes += num_pages * self.aspace.page_bytes
        return vaddr

    def _alloc_remote(self, size: int, num_pages: int) -> int:
        rounded = num_pages * self.aspace.page_bytes
        for idx, arena in enumerate(self._remote_arenas):
            if arena.dead:
                continue
            try:
                phys = arena.freelist.alloc(rounded)
            except AllocationError:
                continue
            vaddr = self._map(phys, num_pages, remote=True)
            self._allocations[vaddr] = Allocation(
                vaddr=vaddr, size=size, phys_start=phys, remote=True, arena=idx
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
