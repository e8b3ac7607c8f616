"""Virtual memory: page tables and per-process address spaces.

Implements exactly the machinery Section III-B reviews: a load/store
presents a virtual address; the TLB is consulted; on a miss the page
table is walked and the TLB refilled; the resulting **physical address
may carry a remote node prefix**, in which case the hardware forwards
the access to the RMC with no software on the path.

The page table stores *prefixed* physical page bases, so mapping a
virtual page to remote memory is nothing more than writing a prefixed
address into the table — the paper's key trick (Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace
from typing import Iterator, Optional

from repro.errors import AddressError, AllocationError, FaultError, RemoteAccessError
from repro.mem.tlb import TLB
from repro.units import CACHE_LINE, PAGE_SIZE

__all__ = ["PTE", "PageTable", "AddressSpace", "Translation"]


@dataclass(frozen=True)
class PTE:
    """One page-table entry."""

    #: prefixed physical base address of the frame
    phys_page: int
    writable: bool = True
    #: frame lives on a remote node (informational; the hardware does
    #: not care — only the prefix matters)
    remote: bool = False
    #: frame may never be swapped (all remote reservations are pinned)
    pinned: bool = False
    #: the backing frame was revoked (its donor died); a touch raises
    #: :class:`~repro.errors.RemoteAccessError`, machine-check style
    poisoned: bool = False
    #: the page was recovered after a donor death but some of its lines
    #: were dirty-and-lost; accesses must consult the address space's
    #: per-line damage record (precise loss, not whole-page loss)
    damaged: bool = False


@dataclass(frozen=True)
class Translation:
    """Result of a virtual-address translation."""

    phys_addr: int
    tlb_hit: bool
    pte: PTE


class PageTable:
    """vpn -> PTE mapping for one process."""

    def __init__(self, page_bytes: int = PAGE_SIZE) -> None:
        if page_bytes < 512 or page_bytes & (page_bytes - 1):
            raise AddressError(
                f"page size must be a power of two >= 512, got {page_bytes}"
            )
        self.page_bytes = page_bytes
        self._entries: dict[int, PTE] = {}

    def map(self, vpn: int, pte: PTE) -> None:
        if vpn in self._entries:
            raise AddressError(f"vpn {vpn:#x} is already mapped")
        if pte.phys_page % self.page_bytes:
            raise AddressError(
                f"frame base {pte.phys_page:#x} not page-aligned"
            )
        self._entries[vpn] = pte

    def unmap(self, vpn: int) -> PTE:
        try:
            return self._entries.pop(vpn)
        except KeyError:
            raise AddressError(f"vpn {vpn:#x} is not mapped") from None

    def lookup(self, vpn: int) -> Optional[PTE]:
        return self._entries.get(vpn)

    def poison(self, vpn: int) -> None:
        """Mark a mapped page's backing frame as lost (donor crash).

        The mapping stays — the process still "owns" the virtual page —
        but translation will fail loudly instead of fabricating data.
        """
        try:
            pte = self._entries[vpn]
        except KeyError:
            raise AddressError(f"vpn {vpn:#x} is not mapped") from None
        self._entries[vpn] = _dc_replace(pte, poisoned=True)

    def replace(self, vpn: int, pte: PTE) -> None:
        """Overwrite a mapped entry in place (the recovery PTE rewrite)."""
        if vpn not in self._entries:
            raise AddressError(f"vpn {vpn:#x} is not mapped")
        if pte.phys_page % self.page_bytes:
            raise AddressError(
                f"frame base {pte.phys_page:#x} not page-aligned"
            )
        self._entries[vpn] = pte

    def entries(self) -> Iterator[tuple[int, PTE]]:
        return iter(sorted(self._entries.items()))

    def __len__(self) -> int:
        return len(self._entries)


class AddressSpace:
    """A process's virtual address space.

    Virtual ranges are handed out by a simple bump allocator starting
    at ``base`` (like ``mmap`` regions growing upward); translations go
    TLB-first, then page-table walk.
    """

    #: default first virtual address handed out (skip a null guard zone)
    DEFAULT_BASE = 0x1000_0000

    def __init__(
        self,
        page_bytes: int = PAGE_SIZE,
        tlb_entries: int = 512,
        base: int = DEFAULT_BASE,
        name: str = "as",
    ) -> None:
        self.name = name
        self.page_table = PageTable(page_bytes)
        self.tlb = TLB(tlb_entries, name=f"{name}.tlb")
        self._next_vaddr = base
        #: page-table walks performed (each is a slow OS-free HW walk)
        self.walks = 0
        #: faults raised for unmapped pages
        self.faults = 0
        #: machine-check faults raised for poisoned (revoked) pages
        self.poison_faults = 0
        #: faults raised for dirty-and-lost lines on recovered pages
        self.damage_faults = 0
        #: vpn -> (donor node, incarnation epoch) whose death poisoned
        #: the page (context for the structured RemoteAccessError)
        self._poison_donor: dict[int, tuple[int, Optional[int]]] = {}
        #: line-aligned vaddr -> (donor node, incarnation epoch), for
        #: lines whose only copy died with a donor (set by repoint_page
        #: during recovery)
        self._lost: dict[int, tuple[int, Optional[int]]] = {}
        #: granularity of the damage record (set at first repoint)
        self._lost_line_bytes = CACHE_LINE

    @property
    def page_bytes(self) -> int:
        return self.page_table.page_bytes

    # -- virtual allocation ------------------------------------------------
    def reserve_virtual(self, num_pages: int) -> int:
        """Carve a fresh, contiguous, unmapped virtual range.

        Returns its base virtual address; pages are mapped later as the
        OS-lite backs them.
        """
        if num_pages < 1:
            raise AllocationError(f"need >= 1 page, got {num_pages}")
        vaddr = self._next_vaddr
        self._next_vaddr += num_pages * self.page_bytes
        return vaddr

    # -- mapping ---------------------------------------------------------------
    def map_page(self, vaddr: int, pte: PTE) -> None:
        if vaddr % self.page_bytes:
            raise AddressError(f"vaddr {vaddr:#x} is not page-aligned")
        self.page_table.map(vaddr // self.page_bytes, pte)

    def unmap_page(self, vaddr: int) -> PTE:
        if vaddr % self.page_bytes:
            raise AddressError(f"vaddr {vaddr:#x} is not page-aligned")
        vpn = vaddr // self.page_bytes
        self.tlb.invalidate(vpn)
        return self.page_table.unmap(vpn)

    def poison_page(
        self,
        vaddr: int,
        donor: Optional[int] = None,
        epoch: Optional[int] = None,
    ) -> None:
        """Poison a mapped page whose backing frame was revoked.

        *donor* and its incarnation *epoch* are the blame a touch of
        the page raises with.
        """
        if vaddr % self.page_bytes:
            raise AddressError(f"vaddr {vaddr:#x} is not page-aligned")
        vpn = vaddr // self.page_bytes
        # stale TLB entries would bypass the poisoned check — shoot
        # them down exactly like a real machine-check flow does
        self.tlb.invalidate(vpn)
        self.page_table.poison(vpn)
        if donor is not None:
            self._poison_donor[vpn] = (donor, epoch)

    def repoint_page(
        self,
        vaddr: int,
        new_phys_page: int,
        lost_lines: tuple[int, ...] = (),
        donor: Optional[int] = None,
        line_bytes: int = CACHE_LINE,
        epoch: Optional[int] = None,
    ) -> None:
        """Rewrite a (typically poisoned) page's translation in place.

        The recovery path's PTE rewrite: the virtual page keeps its
        identity but now points at *new_phys_page* on a healthy donor,
        the poison mark clears, and the TLB entry is shot down so the
        next access walks to the fresh translation. *lost_lines* are
        the line-aligned virtual addresses inside this page whose only
        copy died with the old donor — they are recorded in the
        per-line damage map and the page is marked ``damaged`` so
        accesses consult it (only touching a lost line raises, blaming
        *donor* at incarnation *epoch*).
        """
        if vaddr % self.page_bytes:
            raise AddressError(f"vaddr {vaddr:#x} is not page-aligned")
        if new_phys_page % self.page_bytes:
            raise AddressError(
                f"frame base {new_phys_page:#x} not page-aligned"
            )
        vpn = vaddr // self.page_bytes
        pte = self.page_table.lookup(vpn)
        if pte is None:
            raise AddressError(f"vpn {vpn:#x} is not mapped")
        for line in lost_lines:
            if line % line_bytes or not vaddr <= line < vaddr + self.page_bytes:
                raise AddressError(
                    f"lost line {line:#x} is not a line of page {vaddr:#x}"
                )
        self.tlb.invalidate(vpn)
        self.page_table.replace(
            vpn,
            _dc_replace(
                pte,
                phys_page=new_phys_page,
                poisoned=False,
                damaged=bool(lost_lines),
            ),
        )
        self._poison_donor.pop(vpn, None)
        self._lost_line_bytes = line_bytes
        blame = (donor if donor is not None else -1, epoch)
        for line in lost_lines:
            self._lost[line] = blame

    # -- damage queries -----------------------------------------------------
    def check_lost(self, vaddr: int, size: int) -> None:
        """Raise if [*vaddr*, *vaddr*+*size*) overlaps a lost line.

        Called by the access layer only for pages whose PTE carries the
        ``damaged`` mark, so undamaged runs never pay for it.
        """
        line = self._lost_line_bytes
        first = vaddr - vaddr % line
        last = (vaddr + size - 1) - (vaddr + size - 1) % line
        for base in range(first, last + line, line):
            blame = self._lost.get(base)
            if blame is not None:
                donor, epoch = blame
                self.damage_faults += 1
                raise RemoteAccessError(
                    f"{self.name}: access to {vaddr:#x} overlaps line "
                    f"{base:#x} whose only copy was dirty on donor node "
                    f"{donor} when it died",
                    node=donor,
                    epoch=epoch,
                )

    def heal_lost(self, vaddr: int, size: int) -> None:
        """Settle a write against the damage record.

        Lines *fully covered* by the write are healed — the application
        is re-initialising them, so the lost data no longer matters.
        A write that merely grazes a lost line would mix fresh bytes
        with lost ones, so partial overlap raises like a read would.
        """
        line = self._lost_line_bytes
        end = vaddr + size
        first = vaddr - vaddr % line
        last = (end - 1) - (end - 1) % line
        for base in range(first, last + line, line):
            if base not in self._lost:
                continue
            if vaddr <= base and base + line <= end:
                del self._lost[base]
            else:
                donor, epoch = self._lost[base]
                self.damage_faults += 1
                raise RemoteAccessError(
                    f"{self.name}: partial write to {vaddr:#x} grazes lost "
                    f"line {base:#x} (donor node {donor} died with the only "
                    "copy); rewrite the whole line to heal it",
                    node=donor,
                    epoch=epoch,
                )

    def lost_lines(self) -> list[tuple[int, int]]:
        """Sorted (line vaddr, donor) pairs still marked lost."""
        return sorted((line, blame[0]) for line, blame in self._lost.items())

    # -- translation -------------------------------------------------------
    def translate(self, vaddr: int) -> Translation:
        """Translate *vaddr*; TLB first, page-table walk on miss.

        Raises :class:`FaultError` for unmapped pages — in the real
        system the OS would allocate on demand; the simulator makes
        this explicit via the OS-lite allocation APIs instead.
        """
        vpn, offset = divmod(vaddr, self.page_bytes)
        phys_page = self.tlb.lookup(vpn)
        if phys_page is not None:
            pte = self.page_table.lookup(vpn)
            assert pte is not None, "TLB entry for unmapped page"
            if pte.poisoned:
                raise self._poisoned(vaddr, vpn)
            return Translation(phys_page + offset, tlb_hit=True, pte=pte)
        pte = self.page_table.lookup(vpn)
        if pte is None:
            self.faults += 1
            raise FaultError(
                f"{self.name}: access to unmapped virtual address {vaddr:#x}"
            )
        if pte.poisoned:
            raise self._poisoned(vaddr, vpn)
        self.walks += 1
        self.tlb.insert(vpn, pte.phys_page)
        return Translation(pte.phys_page + offset, tlb_hit=False, pte=pte)

    def _poisoned(self, vaddr: int, vpn: int) -> RemoteAccessError:
        """Count and build the machine check for a poisoned page."""
        self.poison_faults += 1
        donor, epoch = self._poison_donor.get(vpn, (None, None))
        return RemoteAccessError(
            f"{self.name}: access to {vaddr:#x} whose backing "
            "frame was revoked (donor node died)",
            node=donor,
            epoch=epoch,
        )

    def translate_range(self, vaddr: int, size: int) -> list[Translation]:
        """Translate every page an access of *size* bytes touches."""
        if size <= 0:
            raise AddressError(f"access size must be positive, got {size}")
        out = []
        page = self.page_bytes
        first = vaddr // page
        last = (vaddr + size - 1) // page
        for vpn in range(first, last + 1):
            start = max(vaddr, vpn * page)
            out.append(self.translate(start))
        return out
