"""Memory regions (Section III-A, Fig. 1).

A *memory region* is the single coherency domain a node's processes
live in: one or more portions of physical main memory, possibly spread
over several nodes, accessible only from the owning node's processors.
There are always exactly as many regions as nodes; what changes
dynamically is each region's extent.

Invariants enforced here (the paper's correctness argument):

* regions never overlap — a physical byte belongs to at most one
  region, so no two coherency domains ever share cacheable data;
* a region always contains its node's private memory;
* remote segments always come from a donor's donation pool and carry
  the donor's prefix.

A remote segment lives as long as the lease that added it: however the
lease ends, :func:`repro.cluster.health.end_lease` drops it. The
segment list stays a record of its own on purpose — it is the
cluster-wide ground truth, which a stale borrower's lease table can
disagree with after a donor-side reclaim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RegionError
from repro.mem.addressmap import AddressMap

__all__ = ["Segment", "MemoryRegion", "RegionManager"]


@dataclass(frozen=True)
class Segment:
    """A contiguous physical slice inside one region.

    ``start`` is a *prefixed* physical address for remote segments and
    a plain local address (prefix 0) for the home segment.
    """

    owner_node: int
    start: int
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise RegionError(f"segment size must be positive: {self.size}")
        if self.owner_node < 1:
            raise RegionError(f"invalid owner node {self.owner_node}")

    @property
    def end(self) -> int:
        return self.start + self.size

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end


@dataclass
class MemoryRegion:
    """The memory region of one node."""

    home_node: int
    segments: list[Segment] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return sum(s.size for s in self.segments)

    @property
    def remote_bytes(self) -> int:
        return sum(s.size for s in self.segments if s.owner_node != self.home_node)

    @property
    def donor_nodes(self) -> list[int]:
        return sorted(
            {s.owner_node for s in self.segments if s.owner_node != self.home_node}
        )

    def contains(self, addr: int) -> bool:
        return any(s.contains(addr) for s in self.segments)


class RegionManager:
    """Cluster-wide region bookkeeping + invariant checking."""

    def __init__(self, amap: AddressMap, num_nodes: int) -> None:
        if num_nodes < 1:
            raise RegionError("need at least one node")
        self.amap = amap
        self.num_nodes = num_nodes
        self.regions: dict[int, MemoryRegion] = {
            n: MemoryRegion(home_node=n) for n in range(1, num_nodes + 1)
        }
        #: per-region damage map written during recovery: home node ->
        #: {prefixed line address on the dead donor -> (donor id,
        #: declared incarnation epoch)}, the same blame a lost line's
        #: page carries. A line appears here iff it was dirty-and-lost —
        #: written by the tenant after its last recoverable snapshot, so
        #: no source could re-materialize it. Everything else healed
        #: cleanly.
        self.damage: dict[int, dict[int, tuple[int, int]]] = {}

    def region_of(self, node: int) -> MemoryRegion:
        try:
            return self.regions[node]
        except KeyError:
            raise RegionError(f"no region for node {node}") from None

    # -- mutation ---------------------------------------------------------
    def add_home_segment(self, node: int, start: int, size: int) -> Segment:
        """Register a node's own private memory as part of its region."""
        seg = Segment(owner_node=node, start=start, size=size)
        self._check_no_overlap(seg)
        self.region_of(node).segments.append(seg)
        return seg

    def add_remote_segment(
        self, node: int, donor: int, prefixed_start: int, size: int
    ) -> Segment:
        """Extend *node*'s region with a donated slice of *donor*."""
        if donor == node:
            raise RegionError(
                f"node {node} cannot hold a prefixed segment of itself "
                "(the overlapped segment must stay unused)"
            )
        if self.amap.node_of(prefixed_start) != donor:
            raise RegionError(
                f"segment start {prefixed_start:#x} does not carry "
                f"donor {donor}'s prefix"
            )
        seg = Segment(owner_node=donor, start=prefixed_start, size=size)
        self._check_no_overlap(seg)
        self.region_of(node).segments.append(seg)
        return seg

    def remove_segment(self, node: int, segment: Segment) -> None:
        region = self.region_of(node)
        try:
            region.segments.remove(segment)
        except ValueError:
            raise RegionError(
                f"region {node} does not contain segment {segment}"
            ) from None

    def record_damage(
        self, node: int, prefixed_line: int, donor: int, epoch: int
    ) -> None:
        """Record one dirty-and-lost line in *node*'s region damage map,
        blaming incarnation *epoch* of *donor*."""
        self.damage.setdefault(node, {})[prefixed_line] = (donor, epoch)

    def damage_map(self, node: int) -> dict[int, tuple[int, int]]:
        """A copy of *node*'s damage map (prefixed line -> (donor, epoch))."""
        return dict(self.damage.get(node, {}))

    # -- queries ---------------------------------------------------------------
    def owner_region_of_addr(self, addr: int, accessing_node: int) -> MemoryRegion:
        """The region an access from *accessing_node* lands in.

        Raises :class:`RegionError` if the address lies outside the
        accessing node's region — the isolation property of Fig. 1.
        """
        region = self.region_of(accessing_node)
        if not region.contains(addr):
            raise RegionError(
                f"node {accessing_node} accessed {addr:#x} outside its region"
            )
        return region

    def check_invariants(self) -> None:
        """Regions are pairwise disjoint in *physical* space."""
        claimed: list[tuple[int, int, int, int]] = []  # (owner, lo, hi, region)
        for region in self.regions.values():
            for seg in region.segments:
                lo = self.amap.strip_node(seg.start)
                claimed.append((seg.owner_node, lo, lo + seg.size, region.home_node))
        claimed.sort()
        for (o1, lo1, hi1, r1), (o2, lo2, hi2, r2) in zip(claimed, claimed[1:]):
            if o1 == o2 and lo2 < hi1:
                raise RegionError(
                    f"regions {r1} and {r2} overlap on node {o1}: "
                    f"[{lo1:#x},{hi1:#x}) vs [{lo2:#x},{hi2:#x})"
                )

    # -- internals ----------------------------------------------------------
    def _check_no_overlap(self, new: Segment) -> None:
        # home segments start at local (prefix 0) addresses, which
        # strip_node leaves unchanged
        new_lo = self.amap.strip_node(new.start)
        new_hi = new_lo + new.size
        for region in self.regions.values():
            for seg in region.segments:
                if seg.owner_node != new.owner_node:
                    continue
                lo = self.amap.strip_node(seg.start)
                if new_lo < lo + seg.size and lo < new_hi:
                    raise RegionError(
                        f"new segment [{new_lo:#x},{new_hi:#x}) on node "
                        f"{new.owner_node} overlaps region {region.home_node}"
                    )
