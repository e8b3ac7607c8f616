"""Process-level user API.

A :class:`Session` is what an application "running on" one node sees:
a virtual address space, an interposed allocator, and load/store
operations issued through real cores. It is the public surface the
examples and the packet-level benchmarks program against.

Every access method exists in two forms:

* ``g_*`` generators, composable inside simulation processes (the
  multi-threaded benchmarks spawn one process per thread);
* plain methods that run the generator to completion synchronously —
  convenient for single-threaded scripts and tests.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro.cluster.malloc import Placement, RegionAllocator
from repro.cluster.reservation import Reservation
from repro.errors import ConfigError
from repro.mem.paging import AddressSpace
from repro.units import PAGE_SIZE

__all__ = ["Session"]

#: Extra latency charged for a TLB miss (page-table walk through the
#: cache hierarchy; constant, as the walk hits local memory).
TLB_WALK_NS: float = 60.0


class Session:
    """An application bound to one node of the cluster."""

    def __init__(self, cluster, node_id: int, page_bytes: int = PAGE_SIZE) -> None:
        self.cluster = cluster
        self.node = cluster.node(node_id)
        self.node_id = node_id
        self.sim = cluster.sim
        self.aspace = AddressSpace(
            page_bytes=page_bytes, name=f"proc@n{node_id}"
        )
        self.allocator = RegionAllocator(
            self.node.os, self.aspace, cluster.amap
        )
        #: optional Section IV-B discipline checker (attach_discipline)
        self.discipline = None
        #: recoverable snapshots: allocation vaddr -> {page vaddr: bytes}.
        #: Stands in for the owner's backing store / swap tier — the
        #: clean copy recovery re-materializes pages from. Pages written
        #: after their last checkpoint are dirty-and-lost if the donor
        #: dies (reported precisely, per line).
        self._shadow: dict[int, dict[int, bytes]] = {}

    # -- memory management ------------------------------------------------
    def borrow_remote(self, donor: int, size: int) -> Reservation:
        """Grow this node's region and make the lease allocatable."""
        reservation = self.cluster.borrow(self.node_id, donor, size)
        self.allocator.add_reservation(reservation)
        return reservation

    def malloc(self, size: int, placement: Placement = Placement.AUTO) -> int:
        """Interposed malloc; returns a virtual address."""
        return self.allocator.malloc(size, placement)

    def free(self, vaddr: int) -> None:
        self.allocator.free(vaddr)
        self._shadow.pop(vaddr, None)

    # -- recoverable snapshots --------------------------------------------
    def checkpoint(self, vaddr: int) -> None:
        """Snapshot an allocation's current contents as its clean copy.

        Untimed and functional — the analogue of the page finding its
        way to the owner's swap tier / backing store, which benchmarks
        leave unmeasured. After a donor death, recovery re-materializes
        the allocation's pages from this copy; lines the application
        dirtied *after* the snapshot are precisely the dirty-and-lost
        ones.
        """
        alloc = self.allocator.allocation_at(vaddr)
        page = self.aspace.page_bytes
        pages: dict[int, bytes] = {}
        # walk the page table directly: a snapshot must not perturb the
        # TLB or the walk counters a timed run depends on
        for i in range(-(-alloc.size // page)):
            pv = vaddr + i * page
            pte = self.aspace.page_table.lookup(pv // page)
            assert pte is not None, "checkpoint of unmapped page"
            pages[pv] = self.cluster.fn_read(
                self._core(0)._prefixed(pte.phys_page), page
            )
        self._shadow[vaddr] = pages

    def shadow_of(self, vaddr: int) -> "dict[int, bytes] | None":
        """The last checkpoint of the allocation at *vaddr*, if any."""
        return self._shadow.get(vaddr)

    # -- optional runtime checking ---------------------------------------
    def attach_discipline(self, strict: bool = True):
        """Monitor cached remote accesses for Section IV-B violations.

        Returns the attached
        :class:`~repro.cluster.discipline.RemoteAccessDiscipline`; in
        strict mode any stale-data hazard (e.g. two cores writing a
        remote line without an intervening flush) raises immediately —
        the simulation analogue of running under a race detector.
        """
        from repro.cluster.discipline import RemoteAccessDiscipline

        self.discipline = RemoteAccessDiscipline(
            amap=self.cluster.amap,
            local_node=self.node_id,
            strict=strict,
            line_bytes=self.node.config.cache.line_bytes,
        )
        return self.discipline

    def _check(self, core: int, paddr: int, size: int, is_write: bool,
               cached: bool) -> None:
        if self.discipline is not None and cached:
            self.discipline.on_access(core, paddr, size, is_write)

    # -- generator access (for use inside simulation processes) ------------
    def g_read(
        self, vaddr: int, size: int, core: int = 0, cached: bool = True
    ) -> Generator:
        """Load *size* bytes at virtual *vaddr* via core *core*."""
        c = self._core(core)
        chunks: list[bytes] = []
        for part_vaddr, part_size in self._split(vaddr, size):
            trans = self.aspace.translate(part_vaddr)
            if trans.pte.damaged:
                self.aspace.check_lost(part_vaddr, part_size)
            if not trans.tlb_hit:
                yield self.sim.timeout(TLB_WALK_NS)
            self._check(core, trans.phys_addr, part_size, False, cached)
            if cached:
                data = yield from c.cached_read(trans.phys_addr, part_size)
            else:
                data = yield from c.read(trans.phys_addr, part_size)
            chunks.append(data)
        return b"".join(chunks)

    def g_write(
        self, vaddr: int, data: bytes, core: int = 0, cached: bool = True
    ) -> Generator:
        """Store *data* at virtual *vaddr* via core *core*."""
        c = self._core(core)
        offset = 0
        for part_vaddr, part_size in self._split(vaddr, len(data)):
            trans = self.aspace.translate(part_vaddr)
            if trans.pte.damaged:
                self.aspace.heal_lost(part_vaddr, part_size)
            if not trans.tlb_hit:
                yield self.sim.timeout(TLB_WALK_NS)
            part = data[offset : offset + part_size]
            self._check(core, trans.phys_addr, len(part), True, cached)
            if cached:
                yield from c.cached_write(trans.phys_addr, part)
            else:
                yield from c.write(trans.phys_addr, part)
            offset += part_size
        return None

    def g_coherent_read(
        self, vaddr: int, size: int, core: int = 0
    ) -> Generator:
        """Load shared intra-node data through the MESI domain.

        Only valid for locally-backed allocations: the prototype keeps
        no coherence for the RMC-mapped range, so a remote address here
        raises (Section IV-B's restriction, enforced)."""
        c = self._core(core)
        chunks: list[bytes] = []
        for part_vaddr, part_size in self._split(vaddr, size):
            trans = self.aspace.translate(part_vaddr)
            if not trans.tlb_hit:
                yield self.sim.timeout(TLB_WALK_NS)
            data = yield from c.coherent_read(trans.phys_addr, part_size)
            chunks.append(data)
        return b"".join(chunks)

    def g_coherent_write(
        self, vaddr: int, data: bytes, core: int = 0
    ) -> Generator:
        """Store shared intra-node data through the MESI domain."""
        c = self._core(core)
        offset = 0
        for part_vaddr, part_size in self._split(vaddr, len(data)):
            trans = self.aspace.translate(part_vaddr)
            if not trans.tlb_hit:
                yield self.sim.timeout(TLB_WALK_NS)
            yield from c.coherent_write(
                trans.phys_addr, data[offset : offset + part_size]
            )
            offset += part_size
        return None

    def coherent_read(self, vaddr: int, size: int, core: int = 0) -> bytes:
        return self.sim.run_process(self.g_coherent_read(vaddr, size, core))

    def coherent_write(self, vaddr: int, data: bytes, core: int = 0) -> None:
        self.sim.run_process(self.g_coherent_write(vaddr, data, core))

    def g_flush(self, core: int = 0) -> Generator:
        """Flush the core's cache (before a parallel read-only phase)."""
        yield from self._core(core).flush_cache()
        if self.discipline is not None:
            self.discipline.on_flush(core)
        return None

    # -- synchronous convenience --------------------------------------------
    def read(
        self, vaddr: int, size: int, core: int = 0, cached: bool = True
    ) -> bytes:
        return self.sim.run_process(self.g_read(vaddr, size, core, cached))

    def write(
        self, vaddr: int, data: bytes, core: int = 0, cached: bool = True
    ) -> None:
        self.sim.run_process(self.g_write(vaddr, data, core, cached))

    def read_u64(self, vaddr: int, core: int = 0, cached: bool = True) -> int:
        return int.from_bytes(self.read(vaddr, 8, core, cached), "little")

    def write_u64(
        self, vaddr: int, value: int, core: int = 0, cached: bool = True
    ) -> None:
        self.write(
            vaddr, int(value).to_bytes(8, "little", signed=False), core, cached
        )

    def bulk_read(self, vaddr: int, size: int, core: int = 0) -> bytes:
        """Untimed functional read — the mirror of :meth:`bulk_write`
        for population/setup phases (no events, no cache traffic).
        Damaged pages go through ``check_lost``: reading a lost line
        raises, as a timed read would."""
        c = self._core(core)
        parts = []
        for part_vaddr, part_size in self._split(vaddr, size):
            trans = self.aspace.translate(part_vaddr)
            if trans.pte.damaged:
                self.aspace.check_lost(part_vaddr, part_size)
            parts.append(
                self.cluster.fn_read(c._prefixed(trans.phys_addr), part_size)
            )
        return b"".join(parts)

    def bulk_write(self, vaddr: int, data: bytes, core: int = 0) -> None:
        """Untimed functional write — for population/setup phases that
        benchmarks deliberately leave unmeasured (accessor protocol of
        the packet-tier workloads)."""
        data = bytes(data)
        c = self._core(core)
        offset = 0
        for part_vaddr, part_size in self._split(vaddr, len(data)):
            trans = self.aspace.translate(part_vaddr)
            if trans.pte.damaged:
                self.aspace.heal_lost(part_vaddr, part_size)
            self.cluster.fn_write(
                c._prefixed(trans.phys_addr), data[offset : offset + part_size]
            )
            offset += part_size

    def write_array(self, vaddr: int, values: np.ndarray, core: int = 0) -> None:
        self.write(vaddr, np.ascontiguousarray(values).tobytes(), core)

    # -- the columnar data plane (DESIGN.md §13) ---------------------------
    def g_read_array(
        self, vaddr: int, count: int, dtype, core: int = 0
    ) -> Generator:
        """Typed read returning a fresh **writable** array, one copy total.

        Timing is charged through the cached span path over physically
        contiguous frame runs (O(bursts) simulated events); the data is
        then copied once from the owner's backing storage into the
        result — no ``bytes`` assembly, no ``frombuffer(...).copy()``
        double copy. Single-run reads (any column that fits one stretch
        of contiguous frames) take the backing store's chunk-slice fast
        path directly.
        """
        dt = np.dtype(dtype)
        if count == 0:
            return np.empty(0, dtype=dt)
        c = self._core(core)
        runs = yield from self._g_column_touch(
            vaddr, count * dt.itemsize, core
        )
        if len(runs) == 1:
            return self.cluster.fn_read_array(
                c._prefixed(runs[0][0]), count, dt
            )
        out = np.empty(count, dtype=dt)
        mv = memoryview(out).cast("B")
        pos = 0
        for start, rsize, _damaged in runs:
            self.cluster.fn_read_into(c._prefixed(start), mv[pos : pos + rsize])
            pos += rsize
        return out

    def g_view_array(
        self, vaddr: int, count: int, dtype, core: int = 0
    ) -> Generator:
        """A typed column window over region-backed memory.

        Same timing as :meth:`g_read_array`; the data comes back as a
        **read-only zero-copy ndarray view** straight over the owner's
        backing chunk when the window is *view-legal* — one physically
        contiguous frame run, inside one storage chunk, no damaged
        pages — and as a fresh writable copy otherwise. Views alias
        live simulated memory: they observe later writes and must not
        outlive the scan that requested them (lifetime rules in
        DESIGN.md §13).
        """
        dt = np.dtype(dtype)
        if count == 0:
            return np.empty(0, dtype=dt)
        c = self._core(core)
        runs = yield from self._g_column_touch(
            vaddr, count * dt.itemsize, core
        )
        if len(runs) == 1 and not runs[0][2]:
            view = self.cluster.fn_view_array(
                c._prefixed(runs[0][0]), count, dt
            )
            if view is not None:
                return view
        out = np.empty(count, dtype=dt)
        mv = memoryview(out).cast("B")
        pos = 0
        for start, rsize, _damaged in runs:
            self.cluster.fn_read_into(c._prefixed(start), mv[pos : pos + rsize])
            pos += rsize
        return out

    def read_array(
        self, vaddr: int, count: int, dtype, core: int = 0
    ) -> np.ndarray:
        return self.sim.run_process(
            self.g_read_array(vaddr, count, dtype, core)
        )

    def view_array(
        self, vaddr: int, count: int, dtype, core: int = 0
    ) -> np.ndarray:
        return self.sim.run_process(
            self.g_view_array(vaddr, count, dtype, core)
        )

    # -- internals ----------------------------------------------------------
    def _g_column_touch(self, vaddr: int, size: int, core: int) -> Generator:
        """Charge a column read's timing; return its physical runs.

        Translates the span page by page, merges pages whose frames are
        physically contiguous into runs, then charges every run through
        :meth:`Core.cached_touch` — page-table walks collapse into one
        timeout on a batching core and stay per-walk on a scalar
        reference core (identical total time, enforced by the
        twin-cluster suites). Damaged pages go through ``check_lost``
        (touching a lost line raises) and taint their run so the view
        plane falls back to a copy.
        """
        c = self._core(core)
        runs: list[list] = []
        walks = 0
        for part_vaddr, part_size in self._split(vaddr, size):
            trans = self.aspace.translate(part_vaddr)
            if trans.pte.damaged:
                self.aspace.check_lost(part_vaddr, part_size)
            if not trans.tlb_hit:
                walks += 1
            if runs and runs[-1][0] + runs[-1][1] == trans.phys_addr:
                runs[-1][1] += part_size
                runs[-1][2] = runs[-1][2] or trans.pte.damaged
            else:
                runs.append([trans.phys_addr, part_size, trans.pte.damaged])
        if walks:
            if c.batch:
                yield self.sim.timeout(walks * TLB_WALK_NS)
            else:
                for _ in range(walks):
                    yield self.sim.timeout(TLB_WALK_NS)
        for start, rsize, _damaged in runs:
            self._check(core, start, rsize, False, True)
            yield from c.cached_touch(start, rsize, is_write=False)
        return runs

    def _core(self, idx: int):
        try:
            return self.node.cores[idx]
        except IndexError:
            raise ConfigError(
                f"node {self.node_id} has no core {idx} "
                f"(0..{len(self.node.cores) - 1})"
            ) from None

    def _split(self, vaddr: int, size: int):
        """Split an access at page boundaries (translations differ)."""
        page = self.aspace.page_bytes
        out = []
        pos = vaddr
        end = vaddr + size
        while pos < end:
            boundary = (pos // page + 1) * page
            take = min(end, boundary) - pos
            out.append((pos, take))
            pos += take
        return out
