"""The core's memory-issue model.

A core turns physical-address load/store operations into HT packets
routed over the on-board crossbar. The two structural limits the paper
calls out (Section IV-B) live here:

* up to ``local_outstanding`` (8) concurrent requests to local,
  coherent memory;
* only ``remote_outstanding`` (1) concurrent request to the RMC-mapped
  range, because the prototype presents the RMC as an HT *I/O unit* —
  "a new remote memory request cannot be issued before the previous
  one has been completed".

A client-RMC NACK (buffer full) is retried here after the configured
back-off, like the hardware retry of a posted HT transaction.

Functional/timing split for cached accesses: the simulator keeps data
authoritative in the backing stores, so a *cached* write updates the
backing store functionally (zero time) while the *timing* follows the
write-back cache model — write hits cost ``hit_ns`` and dirty lines pay
a memory write only upon eviction, issued as a ``timing_only`` packet
that moves no data. Remote ranges are cacheable in the prototype, but
coherence is not maintained for I/O memory; the workloads honor the
prototype's discipline (single writer, or parallel read-only phases
after an explicit flush).

Batching: multi-line cached/coherent accesses classify the whole span
in one pass (:meth:`Cache.access_span` / the coherence domain's span
operations), charge pure latency arithmetically, and coalesce
contiguous misses into burst packets that every timed component
charges in one event. A core built with ``batch=False`` (the cluster's
construction-time switch, ``Cluster(config, batch=False)``) takes the
scalar per-line reference path instead; the two are equivalent in sim
time, stats, and data (enforced by ``tests/cluster/test_core_batch.py``).
Bursts never cross ``burst_align_bytes`` windows, so each burst stays
within one memory controller's slice.
"""

from __future__ import annotations

from typing import Generator, Optional, Protocol

from repro.config import CoreConfig, RMCConfig
from repro.errors import ProtocolError, RemoteAccessError
from repro.ht.crossbar import Crossbar
from repro.ht.packet import (
    Packet,
    PacketType,
    TagAllocator,
    burst_runs,
    make_burst_read_req,
    make_burst_write_req,
    make_read_req,
    make_write_req,
)
from repro.mem.addressmap import AddressMap
from repro.mem.cache import Cache
from repro.mem.coherence import CoherenceDomain
from repro.sim.engine import Resource, Simulator, Store
from repro.sim.stats import Counter, Tally

__all__ = ["Core", "FunctionalMemory"]


class FunctionalMemory(Protocol):
    """Zero-time data access across the whole cluster address map.

    Provided by :class:`repro.cluster.cluster.Cluster`; resolves the
    node prefix and reads/writes the owner's backing store directly.
    Used only for the data side of cached accesses — timing always
    comes from the packet path.
    """

    def fn_read(self, paddr: int, size: int) -> bytes: ...
    def fn_write(self, paddr: int, data: bytes) -> None: ...


class Core:
    """One CPU core bound to a node's crossbar."""

    def __init__(
        self,
        sim: Simulator,
        config: CoreConfig,
        rmc_config: RMCConfig,
        amap: AddressMap,
        node_id: int,
        core_id: int,
        crossbar: Crossbar,
        tags: TagAllocator,
        cache: Optional[Cache] = None,
        functional_mem: Optional[FunctionalMemory] = None,
        coherence: Optional["CoherenceDomain"] = None,
        coherence_idx: int = 0,
        burst_align_bytes: int = 0,
        *,
        batch: bool,
    ) -> None:
        self.sim = sim
        self.config = config
        self.rmc_config = rmc_config
        self.amap = amap
        self.node_id = node_id
        self.core_id = core_id
        self.crossbar = crossbar
        self.tags = tags
        self.cache = cache
        self.functional_mem = functional_mem
        self.coherence = coherence
        self.coherence_idx = coherence_idx
        #: burst packets may not cross multiples of this (the memory
        #: interleave granularity / per-socket slice size); 0 = no limit
        self.burst_align_bytes = burst_align_bytes
        #: classify multi-line spans in one pass and coalesce bursts;
        #: False selects the scalar per-line reference path
        self.batch = batch
        #: timing-only writes move no data; zero buffers are reused
        self._zero_payloads: dict[int, bytes] = {}
        self.name = f"n{node_id}c{core_id}"
        self._reply_name = f"{self.name}.reply"
        self._local_slots = Resource(
            sim, config.local_outstanding, name=f"{self.name}.lslots"
        )
        self._remote_slots = Resource(
            sim, config.remote_outstanding, name=f"{self.name}.rslots"
        )
        self.loads = Counter(f"{self.name}.loads")
        self.stores = Counter(f"{self.name}.stores")
        self.nack_retries = Counter(f"{self.name}.nack_retries")
        self.load_latency_ns = Tally(f"{self.name}.load_latency")

    # -- raw (uncached) operations ---------------------------------------
    def read(self, paddr: int, size: int) -> Generator:
        """Load *size* bytes at physical *paddr*; returns the data."""
        self.loads.add()
        t0 = self.sim.now
        request = make_read_req(
            self.node_id, self.node_id, paddr, size, self.tags.next()
        )
        response = yield from self._issue(request)
        self.load_latency_ns.observe(self.sim.now - t0)
        return response.payload

    def write(self, paddr: int, data: bytes) -> Generator:
        """Store *data* at physical *paddr*; returns once acked."""
        self.stores.add()
        request = make_write_req(
            self.node_id, self.node_id, paddr, data, self.tags.next()
        )
        yield from self._issue(request)
        return None

    # -- cached operations -----------------------------------------------
    def cached_read(self, paddr: int, size: int) -> Generator:
        """Load through this core's write-back cache.

        Misses fetch whole lines; dirty evictions write back (timing
        only) before the demand fetch. The returned bytes are always
        the authoritative backing-store contents.
        """
        if self.cache is None or self.functional_mem is None:
            return (yield from self.read(paddr, size))
        self.loads.add()
        yield from self._touch_lines(paddr, size, is_write=False)
        return self.functional_mem.fn_read(self._prefixed(paddr), size)

    def cached_write(self, paddr: int, data: bytes) -> Generator:
        """Store through the write-back cache (data lands functionally)."""
        if self.cache is None or self.functional_mem is None:
            return (yield from self.write(paddr, data))
        self.stores.add()
        yield from self._touch_lines(paddr, len(data), is_write=True)
        self.functional_mem.fn_write(self._prefixed(paddr), data)
        return None

    def cached_touch(
        self, paddr: int, size: int, is_write: bool = False
    ) -> Generator:
        """Charge a cached access's timing without assembling its data.

        The columnar data plane splits timing from data movement: the
        span's cache classification, miss bursts and write-backs are
        charged here exactly as :meth:`cached_read` /
        :meth:`cached_write` would charge them, while the caller fetches
        (or zero-copy views) the bytes straight from functional memory.
        Counts one load/store, like its data-moving twins.
        """
        if self.cache is None or self.functional_mem is None:
            raise ProtocolError(
                f"{self.name}: cached_touch needs a cache and functional "
                "memory (uncached cores move data with every packet)"
            )
        if is_write:
            self.stores.add()
        else:
            self.loads.add()
        yield from self._touch_lines(paddr, size, is_write=is_write)
        return None

    # -- coherent operations (intra-node shared memory) --------------------
    def coherent_read(self, paddr: int, size: int) -> Generator:
        """Load through the node's MESI domain — valid for shared,
        intra-node data only.

        Remote (prefixed) addresses are rejected: the prototype does
        not maintain coherence for I/O memory (Section IV-B), which is
        exactly why multi-writer phases must stay on local memory.
        """
        self._require_coherent(paddr)
        self.loads.add()
        yield from self._coherent_lines(paddr, size, is_write=False)
        return self.functional_mem.fn_read(self._prefixed(paddr), size)

    def coherent_write(self, paddr: int, data: bytes) -> Generator:
        """Store through the node's MESI domain (intra-node only)."""
        self._require_coherent(paddr)
        self.stores.add()
        yield from self._coherent_lines(paddr, len(data), is_write=True)
        self.functional_mem.fn_write(self._prefixed(paddr), data)
        return None

    def _require_coherent(self, paddr: int) -> None:
        if self.coherence is None or self.functional_mem is None:
            raise ProtocolError(
                f"{self.name}: core is not attached to a coherence domain"
            )
        if self.amap.node_of(paddr) != 0:
            raise ProtocolError(
                f"{self.name}: coherent access to remote address "
                f"{paddr:#x} — coherency is not maintained for the "
                "RMC-mapped range (Section IV-B)"
            )

    def _coherent_lines(
        self, paddr: int, size: int, is_write: bool
    ) -> Generator:
        assert self.cache is not None and self.coherence is not None
        cfg = self.config
        line_bytes = self.cache.config.line_bytes
        first = paddr // line_bytes
        last = (paddr + size - 1) // line_bytes
        count = last - first + 1
        domain = self.coherence
        if not self.batch or count == 1:
            for line in range(first, last + 1):
                interventions = domain.stats.interventions
                if is_write:
                    hit = domain.write(self.coherence_idx, line)
                else:
                    hit = domain.read(self.coherence_idx, line)
                if hit:
                    yield self.sim.timeout(self.cache.config.hit_ns)
                    continue
                # miss: the snoop broadcast window always applies; data
                # comes cache-to-cache if a peer held it Modified,
                # otherwise from local DRAM
                yield self.sim.timeout(cfg.snoop_ns)
                if domain.stats.interventions > interventions:
                    yield self.sim.timeout(cfg.cache2cache_ns)
                else:
                    yield from self._timing_read(line * line_bytes, line_bytes)
            return
        op = domain.write_span if is_write else domain.read_span
        span = op(self.coherence_idx, first, count)
        # pure latency (hit windows, snoop windows, cache-to-cache
        # transfers) collapses into one event; only memory fetches
        # remain as packet traffic
        latency = (
            span.hits * self.cache.config.hit_ns
            + span.misses * cfg.snoop_ns
            + span.interventions * cfg.cache2cache_ns
        )
        if latency:
            yield self.sim.timeout(latency)
        if span.fetch_lines:
            align = self._align_lines(line_bytes)
            for _, start, n in burst_runs(span.fetch_lines, align):
                yield from self._timing_read_burst(start, n, line_bytes)

    def _timing_read(self, paddr: int, size: int) -> Generator:
        """A read that charges full packet timing; data is discarded
        (the functional copy is fetched separately)."""
        request = make_read_req(
            self.node_id, self.node_id, paddr, size, self.tags.next()
        )
        yield from self._issue(request)

    def flush_cache(self) -> Generator:
        """Write back every dirty line (prototype: done before parallel
        read-only phases, Section IV-B). Data is already authoritative
        in the backing store, so flushes are timing-only writes;
        contiguous dirty runs coalesce into burst write-backs."""
        if self.cache is None:
            return None
        line_bytes = self.cache.config.line_bytes
        dirty = self.cache.flush()
        if not self.batch:
            for line in dirty:
                yield from self._timing_write(line * line_bytes, line_bytes)
            return None
        align = self._align_lines(line_bytes)
        for _, start, n in burst_runs(dirty, align):
            yield from self._timing_write_burst(start, n, line_bytes)
        return None

    # -- internals ----------------------------------------------------------
    def _prefixed(self, paddr: int) -> int:
        """Qualify a local (prefix-0) address with this node's id for
        the cluster-wide functional memory view."""
        if self.amap.node_of(paddr) != 0:
            return paddr
        return self.amap.encode(self.node_id, paddr)

    def _touch_lines(
        self, paddr: int, size: int, is_write: bool
    ) -> Generator:
        assert self.cache is not None
        cache = self.cache
        line_bytes = cache.config.line_bytes
        hit_ns = cache.config.hit_ns
        first = paddr // line_bytes
        last = (paddr + size - 1) // line_bytes
        count = last - first + 1
        if not self.batch or count == 1:
            for line in range(first, last + 1):
                result = cache.access(line, is_write)
                if result.hit:
                    yield self.sim.timeout(hit_ns)
                    continue
                if result.writeback and result.evicted is not None:
                    yield from self._timing_write(
                        result.evicted * line_bytes, line_bytes
                    )
                # demand fetch of the whole line (timed; data discarded —
                # the functional copy is read separately)
                yield from self._timing_read(line * line_bytes, line_bytes)
            return
        result = cache.access_span(first, count, is_write)
        if result.hits:
            # hits are pure latency — charge them all in one event
            yield self.sim.timeout(result.hits * hit_ns)
        if result.misses:
            yield from self._miss_traffic(result, line_bytes)

    def _miss_traffic(self, result, line_bytes: int) -> Generator:
        """Replay a span's miss traffic with burst coalescing.

        Write-backs stay at their scalar positions, just before the
        fetch of the miss whose install displaced them (DRAM row-buffer
        state makes the transaction order matter), while the contiguous
        demand-fetch runs between them collapse into burst reads.
        """
        wb_idx = result.wb_miss_idx
        wb_at = dict(zip(wb_idx, result.wb_lines))
        align = self._align_lines(line_bytes)
        for k, start, n in burst_runs(result.miss_lines, align, cuts=wb_idx):
            victim = wb_at.get(k)
            if victim is not None:
                yield from self._timing_write(victim * line_bytes, line_bytes)
            yield from self._timing_read_burst(start, n, line_bytes)

    def _align_lines(self, line_bytes: int) -> int:
        """Burst alignment window expressed in lines (0 = unbounded)."""
        if not self.burst_align_bytes:
            return 0
        return max(self.burst_align_bytes // line_bytes, 1)

    def _timing_read_burst(
        self, first_line: int, count: int, line_bytes: int
    ) -> Generator:
        """Fetch *count* consecutive lines as one burst packet; a single
        line takes the scalar path (no burst framing to amortize)."""
        if count == 1:
            yield from self._timing_read(first_line * line_bytes, line_bytes)
            return
        request = make_burst_read_req(
            self.node_id,
            self.node_id,
            first_line * line_bytes,
            line_bytes,
            count,
            self.tags.next(),
        )
        yield from self._issue(request)

    def _timing_write_burst(
        self, first_line: int, count: int, line_bytes: int
    ) -> Generator:
        """Write back *count* consecutive lines as one timing-only burst."""
        if count == 1:
            yield from self._timing_write(first_line * line_bytes, line_bytes)
            return
        request = make_burst_write_req(
            self.node_id,
            self.node_id,
            first_line * line_bytes,
            self._zero_payload(count * line_bytes),
            count,
            self.tags.next(),
        )
        request.meta["timing_only"] = True
        yield from self._issue(request)

    def _zero_payload(self, size: int) -> bytes:
        """Placeholder payload for timing-only writes, cached per size
        (the packet path never reads it — no per-eviction allocation)."""
        buf = self._zero_payloads.get(size)
        if buf is None:
            buf = bytes(size)
            self._zero_payloads[size] = buf
        return buf

    def _timing_write(self, paddr: int, size: int) -> Generator:
        """A write that charges full packet timing but moves no data."""
        request = make_write_req(
            self.node_id,
            self.node_id,
            paddr,
            self._zero_payload(size),
            self.tags.next(),
        )
        request.meta["timing_only"] = True
        yield from self._issue(request)

    def _issue(self, request: Packet) -> Generator:
        """Send one request and wait for its response, honoring the
        outstanding-request limit and retrying on client-RMC NACKs."""
        # remote addresses (prefix neither 0 nor this node) take the
        # remote outstanding-request slots; AddressMap.is_remote inlined
        owner = self.amap.node_of(request.addr)
        if owner != 0 and owner != self.node_id:
            slots = self._remote_slots
        else:
            slots = self._local_slots
        grant = slots.request()
        yield grant
        try:
            cfg = self.rmc_config
            reply_to: Store = Store(self.sim, name=self._reply_name)
            request.meta["reply_to"] = reply_to
            request.issue_ns = self.sim.now
            attempts = 0
            while True:
                yield self.crossbar.send(request)
                response: Packet = yield reply_to.get()
                if response.ptype is PacketType.FAULT:
                    # machine-check completion: the remote side is gone
                    raise RemoteAccessError(
                        f"{self.name}: access to {request.addr:#x} failed — "
                        f"{response.meta['error']}",
                        node=response.meta.get("fault_node"),
                        region=self.node_id,
                        tag=response.meta.get("fault_tag", response.tag),
                        retries=response.meta.get("retries"),
                        reason=response.meta.get("reason"),
                    )
                if response.ptype is not PacketType.NACK:
                    break
                # a NACKed burst retries all of its lines
                self.nack_retries.add(request.line_count)
                attempts += 1
                if cfg.max_retries and attempts > cfg.max_retries:
                    raise RemoteAccessError(
                        f"{self.name}: local RMC kept rejecting "
                        f"{request.addr:#x}; gave up after "
                        f"{cfg.max_retries} retries",
                        node=self.node_id,
                        tag=request.tag,
                        retries=cfg.max_retries,
                    )
                yield self.sim.timeout(cfg.retry_backoff_ns)
            if response.tag != request.tag:
                raise ProtocolError(
                    f"{self.name}: response tag {response.tag} != "
                    f"request tag {request.tag}"
                )
        finally:
            slots.release(grant)
        return response
