"""Trace-driven accessors: the fast tier's execution engines.

Workloads (the b-tree, the PARSEC-like kernels) are written once
against the :class:`Accessor` interface; the accessor decides what each
read/write costs:

* :class:`LocalMemAccessor` — line cache, then local DRAM;
* :class:`RemoteMemAccessor` — the proposed architecture: line cache
  (remote ranges are write-back cacheable in the prototype), then a
  constant remote line latency. Page locality is irrelevant — this is
  Equation (2) made executable;
* :class:`SwapAccessor` — the baseline: line cache, local DRAM for
  resident pages, and an LRU page pool whose misses pay the full swap
  fault — Equation (1) made executable. Works for both remote swap and
  disk swap depending on the swap device passed in.

All accessors are *functional*: data really lives in a
:class:`~repro.mem.backing.BackingStore`, so workload results are
checkable, and the same workload code can also run against the
packet-level :class:`~repro.cluster.api.Session` through
:class:`repro.apps.access.SessionAccessor` for cross-validation.

**Performance.** The timing hook ``_charge`` has two shapes. A
single-line access (the overwhelmingly common case) computes its line
address arithmetically and takes one scalar cache access against
hoisted latency constants. :class:`SwapAccessor`, the hot path of the
swap baseline, does the span arithmetic inline and then follows
Equation (1)'s order: a hit-only probe of the device's page pool
(:meth:`~repro.swap.pagecache.LRUPageCache.hit`), then one of the line
cache (:meth:`~repro.mem.cache.Cache.hit`), so a resident, cached word
never calls the device's ``access_ns``. A line miss on a resident page
is installed and charged as ``_charge_line`` would; a page fault falls
back to ``_charge_line`` itself, the method the per-line reference loop
uses. Devices without a zero-cost resident pool (``OSMemoryServer``,
duck-typed devices) always take it. A multi-line access routes through
:meth:`~repro.mem.cache.Cache.access_span`, which classifies the whole
span's hits/misses/write-backs in one call, and the span's time is
computed from those counts — no per-line charge. Both
shapes charge bit-identical time and produce identical
:class:`~repro.mem.cache.CacheStats`; ``tests/model/test_fastsim_batch.py``
verifies the equivalence on randomized traces (an accessor constructed
with ``batch=False`` takes the scalar reference path for every access).
Both modes share the single-line branch, and ``tests/model/test_fastsim.py``
checks it against an independent Equation (1) reference, to the bit;
for ``CompressedMemory`` and ``OSMemoryServer`` it checks it against a
twin that charges every line through ``_charge_line``.

A B-tree lookup is one :meth:`Accessor.search_btree` call instead of
three accessor calls per node (header ``read``, ``search_u64`` over the
keys, ``read_u64`` of the child pointer). Each node is read untimed in
one :meth:`~repro.mem.backing.BackingStore.words` window and its keys
searched with ``bisect``; because the keys are strictly increasing, the
early-exit loop's probe sequence follows from the insertion position
alone. The node's word reads (header, probes, child pointer) are then
charged in the spec's order with one ``_charge_words`` call, each exactly
as a single-line read of its word. :class:`SwapAccessor` charges them
with a run rule: a word on the page of the previous word is a pool hit
and one on its line a line hit, since that word left both the most
recent, so a node usually probes the pool once and a run costs one
``touch_extra`` on the pool or the cache instead of one probe per word;
a fault in mid-node still goes to ``_charge_line``.
:meth:`Accessor.search_u64`, the in-node search alone, charges through
the same ``_charge_words``.
A node the window cannot vouch for (not wholly inside the store,
unaligned, a header straddling two lines, a chunk crossing, a ``count``
past ``max_keys``) takes the spec's per-node calls, so a read that
fails raises after exactly the charges the spec made before it. The
per-node calls are :func:`search_btree_ref` (and, inside a node,
:func:`search_u64_ref`), the executable specs and the only
implementations on the packet tier, for ``TraceRecorder`` and with
``batch=False``; ``tests/model/test_fastsim.py`` checks the one-call
descent against them on every accessor and swap device.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from typing import Callable, Optional, Protocol, Union

import numpy as np

from repro.config import CacheConfig
from repro.errors import AddressError, AllocationError, SimulationError
from repro.mem.backing import BackingStore
from repro.mem.cache import Cache
from repro.model.latency import LatencyModel
from repro.swap.alternatives import CompressedMemory
from repro.swap.device import PagedSwapDevice
from repro.swap.diskswap import DiskSwap
from repro.swap.remoteswap import RemoteSwap
from repro.units import CACHE_LINE

__all__ = [
    "Accessor",
    "BumpAllocator",
    "LocalMemAccessor",
    "RemoteMemAccessor",
    "SwapAccessor",
    "search_btree_ref",
    "search_u64_ref",
]

# A B-tree node is ``[count][is_leaf][max_keys keys][max_keys+1 children]``,
# all little-endian u64 words (:mod:`repro.apps.btree` builds it, and
# :meth:`Accessor.search_btree` descends it).
BTREE_HEADER = struct.Struct("<QQ")
BTREE_HEADER_BYTES = BTREE_HEADER.size


def btree_node_bytes(max_keys: int) -> int:
    """Bytes of a node holding up to *max_keys* keys."""
    return BTREE_HEADER_BYTES + 8 * (2 * max_keys + 1)


def btree_key_addr(node: int, i: int) -> int:
    return node + BTREE_HEADER_BYTES + 8 * i


def btree_child_addr(node: int, max_keys: int, i: int) -> int:
    return node + BTREE_HEADER_BYTES + 8 * (max_keys + i)


class Accessor(Protocol):
    """What a workload needs from its memory system."""

    time_ns: float
    accesses: int

    def read(self, addr: int, size: int) -> bytes: ...
    def write(self, addr: int, data: bytes) -> None: ...
    def read_u64(self, addr: int) -> int: ...
    def write_u64(self, addr: int, value: int) -> None: ...
    def search_u64(self, addr: int, count: int, key: int) -> tuple[int, bool, int]:
        """Early-exit binary search for *key* over the *count* strictly
        increasing u64 words at *addr*: ``(idx, found, probes)``, where
        *idx* is where *key* is or would be inserted. Each probe is
        charged and counted exactly as a :meth:`read_u64` of its word."""
        ...
    def search_btree(self, root: int, key: int, max_keys: int) -> tuple[bool, int, int]:
        """Look *key* up in the B-tree whose root node is at *root*:
        ``(found, nodes_visited, key_probes)``. Each node costs what
        :func:`search_btree_ref`'s step charges: a 16-byte header
        :meth:`read`, a :meth:`search_u64` over its keys and, below an
        inner node that lacks *key*, a :meth:`read_u64` of the child
        pointer."""
        ...
    def read_array(self, addr: int, count: int, dtype) -> np.ndarray: ...
    def view_array(self, addr: int, count: int, dtype) -> np.ndarray: ...
    def write_array(self, addr: int, values: np.ndarray) -> None: ...
    def bulk_read(self, addr: int, size: int) -> bytes: ...
    def bulk_write(self, addr: int, data: bytes) -> None: ...
    def compute(self, ns: float) -> None: ...


class BumpAllocator:
    """Trivial arena allocator for workload data structures."""

    def __init__(self, capacity: int, base: int = 0, align: int = 8) -> None:
        self.base = base
        self.capacity = capacity
        self.align = align
        self._next = base

    def alloc(self, size: int) -> int:
        if size <= 0:
            raise AllocationError(f"allocation size must be positive: {size}")
        size = -(-size // self.align) * self.align
        if self._next + size > self.base + self.capacity:
            raise AllocationError(
                f"arena exhausted: need {size:#x}, "
                f"free {self.base + self.capacity - self._next:#x}"
            )
        addr = self._next
        self._next += size
        return addr

    @property
    def used_bytes(self) -> int:
        return self._next - self.base


class _BaseAccessor:
    """Shared functional plumbing + typed helpers."""

    def __init__(self, backing: BackingStore, batch: bool = True) -> None:
        self.backing = backing
        self.time_ns = 0.0
        self.accesses = 0
        #: route multi-line accesses through the one-call cache span;
        #: ``False`` selects the scalar per-line reference path for every
        #: access (the batch/scalar equivalence tests' twin)
        self.batch = batch

    # -- functional data path --------------------------------------------
    # The backing store acts first: an access it rejects (out of range,
    # a value that is no 64-bit word) raises before anything is charged.
    def read(self, addr: int, size: int) -> bytes:
        data = self.backing.read(addr, size)
        self._charge(addr, size, False)
        return data

    def write(self, addr: int, data: bytes) -> None:
        self.backing.write(addr, data)
        self._charge(addr, len(data), True)

    def read_u64(self, addr: int) -> int:
        value = self.backing.read_u64(addr)
        self._charge(addr, 8, False)
        return value

    def write_u64(self, addr: int, value: int) -> None:
        self.backing.write_u64(addr, value)
        self._charge(addr, 8, True)

    def search_u64(self, addr: int, count: int, key: int) -> tuple[int, bool, int]:
        """:meth:`Accessor.search_u64` in one call.

        The words are read untimed through :meth:`BackingStore.words`
        and searched with ``bisect`` at C speed; the early-exit loop's
        probe sequence is a function of where *key* falls, so it is
        rebuilt from that position and then charged in order. The whole
        range is checked before anything is charged. With
        ``batch=False`` the probes go through :func:`search_u64_ref`.
        """
        if count == 0:
            return 0, False, 0
        words = self.backing.words(addr, count)
        if not self.batch:
            return search_u64_ref(self.read_u64, addr, count, key)
        if words is None:
            words = self.backing.read_array(addr, count, np.uint64).tolist()
        pos = bisect_left(words, key)
        found = pos < count and words[pos] == key
        path = _probe_path(addr, count, pos, found)
        self._charge_words(path)
        return pos, found, len(path)

    def search_btree(self, root: int, key: int, max_keys: int) -> tuple[bool, int, int]:
        """:meth:`Accessor.search_btree` in one call.

        Each node is read untimed in one :meth:`BackingStore.words`
        window, its keys searched as in :meth:`search_u64`, and its word
        reads (header, probes, child pointer, in the spec's order)
        charged in one :meth:`_charge_words` call. A node the window
        cannot vouch for takes :func:`search_btree_ref`'s step instead:
        one not wholly inside the store (whose reads may fail part way),
        one with unaligned words or a header straddling two lines (whose
        reads are no single-line word reads), one crossing a backing
        chunk, and one whose ``count`` exceeds *max_keys*. With
        ``batch=False`` the whole search is :func:`search_btree_ref`.
        """
        if not self.batch:
            return search_btree_ref(self, root, key, max_keys)
        words = self.backing.words
        last = self.backing.capacity - btree_node_bytes(max_keys)
        span = 2 * max_keys + 3
        # the last offset in a line at which a header fits on that line
        header_last = CACHE_LINE - BTREE_HEADER_BYTES
        node = root
        visited = probes = 0
        while True:
            visited += 1
            # None for unaligned words or a chunk crossing
            v = (words(node, span)
                 if 0 <= node <= last and node % CACHE_LINE <= header_last
                 else None)
            if v is None or v[0] > max_keys:
                found, child, p = _btree_node_ref(self, node, key, max_keys)
                probes += p
                if child is None:
                    return found, visited, probes
                node = child
                continue
            count = v[0]
            pos = bisect_left(v, key, 2, 2 + count) - 2
            found = pos < count and v[2 + pos] == key
            path = _probe_path(node + BTREE_HEADER_BYTES, count, pos, found)
            probes += len(path)
            path.insert(0, node)
            if found or v[1]:
                self._charge_words(path)
                return found, visited, probes
            path.append(btree_child_addr(node, max_keys, pos))
            self._charge_words(path)
            node = v[2 + max_keys + pos]

    # a zero-count typed access is free and counts no access, as on
    # the packet tier (``Session.g_read_array``)
    def read_array(self, addr: int, count: int, dtype) -> np.ndarray:
        dt = np.dtype(dtype)
        if count == 0:
            return np.empty(0, dtype=dt)
        values = self.backing.read_array(addr, count, dt)
        self._charge(addr, count * dt.itemsize, False)
        return values

    def view_array(self, addr: int, count: int, dtype) -> np.ndarray:
        """Typed column window: a zero-copy read-only view when the
        range stays inside one backing chunk, a fresh copy otherwise.
        Charged exactly like :meth:`read_array`. Views alias live
        backing storage — they observe later writes and must not
        outlive the scan that requested them (DESIGN.md §13).
        """
        dt = np.dtype(dtype)
        if count == 0:
            return np.empty(0, dtype=dt)
        view = self.backing.view_array(addr, count, dt)
        if view is None:
            view = self.backing.read_array(addr, count, dt)
        self._charge(addr, count * dt.itemsize, False)
        return view

    def write_array(self, addr: int, values: np.ndarray) -> None:
        values = np.ascontiguousarray(values)
        if values.nbytes == 0:
            return
        self.backing.write_array(addr, values)
        self._charge(addr, values.nbytes, True)

    def bulk_read(self, addr: int, size: int) -> bytes:
        """Untimed setup read (population phases are not measured)."""
        return self.backing.read(addr, size)

    def bulk_write(self, addr: int, data: bytes) -> None:
        """Untimed setup write (population phases are not measured)."""
        self.backing.write(addr, data)

    def compute(self, ns: float) -> None:
        """Charge non-memory work (per-item computation in workloads)."""
        if ns < 0:
            raise SimulationError(f"negative compute time {ns}")
        self.time_ns += ns

    # -- timing hook ----------------------------------------------------------
    def _charge(self, addr: int, size: int, is_write: bool) -> None:
        raise NotImplementedError

    def _charge_words(self, addrs: list[int]) -> None:
        """Charge a read of the u64 word at each of *addrs*, in order,
        exactly as :meth:`read_u64` charges one."""
        for addr in addrs:
            self._charge(addr, 8, False)

    def _span_of(self, addr: int, size: int) -> tuple[int, int]:
        """(first line, line count) touched by an access."""
        if size <= 0:
            raise AddressError(f"access size must be positive: {size}")
        first = addr // CACHE_LINE
        return first, (addr + size - 1) // CACHE_LINE - first + 1

    def reset_clock(self) -> None:
        self.time_ns = 0.0
        self.accesses = 0


def _default_cache(name: str) -> Cache:
    return Cache(CacheConfig(), name=name)


class LocalMemAccessor(_BaseAccessor):
    """Everything in local DRAM behind a write-back line cache."""

    def __init__(
        self,
        latency: LatencyModel,
        backing: BackingStore,
        cache: Optional[Cache] = None,
        use_cache: bool = True,
        batch: bool = True,
    ) -> None:
        super().__init__(backing, batch=batch)
        self.latency = latency
        self.cache = (
            cache if cache is not None
            else (_default_cache("local.l2") if use_cache else None)
        )
        self._hit_ns = latency.cache_hit_ns
        self._local_ns = latency.local_ns

    def _charge(self, addr: int, size: int, is_write: bool) -> None:
        first, n = self._span_of(addr, size)
        cache = self.cache
        if n == 1:
            self.accesses += 1
            if cache is None:
                self.time_ns += self._local_ns
                return
            result = cache.access(first, is_write)
            if result.hit:
                self.time_ns += self._hit_ns
            elif result.writeback:
                self.time_ns += 2 * self._local_ns
            else:
                self.time_ns += self._local_ns
            return
        self.accesses += n
        if cache is None:
            self.time_ns += n * self._local_ns
            return
        if self.batch:
            res = cache.access_span(first, n, is_write)
            self.time_ns += (
                res.hits * self._hit_ns
                + (res.misses + res.writebacks) * self._local_ns
            )
            return
        # scalar reference path
        hit_ns, local_ns = self._hit_ns, self._local_ns
        t = 0.0
        for line in range(first, first + n):
            result = cache.access(line, is_write)
            if result.hit:
                t += hit_ns
            elif result.writeback:
                t += 2 * local_ns
            else:
                t += local_ns
        self.time_ns += t


class RemoteMemAccessor(_BaseAccessor):
    """The paper's architecture: misses pay a constant remote latency.

    ``hops`` positions the memory server on the fabric. The prototype
    caches remote ranges write-back, so a line cache fronts the remote
    latency; write-backs of dirty remote lines pay the remote path too.

    ``prefetch`` enables the stream prefetcher of
    :mod:`repro.model.prefetch` — the paper's Section VI future work —
    so sequential misses are largely covered in flight.
    """

    def __init__(
        self,
        latency: LatencyModel,
        backing: BackingStore,
        hops: int = 1,
        cache: Optional[Cache] = None,
        use_cache: bool = True,
        prefetch: Optional["PrefetchConfig"] = None,
        batch: bool = True,
    ) -> None:
        from repro.model.prefetch import PrefetchConfig, StreamPrefetcher

        super().__init__(backing, batch=batch)
        self.latency = latency
        self.hops = hops
        self.cache = (
            cache if cache is not None
            else (_default_cache("remote.l2") if use_cache else None)
        )
        self.prefetcher: Optional[StreamPrefetcher] = (
            StreamPrefetcher(prefetch) if prefetch is not None else None
        )
        self._hit_ns = latency.cache_hit_ns

    @property
    def hops(self) -> int:
        return self._hops

    @hops.setter
    def hops(self, value: int) -> None:
        self._hops = value
        self._remote_ns = self.latency.remote_ns(value)

    def _miss_ns(self, remote: float, line: int) -> float:
        """Latency of a cache-missing line, prefetch-aware."""
        if self.prefetcher is not None and self.prefetcher.access(line):
            return self.prefetcher.config.covered_ns
        return remote

    def _charge(self, addr: int, size: int, is_write: bool) -> None:
        first, n = self._span_of(addr, size)
        remote = self._remote_ns
        cache = self.cache
        pf = self.prefetcher
        if n == 1:
            self.accesses += 1
            if cache is None:
                if pf is not None and pf.access(first):
                    self.time_ns += pf.config.covered_ns
                else:
                    self.time_ns += remote
                return
            result = cache.access(first, is_write)
            if result.hit:
                self.time_ns += self._hit_ns
                return
            if pf is not None and pf.access(first):
                miss = pf.config.covered_ns
            else:
                miss = remote
            if result.writeback:
                miss += remote
            self.time_ns += miss
            return
        self.accesses += n
        if not self.batch:
            self._charge_scalar(first, n, is_write, remote)
            return
        if cache is None:
            if pf is None:
                self.time_ns += n * remote
            else:
                covered = pf.access_block(range(first, first + n))
                self.time_ns += (
                    covered * pf.config.covered_ns + (n - covered) * remote
                )
            return
        res = cache.access_span(first, n, is_write)
        t = res.hits * self._hit_ns + res.writebacks * remote
        if pf is None:
            t += res.misses * remote
        else:
            covered = pf.access_block(res.miss_lines)
            t += covered * pf.config.covered_ns + (res.misses - covered) * remote
        self.time_ns += t

    def _charge_scalar(
        self, first: int, n: int, is_write: bool, remote: float
    ) -> None:
        """Per-line reference path (the batch path must match it)."""
        cache = self.cache
        for line in range(first, first + n):
            if cache is None:
                self.time_ns += self._miss_ns(remote, line)
                continue
            result = cache.access(line, is_write)
            if result.hit:
                self.time_ns += self._hit_ns
            else:
                if result.writeback:
                    self.time_ns += remote
                self.time_ns += self._miss_ns(remote, line)


class SwapAccessor(_BaseAccessor):
    """Remote-swap / disk-swap baseline.

    Resident pages behave like local memory (line cache + local DRAM);
    non-resident pages pay the swap device's fault service time on top.
    """

    def __init__(
        self,
        latency: LatencyModel,
        backing: BackingStore,
        swap: Union[RemoteSwap, DiskSwap],
        cache: Optional[Cache] = None,
        use_cache: bool = True,
        batch: bool = True,
    ) -> None:
        super().__init__(backing, batch=batch)
        self.latency = latency
        self.swap = swap
        self.cache = (
            cache if cache is not None
            else (_default_cache("swap.l2") if use_cache else None)
        )
        self._hit_ns = latency.cache_hit_ns
        self._local_ns = latency.local_ns
        #: the device's batched entry point; devices without one (some
        #: ext-B alternatives) take the per-line path
        self._span_fn = getattr(swap, "access_span_ns", None)
        #: the page pool of a device whose resident pages cost 0 ns, so
        #: a word on one can skip ``access_ns``; ``None`` for any other
        #: device (``OSMemoryServer`` charges every access)
        self._pool = (
            swap.cache if isinstance(swap, (PagedSwapDevice, CompressedMemory))
            else None
        )
        # SwapConfig keeps it a multiple of 512, so ``addr // page_bytes``
        # is the page _charge_line derives from the line address
        self._page_bytes = swap.page_bytes if self._pool is not None else 0

    def _charge(self, addr: int, size: int, is_write: bool) -> None:
        if size <= 0:
            raise AddressError(f"access size must be positive: {size}")
        first = addr // CACHE_LINE
        last = (addr + size - 1) // CACHE_LINE
        if last == first:
            self.accesses += 1
            # Equation (1)'s order: page first, then line. Each probe
            # touches its state only on a hit, so a fault falls through
            # to _charge_line untouched; a line miss on a resident page
            # is charged as _charge_line charges it.
            pool = self._pool
            if pool is not None and pool.hit(addr // self._page_bytes, is_write):
                cache = self.cache
                if cache is None:
                    self.time_ns += self._local_ns
                elif cache.hit(first, is_write):
                    self.time_ns += self._hit_ns
                elif cache.access(first, is_write).writeback:
                    self.time_ns += 2 * self._local_ns
                else:
                    self.time_ns += self._local_ns
                return
            self._charge_line(first, is_write)
            return
        n = last - first + 1
        self.accesses += n
        span_fn = self._span_fn if self.batch else None
        if span_fn is None:
            # per-line reference path (also taken for swap devices
            # without a span entry point, e.g. some ext-B alternatives)
            for line in range(first, first + n):
                self._charge_line(line, is_write)
            return
        cache = self.cache
        # The page pool and the line cache are independent state
        # machines that both see the span's lines in ascending order,
        # so each can be advanced in one batched step.
        fault_ns, fault_idx = span_fn(first * CACHE_LINE, n, CACHE_LINE, is_write)
        if cache is None:
            self.time_ns += fault_ns + n * self._local_ns
            return
        res = cache.access_span(first, n, is_write)
        # A line-cache hit on a faulting line is charged as a local
        # access (the fetch installs the line), matching the scalar
        # path, so only non-fault hits earn the hit latency.
        nf_hits = res.hits
        if fault_idx:
            hit_mask = res.hit_mask
            nf_hits -= sum([hit_mask[i] for i in fault_idx])
        self.time_ns += (
            fault_ns
            + res.writebacks * self._local_ns
            + nf_hits * self._hit_ns
            + (n - nf_hits) * self._local_ns
        )

    def _charge_words(self, addrs: list[int]) -> None:
        """The single-line read branch of :meth:`_charge`, word by word,
        with the run rule: the previous word left its page the pool's
        most recent and its line its set's most recent, so a word on the
        same page is a pool hit and one on the same line a line hit,
        neither moving any order. Such runs are counted and booked with
        one ``touch_extra`` each. Each word adds its own ns to
        ``time_ns``, in order. The words share one alignment (a node's
        header, keys and child pointers; a key array): aligned, each
        lies on one line."""
        pool = self._pool
        if pool is None or not addrs or addrs[0] & 7:
            # every access priced, or words that may straddle two lines
            super()._charge_words(addrs)
            return
        self.accesses += len(addrs)
        cache = self.cache
        page_bytes = self._page_bytes
        hit_ns, local_ns = self._hit_ns, self._local_ns
        same_line_ns = local_ns if cache is None else hit_ns
        t = self.time_ns
        page = line = -1
        page_run = line_run = 0
        for addr in addrs:
            ln = addr // CACHE_LINE
            if ln == line:
                page_run += 1
                line_run += 1
                t += same_line_ns
                continue
            if line_run:
                if cache is not None:
                    cache.touch_extra(line, line_run)
                line_run = 0
            line = ln
            pg = addr // page_bytes
            if pg == page:
                page_run += 1
            else:
                if page_run:
                    pool.touch_extra(page, page_run)
                    page_run = 0
                page = pg
                if not pool.hit(pg, False):
                    self.time_ns = t
                    self._charge_line(ln, False)
                    t = self.time_ns
                    continue
            if cache is None:
                t += local_ns
                continue
            res = cache.access(ln, False)
            if res.hit:
                t += hit_ns
            elif res.writeback:
                t += 2 * local_ns
            else:
                t += local_ns
        if line_run and cache is not None:
            cache.touch_extra(line, line_run)
        if page_run:
            pool.touch_extra(page, page_run)
        self.time_ns = t

    def _charge_line(self, line: int, is_write: bool) -> None:
        # page residency is checked first: even a line-cache hit on
        # a swapped-out page is impossible (the line was evicted
        # with the page), so charge the fault before the cache.
        fault_ns = self.swap.access_ns(line * CACHE_LINE, is_write)
        cache = self.cache
        if fault_ns > 0.0:
            self.time_ns += fault_ns
            if cache is not None:
                # the faulting line is installed by the fetch
                result = cache.access(line, is_write)
                if result.writeback:
                    self.time_ns += self._local_ns
            self.time_ns += self._local_ns
            return
        if cache is None:
            self.time_ns += self._local_ns
            return
        result = cache.access(line, is_write)
        if result.hit:
            self.time_ns += self._hit_ns
        elif result.writeback:
            self.time_ns += 2 * self._local_ns
        else:
            self.time_ns += self._local_ns

    @property
    def fault_count(self) -> int:
        return self.swap.stats.faults


def search_u64_ref(
    read_u64: Callable[[int], int], addr: int, count: int, key: int
) -> tuple[int, bool, int]:
    """:meth:`Accessor.search_u64` as one *read_u64* call per probe.

    The executable spec of the one-call search, and the only
    implementation on the packet tier (``SessionAccessor``), for
    ``TraceRecorder`` and for a fast-tier accessor built with
    ``batch=False``.
    """
    lo, hi = 0, count
    probes = 0
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        k = read_u64(addr + 8 * mid)
        if k == key:
            return mid, True, probes
        if k < key:
            lo = mid + 1
        else:
            hi = mid
    return lo, False, probes


def _btree_node_ref(
    acc: Accessor, node: int, key: int, max_keys: int
) -> tuple[bool, Optional[int], int]:
    """One node of :func:`search_btree_ref`: ``(found, child, probes)``,
    where *child* is the node to descend to, or ``None`` once the
    search has ended."""
    count, is_leaf = BTREE_HEADER.unpack(acc.read(node, BTREE_HEADER_BYTES))
    idx, found, probes = acc.search_u64(node + BTREE_HEADER_BYTES, count, key)
    if found or is_leaf:
        return found, None, probes
    return False, acc.read_u64(btree_child_addr(node, max_keys, idx)), probes


def search_btree_ref(
    acc: Accessor, root: int, key: int, max_keys: int
) -> tuple[bool, int, int]:
    """:meth:`Accessor.search_btree` as the per-node accessor calls:
    per node a header :meth:`~Accessor.read`, a
    :meth:`~Accessor.search_u64` and, below an inner node, a
    :meth:`~Accessor.read_u64` of the child pointer.

    The executable spec of the one-call descent, and the only
    implementation on the packet tier (``SessionAccessor``), for
    ``TraceRecorder`` and for a fast-tier accessor built with
    ``batch=False``.
    """
    node: Optional[int] = root
    found = False
    visited = probes = 0
    while node is not None:
        visited += 1
        found, node, p = _btree_node_ref(acc, node, key, max_keys)
        probes += p
    return found, visited, probes


def _probe_path(base: int, count: int, pos: int, found: bool) -> list[int]:
    """The word addresses :func:`search_u64_ref` probes, in order, over
    *count* strictly increasing words at *base* whose ``bisect_left``
    position for the key is *pos* (*found* if the word there equals
    it): the word at ``mid`` is below the key exactly when ``mid <
    pos``, and equals it exactly when ``mid == pos and found``."""
    path = []
    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi) // 2
        path.append(base + 8 * mid)
        if mid < pos:
            lo = mid + 1
        elif mid == pos and found:
            break
        else:
            hi = mid
    return path


def _lines(addr: int, size: int) -> range:
    """Cache lines touched by an access."""
    if size <= 0:
        raise AddressError(f"access size must be positive: {size}")
    return range(addr // CACHE_LINE, (addr + size - 1) // CACHE_LINE + 1)
