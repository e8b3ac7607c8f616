"""Tests for the trace-driven accessors."""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig, ClusterConfig
from repro.errors import AddressError, AllocationError, SimulationError
from repro.mem.backing import BackingStore
from repro.mem.cache import Cache, ReferenceCache
from repro.model.fastsim import (
    BTREE_HEADER,
    BumpAllocator,
    LocalMemAccessor,
    RemoteMemAccessor,
    SwapAccessor,
    btree_child_addr,
    btree_node_bytes,
    search_btree_ref,
    search_u64_ref,
)
from repro.model.latency import LatencyModel
from repro.model.prefetch import PrefetchConfig
from repro.swap.alternatives import CompressedMemory, FlashSwap, OSMemoryServer
from repro.swap.diskswap import DiskSwap
from repro.swap.remoteswap import RemoteSwap
from repro.units import CACHE_LINE, PAGE_SIZE, bandwidth_time


@pytest.fixture
def lat():
    return LatencyModel.from_config(ClusterConfig())


class TestBumpAllocator:
    def test_sequential_alignment(self):
        arena = BumpAllocator(1024, align=16)
        a = arena.alloc(10)
        b = arena.alloc(10)
        assert a == 0
        assert b == 16
        assert arena.used_bytes == 32

    def test_exhaustion(self):
        arena = BumpAllocator(64)
        arena.alloc(64)
        with pytest.raises(AllocationError):
            arena.alloc(1)

    def test_zero_rejected(self):
        with pytest.raises(AllocationError):
            BumpAllocator(64).alloc(0)


class TestFunctionalBehaviour:
    def test_read_after_write(self, lat):
        acc = LocalMemAccessor(lat, BackingStore(1 << 20))
        acc.write(100, b"data!")
        assert acc.read(100, 5) == b"data!"

    def test_u64_and_array_helpers(self, lat):
        acc = RemoteMemAccessor(lat, BackingStore(1 << 20))
        acc.write_u64(0, 999)
        assert acc.read_u64(0) == 999
        values = np.arange(64, dtype=np.uint64)
        acc.write_array(512, values)
        assert (acc.read_array(512, 64, np.uint64) == values).all()

    def test_bulk_write_is_untimed(self, lat):
        acc = LocalMemAccessor(lat, BackingStore(1 << 20))
        acc.bulk_write(0, bytes(10_000))
        assert acc.time_ns == 0.0
        assert acc.read(0, 4) == bytes(4)

    def test_compute_charges_time(self, lat):
        acc = LocalMemAccessor(lat, BackingStore(1 << 20))
        acc.compute(123.0)
        assert acc.time_ns == 123.0
        with pytest.raises(SimulationError):
            acc.compute(-1)

    def test_zero_size_access_rejected(self, lat):
        acc = LocalMemAccessor(lat, BackingStore(1 << 20))
        # AddressError subclasses ValueError, so callers that caught the
        # old error type keep working
        with pytest.raises(AddressError):
            acc.read(0, 0)
        with pytest.raises(ValueError):
            acc.read(0, 0)


class TestTiming:
    def test_local_uncached_charges_local_latency(self, lat):
        acc = LocalMemAccessor(lat, BackingStore(1 << 20), use_cache=False)
        acc.read(0, 8)
        assert acc.time_ns == pytest.approx(lat.local_ns)

    def test_multi_line_access_charges_per_line(self, lat):
        acc = LocalMemAccessor(lat, BackingStore(1 << 20), use_cache=False)
        acc.read(0, 4 * CACHE_LINE)
        assert acc.time_ns == pytest.approx(4 * lat.local_ns)
        assert acc.accesses == 4

    def test_straddling_access_touches_two_lines(self, lat):
        acc = LocalMemAccessor(lat, BackingStore(1 << 20), use_cache=False)
        acc.read(CACHE_LINE - 4, 8)
        assert acc.accesses == 2

    def test_cache_hits_cheaper(self, lat):
        acc = RemoteMemAccessor(lat, BackingStore(1 << 20))
        acc.read(0, 8)
        first = acc.time_ns
        acc.read(0, 8)
        assert acc.time_ns - first == pytest.approx(lat.cache_hit_ns)

    def test_remote_hops_matter(self, lat):
        near = RemoteMemAccessor(lat, BackingStore(1 << 20), hops=1,
                                 use_cache=False)
        far = RemoteMemAccessor(lat, BackingStore(1 << 20), hops=3,
                                use_cache=False)
        near.read(0, 8)
        far.read(0, 8)
        assert far.time_ns > near.time_ns

    def test_dirty_writeback_charged_on_eviction(self, lat):
        from repro.config import CacheConfig
        from repro.mem.cache import Cache

        tiny = Cache(CacheConfig(size_bytes=64, associativity=1,
                                 line_bytes=64))
        acc = LocalMemAccessor(lat, BackingStore(1 << 20), cache=tiny)
        acc.write(0, b"x" * 8)            # dirty line 0
        t_before = acc.time_ns
        acc.read(4096, 8)                 # evicts dirty line
        assert acc.time_ns - t_before == pytest.approx(2 * lat.local_ns)

    def test_swap_fault_then_residency(self, lat):
        cfg = ClusterConfig()
        swap = RemoteSwap(cfg.swap, resident_pages=4)
        acc = SwapAccessor(lat, BackingStore(1 << 24), swap, use_cache=False)
        acc.read(0, 8)
        assert acc.time_ns == pytest.approx(
            cfg.swap.remote_page_ns() + lat.local_ns
        )
        t = acc.time_ns
        acc.read(64, 8)  # same page now resident
        assert acc.time_ns - t == pytest.approx(lat.local_ns)
        assert acc.fault_count == 1

    def test_reset_clock(self, lat):
        acc = LocalMemAccessor(lat, BackingStore(1 << 20))
        acc.read(0, 8)
        acc.reset_clock()
        assert acc.time_ns == 0.0
        assert acc.accesses == 0


class TestScenarioOrdering:
    def test_random_workload_ordering(self, lat):
        """For a locality-poor random workload the paper's ordering must
        hold: local < remote << swap."""
        cfg = ClusterConfig()
        rng = np.random.default_rng(1)
        addrs = rng.integers(0, 4000, size=800) * PAGE_SIZE

        def run(acc):
            for a in addrs:
                acc.read(int(a), 8)
            return acc.time_ns

        t_local = run(LocalMemAccessor(lat, BackingStore(1 << 26)))
        t_remote = run(RemoteMemAccessor(lat, BackingStore(1 << 26)))
        t_swap = run(
            SwapAccessor(
                lat,
                BackingStore(1 << 26),
                RemoteSwap(cfg.swap, resident_pages=256),
            )
        )
        assert t_local < t_remote < t_swap
        assert t_swap > 10 * t_remote


class _SwapSpec:
    """Equation (1) written out from ``SwapConfig`` and the latency model.

    An independent reference for :class:`SwapAccessor`: the line cache
    is the executable spec :class:`ReferenceCache`, the page pool a
    plain ``OrderedDict``, and the fault and write-back costs are
    computed here from the config fields. Costs are added to the clock
    in the accessor's documented order: per line for a single-line
    access, one sum per access for a multi-line span.
    """

    def __init__(self, lat, cfg, device, resident_pages, cache_cfg,
                 flash_ns=None):
        self.hit_ns, self.local_ns = lat.cache_hit_ns, lat.local_ns
        self.page_bytes = cfg.page_bytes
        self.capacity = resident_pages
        self.lines = ReferenceCache(cache_cfg) if cache_cfg else None
        self.pages: OrderedDict[int, bool] = OrderedDict()  # page -> dirty
        if device == "remote":
            transfer_ns = bandwidth_time(cfg.page_bytes, cfg.net_bandwidth_Bpns)
            self.fault_ns = cfg.os_fault_ns + cfg.net_setup_ns + transfer_ns
            self.writeback_ns = cfg.net_setup_ns + transfer_ns
        elif device == "disk":
            transfer_ns = bandwidth_time(cfg.page_bytes, cfg.disk_bandwidth_Bpns)
            self.fault_ns = cfg.os_fault_ns + cfg.disk_seek_ns + transfer_ns
            self.writeback_ns = cfg.disk_seek_ns + transfer_ns
        else:  # flash: a page read after the OS entry, a page program out
            read_ns, write_ns = flash_ns
            self.fault_ns = cfg.os_fault_ns + read_ns
            self.writeback_ns = write_ns
        self.time_ns = 0.0
        self.accesses = 0
        self.fault_time_ns = 0.0
        self.page_stats = dict(hits=0, faults=0, evictions=0, dirty_writebacks=0)

    def _page_cost(self, line, is_write):
        page = line * CACHE_LINE // self.page_bytes
        if page in self.pages:
            self.pages.move_to_end(page)
            if is_write:
                self.pages[page] = True
            self.page_stats["hits"] += 1
            return 0.0
        self.page_stats["faults"] += 1
        cost = self.fault_ns
        if len(self.pages) >= self.capacity:
            _, dirty = self.pages.popitem(last=False)
            self.page_stats["evictions"] += 1
            if dirty:
                self.page_stats["dirty_writebacks"] += 1
                cost += self.writeback_ns
        self.pages[page] = is_write
        self.fault_time_ns += cost
        return cost

    def access(self, addr, size, is_write):
        lines = range(addr // CACHE_LINE, (addr + size - 1) // CACHE_LINE + 1)
        self.accesses += len(lines)
        if len(lines) == 1:
            line = lines[0]
            fault = self._page_cost(line, is_write)
            if fault > 0.0:
                self.time_ns += fault
                if self.lines is not None:
                    if self.lines.access(line, is_write).writeback:
                        self.time_ns += self.local_ns
                self.time_ns += self.local_ns
            elif self.lines is None:
                self.time_ns += self.local_ns
            else:
                result = self.lines.access(line, is_write)
                if result.hit:
                    self.time_ns += self.hit_ns
                elif result.writeback:
                    self.time_ns += 2 * self.local_ns
                else:
                    self.time_ns += self.local_ns
            return
        faults = 0.0
        writebacks = nonfault_hits = 0
        for line in lines:
            fault = self._page_cost(line, is_write)
            faults += fault
            if self.lines is not None:
                result = self.lines.access(line, is_write)
                writebacks += result.writeback
                nonfault_hits += result.hit and fault == 0.0
        n = len(lines)
        if self.lines is None:
            self.time_ns += faults + n * self.local_ns
        else:
            self.time_ns += (
                faults
                + writebacks * self.local_ns
                + nonfault_hits * self.hit_ns
                + (n - nonfault_hits) * self.local_ns
            )


def _single_line_trace(seed, n_ops=1500, pages=24):
    """Mostly aligned u64 probes, plus 1-byte accesses, 16-byte header
    reads and 8-byte reads at line offset 60 (two lines)."""
    rng = np.random.default_rng(seed)
    span = pages * PAGE_SIZE
    ops = []
    for _ in range(n_ops):
        kind = rng.choice(["read_u64", "write_u64", "byte", "header", "straddle"],
                          p=[0.5, 0.2, 0.12, 0.1, 0.08])
        addr = int(rng.integers(0, span - 2 * CACHE_LINE))
        is_write = bool(rng.random() < 0.3)
        if kind == "read_u64":
            ops.append(("read_u64", addr & ~7, 8, False))
        elif kind == "write_u64":
            ops.append(("write_u64", addr & ~7, 8, True))
        elif kind == "byte":
            ops.append(("byte", addr, 1, is_write))
        elif kind == "header":
            ops.append(("header", addr & ~15, 16, False))
        else:
            ops.append(("straddle", (addr & ~(CACHE_LINE - 1)) + 60, 8, False))
    return ops


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("device", ["remote", "disk", "flash"])
@pytest.mark.parametrize("use_cache", [True, False])
@pytest.mark.parametrize("fractional", [False, True])
def test_swap_accessor_matches_equation_1_spec(lat, seed, device, use_cache,
                                               fractional):
    """The single-line branch the default path and the ``batch=False``
    twin share (page probe, line probe, ``_charge_line``) against an
    independent reference: bit-identical clock, equal counters and pool
    state.

    The default costs are whole nanoseconds, so any summation order
    gives the same clock; the ``fractional`` costs make a reordered
    addition show up in ``time_ns``.
    """
    cfg = ClusterConfig().swap
    if fractional:
        lat = dataclasses.replace(lat, cache_hit_ns=5.3, local_ns=124.7)
        cfg = dataclasses.replace(cfg, os_fault_ns=6_000.1,
                                  net_bandwidth_Bpns=0.3, disk_bandwidth_Bpns=0.07)
    cache_cfg = (CacheConfig(size_bytes=8 * 1024, associativity=4, line_bytes=64)
                 if use_cache else None)
    flash_ns = (85_000.5, 240_000.25) if fractional else (90_000.0, 250_000.0)
    if device == "flash":
        swap = FlashSwap(cfg, resident_pages=8, read_page_ns=flash_ns[0],
                         write_page_ns=flash_ns[1])
    else:
        swap = (RemoteSwap if device == "remote" else DiskSwap)(
            cfg, resident_pages=8)
    acc = SwapAccessor(lat, BackingStore(1 << 20), swap,
                       cache=Cache(cache_cfg) if use_cache else None,
                       use_cache=use_cache)
    spec = _SwapSpec(lat, cfg, device, 8, cache_cfg, flash_ns)
    for i, (kind, addr, size, is_write) in enumerate(_single_line_trace(seed)):
        if kind == "read_u64":
            acc.read_u64(addr)
        elif kind == "write_u64":
            acc.write_u64(addr, i)
        elif is_write:
            acc.write(addr, b"\x01" * size)
        else:
            acc.read(addr, size)
        spec.access(addr, size, is_write)
        assert acc.time_ns == spec.time_ns, (i, kind, addr)
    assert acc.accesses == spec.accesses
    assert acc.swap.fault_time_ns == spec.fault_time_ns
    pool = acc.swap.stats
    assert {k: getattr(pool, k) for k in spec.page_stats} == spec.page_stats
    assert pool.faults > 8 and pool.dirty_writebacks > 0  # the pool churned
    if use_cache:
        assert acc.cache.stats == spec.lines.stats
        assert acc.cache.stats.writebacks > 0


class _PerLineSwapAccessor(SwapAccessor):
    """Twin that sends every touched line through ``_charge_line``, the
    reference the single-line probes must reproduce."""

    def _charge(self, addr, size, is_write):
        lines = range(addr // CACHE_LINE, (addr + size - 1) // CACHE_LINE + 1)
        self.accesses += len(lines)
        for line in lines:
            self._charge_line(line, is_write)


def _compressed(cfg):
    # 4 hot + 10 compressed pages: a 24-page trace both decompresses
    # and overflows to the remote-swap path
    return CompressedMemory(cfg, dram_pages=8)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("make_device", [_compressed,
                                         lambda cfg: OSMemoryServer()],
                         ids=["compressed", "os_server"])
@pytest.mark.parametrize("use_cache", [True, False])
def test_non_paged_devices_match_per_line_twin(lat, seed, make_device, use_cache):
    """``CompressedMemory`` takes the page and line probes,
    ``OSMemoryServer`` (every access priced) the ``access_ns`` path;
    either way the clock, counters and device state equal a twin that
    charges each line through ``_charge_line``."""
    cfg = ClusterConfig().swap
    cache_cfg = CacheConfig(size_bytes=8 * 1024, associativity=4, line_bytes=64)
    accs = [
        cls(lat, BackingStore(1 << 20), make_device(cfg),
            cache=Cache(cache_cfg) if use_cache else None, use_cache=use_cache)
        for cls in (SwapAccessor, _PerLineSwapAccessor)
    ]
    for i, (kind, addr, size, is_write) in enumerate(_single_line_trace(seed)):
        for acc in accs:
            if kind == "read_u64":
                acc.read_u64(addr)
            elif kind == "write_u64":
                acc.write_u64(addr, i)
            elif is_write:
                acc.write(addr, b"\x01" * size)
            else:
                acc.read(addr, size)
        assert accs[0].time_ns == accs[1].time_ns, (i, kind, addr)
    acc, twin = accs
    assert acc.accesses == twin.accesses
    assert acc.swap.stats == twin.swap.stats
    if use_cache:
        assert acc.cache.stats == twin.cache.stats
    if isinstance(acc.swap, CompressedMemory):
        assert acc.swap.fault_time_ns == twin.swap.fault_time_ns
        assert acc.swap.overflow_faults == twin.swap.overflow_faults > 0
        assert acc.swap.stats.hits > 0 and acc.swap.stats.faults > 0
    else:
        assert acc.swap.accesses == twin.swap.accesses == acc.accesses


def _charged_state(acc):
    """Everything an access may charge or touch, as comparable values."""
    state = [acc.time_ns, acc.accesses, dataclasses.astuple(acc.cache.stats),
             sorted(line for s in acc.cache._sets for line, dirty in s.items()
                    if dirty),
             acc.cache.resident_lines]
    swap = getattr(acc, "swap", None)
    if swap is not None:
        state += [dataclasses.astuple(swap.stats), list(swap.cache._frames.items()),
                  swap.fault_time_ns]
    return state


_REJECTED = [
    ("read_u64 past the end", lambda a: a.read_u64(1 << 20), AddressError),
    ("read straddling the end", lambda a: a.read((1 << 16) - 4, 8), AddressError),
    ("write past the end", lambda a: a.write(1 << 20, b"x" * 8), AddressError),
    ("write_u64 past the end", lambda a: a.write_u64(1 << 20, 5), AddressError),
    ("negative word", lambda a: a.write_u64(64, -1), OverflowError),
    ("word too wide", lambda a: a.write_u64(128, 1 << 64), OverflowError),
    ("float word", lambda a: a.write_u64(64, 1.5), TypeError),
    ("read_array past the end",
     lambda a: a.read_array(1 << 20, 4, np.uint64), AddressError),
    ("view_array past the end",
     lambda a: a.view_array((1 << 16) - 8, 4, np.uint64), AddressError),
    ("write_array past the end",
     lambda a: a.write_array(1 << 20, np.arange(4, dtype=np.uint64)), AddressError),
    # its first probes are in range: the whole range is checked first
    ("search_u64 past the end",
     lambda a: a.search_u64((1 << 16) - 80, 16, 1 << 70), AddressError),
    ("search_btree root past the end",
     lambda a: a.search_btree(1 << 20, 5, 15), AddressError),
]


@pytest.mark.parametrize("kind", ["local", "remote", "swap"])
@pytest.mark.parametrize("op,error", [(op, err) for _, op, err in _REJECTED],
                         ids=[name for name, _, _ in _REJECTED])
def test_rejected_access_is_not_charged(lat, kind, op, error):
    """An access the backing store rejects raises before the accessor
    charges it: clock, access count, line cache (stats, residency,
    dirty lines) and page pool (stats, LRU order, dirty flags, fault
    time) all stay as they were."""
    store = BackingStore(1 << 16)
    if kind == "local":
        acc = LocalMemAccessor(lat, store)
    elif kind == "remote":
        acc = RemoteMemAccessor(lat, store)
    else:
        acc = SwapAccessor(lat, store,
                           RemoteSwap(ClusterConfig().swap, resident_pages=4))
    # lines 1 and 2 cached clean, their page resident: a charge of the
    # rejected word would move recency or dirty a line
    acc.read(0, 4096)
    acc.read_u64(4096)
    before = _charged_state(acc)
    with pytest.raises(error):
        op(acc)
    assert _charged_state(acc) == before
    acc.write_u64(64, 7)  # a valid access is charged as before
    assert acc.read_u64(64) == 7 and acc.accesses == before[1] + 2


# ---------------------------------------------------------------------------
# search_u64: the one-call in-node search against the read_u64 loop
# ---------------------------------------------------------------------------

_SEARCH_STORE = 1 << 18  # four 64 KiB chunks, 64 pages
_CHUNK_WORDS = (64 * 1024) // 8
_SEARCH_KINDS = ["local", "remote", "remote_prefetch", "swap_remote",
                 "swap_disk", "swap_flash", "swap_compressed", "swap_os"]


def _search_accessor(kind, cache_mode, lat, words, shift):
    """An accessor over a store of strictly increasing words from byte
    *shift* on, with a small line cache (or none) and a small page
    pool."""
    store = BackingStore(_SEARCH_STORE)
    store.write(shift, words.tobytes())
    cache = None
    if cache_mode is not None:
        cache = Cache(CacheConfig(size_bytes=4 * 1024, associativity=2,
                                  line_bytes=64,
                                  write_back=cache_mode == "write_back"))
    use_cache = cache is not None
    if kind == "local":
        return LocalMemAccessor(lat, store, cache=cache, use_cache=use_cache)
    if kind.startswith("remote"):
        pf = PrefetchConfig() if kind == "remote_prefetch" else None
        return RemoteMemAccessor(lat, store, hops=2, cache=cache,
                                 use_cache=use_cache, prefetch=pf)
    cfg = ClusterConfig().swap
    swap = {
        "swap_remote": lambda: RemoteSwap(cfg, resident_pages=3),
        "swap_disk": lambda: DiskSwap(cfg, resident_pages=3),
        "swap_flash": lambda: FlashSwap(cfg, resident_pages=3),
        "swap_compressed": lambda: CompressedMemory(cfg, dram_pages=4),
        "swap_os": lambda: OSMemoryServer(),
    }[kind]()
    return SwapAccessor(lat, store, swap, cache=cache, use_cache=use_cache)


def _full_state(acc):
    """Every charge, counter and recency order an access may move."""
    state = {"time_ns": acc.time_ns, "accesses": acc.accesses}
    cache = acc.cache
    if cache is not None:
        # each set's (line, dirty) pairs in LRU order
        state["cache"] = (dataclasses.astuple(cache.stats),
                          [list(s.items()) for s in cache._sets])
    pf = getattr(acc, "prefetcher", None)
    if pf is not None:
        state["prefetch"] = {k: v for k, v in vars(pf).items() if k != "config"}
    swap = getattr(acc, "swap", None)
    if isinstance(swap, OSMemoryServer):
        state["swap"] = swap.accesses
    elif swap is not None:
        state["swap"] = (dataclasses.astuple(swap.stats),
                         list(swap.cache._frames.items()), swap.fault_time_ns,
                         getattr(swap, "overflow_faults", None))
        cold = getattr(swap, "_compressed", None)
        if cold is not None:
            state["cold"] = (dataclasses.astuple(cold.stats),
                             list(cold._frames.items()))
    return state


_KEY_KINDS = ["found", "missing", "below", "above", "negative", "wide"]

_search_ops = st.lists(
    st.one_of(
        # (count, first word, key kind, which word the key is drawn from)
        st.tuples(
            st.just("search"),
            st.integers(0, 3 * 512),
            st.one_of(st.integers(0, _SEARCH_STORE // 8),
                      # near a 64 KiB chunk boundary
                      st.integers(1, 3).flatmap(lambda c: st.integers(
                          c * _CHUNK_WORDS - 600, c * _CHUNK_WORDS + 8))),
            st.sampled_from(_KEY_KINDS),
            st.floats(0, 1, exclude_max=True),
        ),
        # rewrite words with their own values: dirties lines and pages
        # without breaking the order
        st.tuples(st.just("write"), st.integers(1, 80),
                  st.integers(0, _SEARCH_STORE // 8 - 81)),
    ),
    min_size=1, max_size=12,
)


def _search_key(words, first, count, kind, frac):
    if kind == "negative":
        return -5
    if kind == "wide":
        return (1 << 64) + 3
    if count == 0:
        return int(words[first]) if first < len(words) else 7
    if kind == "below":
        return int(words[first]) - 1
    if kind == "above":
        return int(words[first + count - 1]) + 1
    j = first + int(frac * count)
    return int(words[j]) + (kind == "missing")


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(_SEARCH_KINDS),
       cache_mode=st.sampled_from([None, "write_back", "write_through"]),
       fractional=st.booleans(),
       shift=st.sampled_from([0, 4]),
       seed=st.integers(0, 2**32 - 1),
       ops=_search_ops)
def test_search_u64_matches_read_u64_loop(kind, cache_mode, fractional, shift,
                                         seed, ops):
    """``search_u64`` returns what the ``read_u64`` loop returns and
    charges exactly what it charges, call by call: clock, access count,
    line-cache stats, recency and dirty lines, prefetcher state, page
    pool stats, LRU order and dirtiness, fault time and overflow faults.
    Pools of a few pages fault and evict dirty pages mid-path; ranges
    run from empty to three pages and straddle pages and chunks; words
    at a *shift* of 4 bytes straddle lines."""
    lat = LatencyModel.from_config(ClusterConfig())
    if fractional:
        lat = dataclasses.replace(lat, cache_hit_ns=5.3, local_ns=124.7)
    # gaps of at least 2, so word + 1 is a key that is not there
    gaps = np.random.default_rng(seed).integers(2, 1 << 40,
                                                size=_SEARCH_STORE // 8 - 1)
    words = np.cumsum(gaps, dtype=np.uint64)
    acc = _search_accessor(kind, cache_mode, lat, words, shift)
    twin = _search_accessor(kind, cache_mode, lat, words, shift)
    for op in ops:
        if op[0] == "write":
            _, n, first = op
            addr = 8 * first + shift
            data = acc.bulk_read(addr, 8 * n)
            for a in (acc, twin):
                if n == 1:
                    a.write_u64(addr, int(words[first]))
                else:
                    a.write(addr, data)
        else:
            _, count, first, key_kind, frac = op
            first = min(first, len(words) - count)
            key = _search_key(words, first, count, key_kind, frac)
            addr = 8 * first + shift
            got = acc.search_u64(addr, count, key)
            want = search_u64_ref(twin.read_u64, addr, count, key)
            assert got == want, op
            assert acc.time_ns == twin.time_ns, op
        assert _full_state(acc) == _full_state(twin), op


# ---------------------------------------------------------------------------
# search_btree: the one-call descent against the per-node accessor calls
# ---------------------------------------------------------------------------

_BTREE_FANOUTS = [3, 4, 5, 6, 7, 8, 16, 32, 64, 168, 256, 300]

_btree_ops = st.lists(
    st.one_of(
        st.tuples(st.just("search"),
                  st.sampled_from(["found", "missing", "below", "above"]),
                  st.floats(0, 1, exclude_max=True)),
        # a timed insert dirties lines and pages and splits nodes
        st.tuples(st.just("insert"), st.floats(0, 1, exclude_max=True)),
    ),
    min_size=1, max_size=12,
)


def _btree_twins(kind, cache_mode, lat, children, base, align, keys, built):
    """Two accessors over empty stores, each holding the same tree: one
    *built* by ``bulk_load`` or by timed inserts, with nodes allocated
    from byte *base* on with the arena's *align* (1 puts words off
    8-byte boundaries)."""
    from repro.apps.btree import BTree

    twins = []
    for _ in range(2):
        acc = _search_accessor(kind, cache_mode, lat, np.empty(0, np.uint64), 0)
        arena = BumpAllocator(_SEARCH_STORE - base, base=base, align=align)
        tree = BTree(acc, children=children, arena=arena)
        if built == "bulk":
            tree.bulk_load(keys)
        else:
            for key in keys.tolist():
                tree.insert(key)
        twins.append((acc, tree))
    return twins


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(_SEARCH_KINDS),
       cache_mode=st.sampled_from([None, "write_back", "write_through"]),
       children=st.sampled_from(_BTREE_FANOUTS),
       layout=st.sampled_from([(0, 8), (0, 1), (4, 1), (4, 8), (60 * 1024, 8),
                               (60 * 1024 + 4, 1)]),
       built=st.sampled_from(["bulk", "insert"]),
       nkeys=st.integers(1, 400),
       seed=st.integers(0, 2**32 - 1),
       ops=_btree_ops)
def test_search_btree_matches_reference(kind, cache_mode, children, layout,
                                        built, nkeys, seed, ops):
    """``BTree.search`` (one ``search_btree`` call) returns what
    :func:`search_btree_ref` returns on a twin accessor, books the same
    ``SearchStats``, and charges exactly what the twin's per-node calls
    charge, search by search: clock, access count, line-cache stats,
    recency and dirty lines, prefetcher state, page pool stats, LRU
    order and dirtiness, fault time. Fanouts from 3 to 300 put nodes at
    line-straddling headers, inside one page, across pages and, from
    60 KiB on, across a backing chunk; an arena aligned to 1 byte puts
    every word off its 8-byte boundary."""
    lat = LatencyModel.from_config(ClusterConfig())
    base, align = layout
    gaps = np.random.default_rng(seed).integers(2, 1 << 30, size=nkeys)
    keys = np.cumsum(gaps, dtype=np.uint64) + np.uint64(1)
    (acc, tree), (twin, twin_tree) = _btree_twins(
        kind, cache_mode, lat, children, base, align, keys, built)
    assert _full_state(acc) == _full_state(twin)
    stored = set(keys.tolist())
    for op in ops:
        j = int(op[-1] * nkeys)
        if op[0] == "insert":
            key = int(keys[j]) + 1
            if key not in stored:
                stored.add(key)
                tree.insert(key)
                twin_tree.insert(key)
        else:
            key = {"found": int(keys[j]), "missing": int(keys[j]) + 1,
                   "below": int(keys[0]) - 1, "above": int(keys[-1]) + 1}[op[1]]
            # inserts book their own probes, so the spec's counts are
            # added to the stats as they stand
            want = dataclasses.replace(tree.stats)
            got = tree.search(key)
            found, visited, probes = search_btree_ref(
                twin, twin_tree.root_addr, key, twin_tree.max_keys)
            want.searches += 1
            want.found += found
            want.nodes_visited += visited
            want.key_probes += probes
            assert got is found and found == (key in stored), op
            assert tree.stats == want, op
            assert acc.time_ns == twin.time_ns, op
        assert _full_state(acc) == _full_state(twin), op


@pytest.mark.parametrize("kind", _SEARCH_KINDS)
@pytest.mark.parametrize("corrupt", ["child_past_store", "child_at_store_end",
                                     "count_past_store", "count_past_max_keys"])
def test_search_btree_corrupt_tree_matches_reference(lat, kind, corrupt):
    """On a corrupt tree the one-call descent raises the spec's error
    after booking exactly what the spec's per-node calls booked before
    the read that failed: the root and its first child are charged, a
    child pointer past the store fails the next header read, and a
    ``count`` past the store fails the key search. Where the spec does
    not fail, neither does the descent: a child pointer to an empty
    leaf whose last child slot lies past the store's end, and a
    ``count`` past *max_keys* that stays inside the store."""
    keys = np.arange(1, 2_000, dtype=np.uint64) * np.uint64(3)
    (acc, tree), (twin, twin_tree) = _btree_twins(
        kind, "write_back", lat, 8, 0, 8, keys, "bulk")
    assert tree.height == 3
    max_keys = tree.max_keys
    inner = int.from_bytes(
        acc.bulk_read(btree_child_addr(tree.root_addr, max_keys, 0), 8), "little")
    if corrupt.startswith("child"):
        addr = btree_child_addr(inner, max_keys, 0)
        # at the end, the node's last child slot lies past the store
        value = (_SEARCH_STORE + 4096 if corrupt == "child_past_store"
                 else _SEARCH_STORE - btree_node_bytes(max_keys) + 8)
    else:
        addr = inner
        value = 1 << 40 if corrupt == "count_past_store" else max_keys + 3
    for a, t in ((acc, tree), (twin, twin_tree)):
        a.bulk_write(addr, value.to_bytes(8, "little"))
        if corrupt == "child_at_store_end":
            a.bulk_write(value, BTREE_HEADER.pack(0, 1))
        t.search(int(keys[-1]))  # a path the corruption leaves alone
    assert _full_state(acc) == _full_state(twin)
    before = acc.time_ns
    if corrupt in ("child_at_store_end", "count_past_max_keys"):
        assert (acc.search_btree(tree.root_addr, 1, max_keys)
                == search_btree_ref(twin, twin_tree.root_addr, 1, max_keys))
    else:
        with pytest.raises(AddressError):
            acc.search_btree(tree.root_addr, 1, max_keys)
        with pytest.raises(AddressError):
            search_btree_ref(twin, twin_tree.root_addr, 1, max_keys)
    assert acc.time_ns > before
    assert _full_state(acc) == _full_state(twin)
