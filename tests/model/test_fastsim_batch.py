"""Batch-path vs scalar-path equivalence for the fast-tier accessors.

An accessor constructed with ``batch=False`` takes the per-line
reference loop for every access. Identical traces through both modes
must produce the same total time, the same cache statistics, and (for
swap) the same page-pool state — the vectorized span path is an
optimization, not a remodel.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.config import CacheConfig, ClusterConfig
from repro.mem.backing import BackingStore
from repro.mem.cache import Cache
from repro.model.fastsim import (
    LocalMemAccessor,
    RemoteMemAccessor,
    SwapAccessor,
)
from repro.model.latency import LatencyModel
from repro.model.prefetch import PrefetchConfig
from repro.swap.alternatives import FlashSwap
from repro.swap.diskswap import DiskSwap
from repro.swap.remoteswap import RemoteSwap


@pytest.fixture
def lat():
    return LatencyModel.from_config(ClusterConfig())


def _small_cache() -> Cache:
    # small geometry so evictions and write-backs actually happen
    return Cache(CacheConfig(size_bytes=16 * 1024, associativity=4,
                             line_bytes=64))


def _trace(seed: int, n_ops: int = 400):
    """Mixed single-line / multi-line / page-crossing accesses."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n_ops):
        addr = int(rng.integers(0, 1 << 19))
        size = int(rng.choice([1, 8, 64, 256, 4096, 9000]))
        ops.append((addr, size, bool(rng.random() < 0.35)))
    return ops


def _run(acc, ops):
    for addr, size, is_write in ops:
        if is_write:
            acc.write(addr, bytes(size))
        else:
            acc.read(addr, size)
    return acc


def _assert_equal(batched, scalar):
    assert math.isclose(batched.time_ns, scalar.time_ns, rel_tol=1e-9)
    assert batched.accesses == scalar.accesses
    if batched.cache is not None:
        assert batched.cache.stats == scalar.cache.stats


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("use_cache", [True, False])
def test_local_accessor_equivalence(lat, seed, use_cache):
    ops = _trace(seed)
    b = _run(LocalMemAccessor(lat, BackingStore(1 << 20),
                              cache=_small_cache() if use_cache else None,
                              use_cache=use_cache), ops)
    s = _run(LocalMemAccessor(lat, BackingStore(1 << 20),
                              cache=_small_cache() if use_cache else None,
                              use_cache=use_cache, batch=False), ops)
    _assert_equal(b, s)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("prefetch", [None, PrefetchConfig()])
def test_remote_accessor_equivalence(lat, seed, prefetch):
    ops = _trace(seed)
    b = _run(RemoteMemAccessor(lat, BackingStore(1 << 20), hops=2,
                               cache=_small_cache(), prefetch=prefetch), ops)
    s = _run(RemoteMemAccessor(lat, BackingStore(1 << 20), hops=2,
                               cache=_small_cache(), prefetch=prefetch,
                               batch=False), ops)
    _assert_equal(b, s)
    if prefetch is not None:
        for attr in ("issued", "covered", "wasted", "demand_misses"):
            assert getattr(b.prefetcher, attr) == getattr(s.prefetcher, attr)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("device", ["remote", "disk", "flash"])
def test_swap_accessor_equivalence(lat, seed, device):
    cfg = ClusterConfig()

    def make(batch):
        swap_cls = {"remote": RemoteSwap, "disk": DiskSwap,
                    "flash": FlashSwap}[device]
        # tiny pool so the page-LRU churns and dirty victims write back
        swap = swap_cls(cfg.swap, resident_pages=16)
        return SwapAccessor(lat, BackingStore(1 << 20), swap,
                            cache=_small_cache(), batch=batch)

    ops = _trace(seed)
    b, s = _run(make(True), ops), _run(make(False), ops)
    _assert_equal(b, s)
    assert b.fault_count == s.fault_count
    for attr in ("hits", "faults", "evictions", "dirty_writebacks"):
        assert getattr(b.swap.stats, attr) == getattr(s.swap.stats, attr)
    assert math.isclose(b.swap.fault_time_ns, s.swap.fault_time_ns,
                        rel_tol=1e-9)


def test_swap_without_span_entry_point_falls_back(lat):
    """Duck-typed swap devices without ``access_span_ns`` (the ext-B
    alternatives) must keep working through the per-line loop."""
    cfg = ClusterConfig()

    class MinimalSwap:
        def __init__(self):
            self._inner = RemoteSwap(cfg.swap, resident_pages=8)

        def access_ns(self, addr, is_write=False):
            return self._inner.access_ns(addr, is_write)

        @property
        def stats(self):
            return self._inner.stats

    ref = SwapAccessor(lat, BackingStore(1 << 20),
                       RemoteSwap(cfg.swap, resident_pages=8),
                       cache=_small_cache(), batch=False)
    duck = SwapAccessor(lat, BackingStore(1 << 20), MinimalSwap(),
                        cache=_small_cache())
    ops = _trace(11, n_ops=150)
    _run(duck, ops)
    _run(ref, ops)
    _assert_equal(duck, ref)
    assert duck.fault_count == ref.fault_count


def test_functional_results_identical_across_modes(lat):
    """The data plane is mode-independent: bytes read back match."""
    rng = np.random.default_rng(5)
    payload = rng.bytes(9000)
    for batch in (True, False):
        acc = LocalMemAccessor(lat, BackingStore(1 << 20), batch=batch)
        acc.write(1234, payload)
        assert acc.read(1234, len(payload)) == payload
        acc.write_u64(64, 77)
        assert acc.read_u64(64) == 77
        values = np.arange(500, dtype=np.uint64)
        acc.write_array(32768, values)
        assert (acc.read_array(32768, 500, np.uint64) == values).all()


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("kind", ["local", "remote", "swap"])
def test_btree_search_trace_equivalence(lat, seed, kind):
    """A seeded B-tree search trace charges the same through the
    one-call ``search_u64`` (``batch=True``) as through its per-probe
    ``read_u64`` loop (``batch=False``): time, access and probe counts,
    cache stats and, over swap, the page pool's stats, LRU order and
    dirtiness, to the bit."""
    from repro.apps.btree import BTree

    cfg = ClusterConfig()
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.integers(1, 1 << 40, size=6_000, dtype=np.uint64))
    queries = rng.integers(1, 1 << 40, size=600).tolist()
    queries += rng.choice(keys, size=600).tolist()
    rng.shuffle(queries)
    inserts = np.setdiff1d(rng.integers(1, 1 << 40, size=20), keys).tolist()

    def make(batch):
        store = BackingStore(1 << 20)
        if kind == "local":
            acc = LocalMemAccessor(lat, store, cache=_small_cache(), batch=batch)
        elif kind == "remote":
            acc = RemoteMemAccessor(lat, store, hops=2, cache=_small_cache(),
                                    batch=batch)
        else:
            acc = SwapAccessor(lat, store, RemoteSwap(cfg.swap, resident_pages=8),
                               cache=_small_cache(), batch=batch)
        tree = BTree(acc, children=64)
        tree.bulk_load(keys)
        # timed inserts dirty lines and pages before the searches
        for key in inserts:
            tree.insert(key)
        return acc, tree

    b, tb = make(True)
    s, ts = make(False)
    for q in queries:
        assert tb.search(q) == ts.search(q)
        assert b.time_ns == s.time_ns
    assert b.accesses == s.accesses
    assert tb.stats == ts.stats
    assert b.cache.stats == s.cache.stats
    # every set's (line, dirty) pairs in LRU order
    assert [list(st.items()) for st in b.cache._sets] == [
        list(st.items()) for st in s.cache._sets
    ]
    if kind == "swap":
        assert b.swap.stats == s.swap.stats
        assert list(b.swap.cache._frames.items()) == list(
            s.swap.cache._frames.items())
        assert b.swap.fault_time_ns == s.swap.fault_time_ns
        assert b.swap.stats.faults > 8 and b.swap.stats.dirty_writebacks > 0
