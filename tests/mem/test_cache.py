"""Tests for the set-associative write-back cache."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.errors import CoherenceError
from repro.cluster.cluster import Cluster
from repro.mem.cache import _COLD, Cache, ReferenceCache
from repro.units import mib


def small_cache(sets=4, assoc=2, line=64):
    return Cache(
        CacheConfig(
            size_bytes=sets * assoc * line,
            associativity=assoc,
            line_bytes=line,
        )
    )


def test_cold_miss_then_hit():
    c = small_cache()
    assert not c.access(10, is_write=False).hit
    assert c.access(10, is_write=False).hit
    assert c.stats.hits == 1
    assert c.stats.misses == 1


def test_lru_eviction_order():
    c = small_cache(sets=1, assoc=2)
    c.access(0, False)
    c.access(1, False)
    c.access(0, False)          # 0 is now MRU
    result = c.access(2, False)  # evicts 1 (LRU)
    assert result.evicted == 1
    assert c.contains(0)
    assert not c.contains(1)


def test_dirty_eviction_requests_writeback():
    c = small_cache(sets=1, assoc=1)
    c.access(5, is_write=True)
    result = c.access(6, is_write=False)
    assert result.evicted == 5
    assert result.writeback
    assert c.stats.writebacks == 1


def test_clean_eviction_no_writeback():
    c = small_cache(sets=1, assoc=1)
    c.access(5, is_write=False)
    result = c.access(6, is_write=False)
    assert result.evicted == 5
    assert not result.writeback


def test_write_through_never_writebacks():
    c = Cache(
        CacheConfig(size_bytes=128, associativity=1, line_bytes=64,
                    write_back=False)
    )
    c.access(0, is_write=True)
    result = c.access(2, is_write=False)  # same set, evicts 0
    assert not result.writeback


@pytest.mark.parametrize("engine", [Cache, ReferenceCache])
def test_write_through_write_hit_stays_clean(engine):
    """A write-through cache never holds a dirty line, so a write hit
    leaves its line clean and a flush writes nothing back."""
    c = engine(
        CacheConfig(size_bytes=128, associativity=1, line_bytes=64,
                    write_back=False)
    )
    c.access(0, is_write=False)
    assert c.access(0, is_write=True).hit
    assert not c.is_dirty(0)
    assert c.flush() == []
    assert c.stats.writebacks == 0


def test_write_hit_marks_dirty():
    c = small_cache()
    c.access(3, is_write=False)
    c.access(3, is_write=True)
    assert c.is_dirty(3)


def test_set_isolation():
    """Lines in different sets never evict each other."""
    c = small_cache(sets=4, assoc=1)
    for line in range(4):  # four different sets
        assert c.access(line, False).evicted is None
    assert c.resident_lines == 4


def test_line_and_set_geometry():
    c = small_cache(sets=4, assoc=2, line=64)
    assert c.line_of(0) == 0
    assert c.line_of(63) == 0
    assert c.line_of(64) == 1
    assert c.set_of(5) == 1
    assert c.set_of(4) == 0


def test_invalidate_returns_dirtiness():
    c = small_cache()
    c.access(7, is_write=True)
    assert c.invalidate(7) is True
    assert not c.contains(7)
    c.access(8, is_write=False)
    assert c.invalidate(8) is False


def test_invalidate_missing_line_is_error():
    with pytest.raises(CoherenceError):
        small_cache().invalidate(42)


def test_flush_returns_dirty_lines_and_empties():
    c = small_cache()
    c.access(1, is_write=True)
    c.access(2, is_write=False)
    c.access(3, is_write=True)
    dirty = sorted(c.flush())
    assert dirty == [1, 3]
    assert c.resident_lines == 0
    assert c.stats.flushes == 1


def test_hit_rate():
    c = small_cache()
    c.access(0, False)
    c.access(0, False)
    c.access(0, False)
    assert c.stats.hit_rate == pytest.approx(2 / 3)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 63), st.booleans()), min_size=1, max_size=300
    )
)
def test_matches_reference_lru(ops):
    """Property: per-set residency matches a reference LRU list."""
    assoc = 4
    sets = 4
    c = small_cache(sets=sets, assoc=assoc)
    ref: dict[int, list[int]] = {s: [] for s in range(sets)}
    for line, is_write in ops:
        s = line % sets
        lst = ref[s]
        if line in lst:
            lst.remove(line)
        elif len(lst) >= assoc:
            lst.pop(0)
        lst.append(line)
        c.access(line, is_write)
    for s, lst in ref.items():
        for line in lst:
            assert c.contains(line), f"line {line} missing from set {s}"
    assert c.resident_lines == sum(len(v) for v in ref.values())


# -- cold sets: per-set state is created on a set's first install --------


def test_fresh_cache_cold_state():
    c = small_cache()
    with pytest.raises(CoherenceError):
        c.invalidate(3)
    assert c.flush() == []
    assert c.resident_lines == 0
    assert not c.contains(3)
    first = c.access_span(0, 6, is_write=True)
    assert (first.hits, first.misses) == (0, 6)
    again = c.access_span(0, 6, is_write=False)
    assert (again.hits, again.misses) == (6, 0)
    assert sorted(c.flush()) == list(range(6))


def test_cold_placeholder_is_read_only():
    with pytest.raises(TypeError):
        _COLD[1] = 0


def test_cold_caches_share_one_index():
    """Caches of one set count share one read-only all-cold per-set
    index until their first install; an install gives only that cache
    a private list, and ``flush`` hands the shared index back."""
    a, b = small_cache(), small_cache()
    assert a._sets is b._sets
    assert small_cache(sets=8)._sets is not a._sets
    with pytest.raises(TypeError):
        a._sets[1] = {}
    a.access(5, is_write=True)
    assert a._sets is not b._sets
    assert a.contains(5) and not b.contains(5)
    assert b.resident_lines == 0 and all(s is _COLD for s in b._sets)
    assert a.flush() == [5]
    assert a._sets is b._sets
    # a span's installs open sets the same way
    r = a.access_span(0, 3, is_write=False)
    assert (r.hits, r.misses) == (0, 3)
    assert a._sets is not b._sets and a.resident_lines == 3
    assert b.resident_lines == 0 and b.access_span(3, 1, False).misses == 1


@pytest.mark.parametrize("seed", range(3))
def test_cold_placeholder_stays_empty(seed):
    """A random trace over every entry point — scalar, span, hit probe,
    invalidate, flush — matches the eager reference model and
    never writes into the shared cold placeholder."""
    cfg = CacheConfig(size_bytes=16 * 4 * 64, associativity=4, line_bytes=64)
    cache, ref = Cache(cfg), ReferenceCache(cfg)
    rng = np.random.default_rng(seed)
    for _ in range(400):
        kind = int(rng.integers(0, 5))
        is_write = bool(rng.random() < 0.4)
        if kind == 0:
            line = int(rng.integers(0, 256))
            a, b = cache.access(line, is_write), ref.access(line, is_write)
            assert (a.hit, a.evicted, a.writeback) == (
                b.hit, b.evicted, b.writeback
            )
        elif kind == 1:
            first = int(rng.integers(0, 256))
            count = int(rng.integers(1, 40))
            r = cache.access_span(first, count, is_write)
            hits = [ref.access(ln, is_write).hit
                    for ln in range(first, first + count)]
            assert r.hit_mask == hits
        elif kind == 2:
            line = int(rng.integers(0, 256))
            resident = ref.contains(line)
            assert cache.hit(line, is_write) == resident
            if resident:
                ref.access(line, is_write)
        elif kind == 3:
            line = int(rng.integers(0, 256))
            if ref.contains(line):
                assert cache.invalidate(line) == ref.invalidate(line)
            else:
                with pytest.raises(CoherenceError):
                    cache.invalidate(line)
        elif rng.random() < 0.1:
            assert cache.flush() == ref.flush()
        assert len(_COLD) == 0
    assert cache.stats == ref.stats
    assert cache.resident_lines == ref.resident_lines
    for line in range(256):
        assert cache.contains(line) == ref.contains(line)
        if cache.contains(line):
            assert cache.is_dirty(line) == ref.is_dirty(line)
    assert cache.flush() == ref.flush()
    assert len(_COLD) == 0


def test_default_cluster_footprint():
    """A default 16-node cluster (256 L2 caches of 2,048 sets each)
    allocates per-set cache state only for the sets it touches, and
    its untouched caches share one cold per-set index: its traced heap
    peak (about 1.2 MiB) stays far below the ~36 MiB eager per-set
    dicts would cost, and below the 4 MiB of private per-cache
    indexes. Its 1,120 resources and 160 stores allocate no
    queue until something waits or is buffered in one (1,600 empty
    deques would add about 1.2 MiB). Allocation sizes do not depend
    on host timing, so the bound is exact across runs."""
    already = tracemalloc.is_tracing()
    if not already:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base, _ = tracemalloc.get_traced_memory()
    try:
        Cluster()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not already:
            tracemalloc.stop()
    assert peak - base < mib(2)
