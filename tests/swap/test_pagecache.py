"""Tests for the LRU page cache."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ConfigError
from repro.swap.pagecache import LRUPageCache, PageFault


def test_miss_installs_page():
    pc = LRUPageCache(4)
    fault = pc.access(7)
    assert fault is not None
    assert fault.page == 7
    assert fault.evicted is None
    assert pc.resident(7)
    assert pc.access(7) is None  # now a hit


def test_lru_victim_selection():
    pc = LRUPageCache(2)
    pc.access(1)
    pc.access(2)
    pc.access(1)           # 1 is MRU
    fault = pc.access(3)   # evicts 2
    assert fault.evicted == 2
    assert pc.resident(1)
    assert not pc.resident(2)


def test_dirty_eviction_flagged():
    pc = LRUPageCache(1)
    pc.access(1, is_write=True)
    fault = pc.access(2)
    assert fault.evicted == 1
    assert fault.evicted_dirty
    assert pc.stats.dirty_writebacks == 1


def test_clean_eviction_not_flagged():
    pc = LRUPageCache(1)
    pc.access(1, is_write=False)
    fault = pc.access(2)
    assert not fault.evicted_dirty


def test_write_hit_dirties_page():
    pc = LRUPageCache(2)
    pc.access(1)
    pc.access(1, is_write=True)
    pc.access(2)
    fault = pc.access(3)  # evicts 1
    assert fault.evicted == 1
    assert fault.evicted_dirty


def test_stats_and_fault_rate():
    pc = LRUPageCache(8)
    for p in (1, 2, 1, 1, 3):
        pc.access(p)
    assert pc.stats.hits == 2
    assert pc.stats.faults == 3
    assert pc.stats.fault_rate == pytest.approx(3 / 5)


def test_capacity_never_exceeded():
    pc = LRUPageCache(3)
    for p in range(10):
        pc.access(p)
    assert len(pc) == 3


def test_clear():
    pc = LRUPageCache(3)
    pc.access(1)
    pc.clear()
    assert len(pc) == 0
    assert not pc.resident(1)


def test_capacity_validated():
    with pytest.raises(ConfigError):
        LRUPageCache(0)


def test_working_set_within_capacity_never_refaults():
    pc = LRUPageCache(10)
    for _ in range(5):
        for p in range(10):
            pc.access(p)
    assert pc.stats.faults == 10  # only cold misses


def test_cyclic_overflow_thrashes():
    """The classic LRU pathology behind Fig. 10's blow-up: a cyclic scan
    one page larger than memory faults on every access."""
    pc = LRUPageCache(10)
    for _ in range(3):
        for p in range(11):
            pc.access(p)
    assert pc.stats.hits == 0


@settings(max_examples=40, deadline=None)
@given(
    pages=st.lists(st.integers(0, 30), min_size=1, max_size=300),
    capacity=st.integers(1, 10),
)
def test_matches_reference_lru(pages, capacity):
    """Property: residency always equals the last `capacity` distinct
    pages in recency order."""
    pc = LRUPageCache(capacity)
    recency: list[int] = []
    for p in pages:
        pc.access(p)
        if p in recency:
            recency.remove(p)
        recency.append(p)
        expected = recency[-capacity:]
        for q in expected:
            assert pc.resident(q)
        assert len(pc) == len(expected)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("access"), st.integers(0, 12), st.booleans()),
            st.tuples(st.just("extra"), st.integers(1, 5), st.booleans()),
            st.tuples(st.just("clear"), st.just(0), st.just(False)),
        ),
        min_size=1,
        max_size=300,
    ),
    capacity=st.integers(1, 6),
)
# a touch_extra on an older page must make it the most recent: the
# next touch of the previous most-recent page has to move it again
@example(ops=[("access", 0, False), ("access", 1, False), ("extra", 1, False),
              ("access", 1, False), ("access", 2, False)], capacity=2)
def test_matches_reference_lru_with_writes(ops, capacity):
    """Property: every ``access`` outcome and all four stats agree with
    a list-based LRU that tracks dirty flags — under writes, repeated
    touches of the most recent page, ``touch_extra`` and ``clear``."""
    pc = LRUPageCache(capacity)
    frames: list[list] = []  # [page, dirty], oldest first
    hits = faults = evictions = dirty_writebacks = 0
    for op, arg, is_write in ops:
        if op == "clear":
            pc.clear()
            frames.clear()
            continue
        if op == "extra":
            if not frames:
                continue
            # touch_extra needs a resident page: usually the one just
            # accessed, here any of them, picked by the drawn count
            entry = frames[-1 - arg % len(frames)]
            pc.touch_extra(entry[0], arg, is_write)
            frames.remove(entry)
            frames.append(entry)
            entry[1] = entry[1] or is_write
            hits += arg
            continue
        page = arg
        got = pc.access(page, is_write)
        entry = next((f for f in frames if f[0] == page), None)
        if entry is not None:
            frames.remove(entry)
            frames.append(entry)
            entry[1] = entry[1] or is_write
            hits += 1
            assert got is None
        else:
            faults += 1
            evicted, evicted_dirty = None, False
            if len(frames) >= capacity:
                evicted, evicted_dirty = frames.pop(0)
                evictions += 1
                dirty_writebacks += evicted_dirty
            frames.append([page, is_write])
            assert got == PageFault(page, evicted, evicted_dirty)
        assert (pc.stats.hits, pc.stats.faults, pc.stats.evictions,
                pc.stats.dirty_writebacks) == (hits, faults, evictions,
                                               dirty_writebacks)
        assert len(pc) == len(frames)
    for page, _ in frames:
        assert pc.resident(page)


def test_hit_probe_on_resident_page_only():
    pc = LRUPageCache(2)
    assert not pc.hit(1)
    assert len(pc) == 0 and pc.stats.hits == pc.stats.faults == 0
    pc.access(1)
    pc.access(2)
    assert pc.hit(1, is_write=True)  # 1 becomes MRU and dirty
    assert pc.stats.hits == 1
    fault = pc.access(3)
    assert fault.evicted == 2 and not fault.evicted_dirty
    fault = pc.access(4)
    assert fault.evicted == 1 and fault.evicted_dirty


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("hit"), st.integers(0, 12), st.booleans()),
            st.tuples(st.just("access"), st.integers(0, 12), st.booleans()),
            st.tuples(st.just("extra"), st.integers(1, 5), st.booleans()),
            st.tuples(st.just("clear"), st.just(0), st.just(False)),
        ),
        min_size=1,
        max_size=300,
    ),
    capacity=st.integers(1, 6),
)
def test_hit_probe_matches_reference_lru(ops, capacity):
    """Property: ``hit`` returns True exactly when ``access`` would hit
    the list-based LRU, and then moves the page, its dirty flag and
    ``stats.hits`` as that hit would; a False probe leaves the pool's
    order, dirty flags and all four stats as they were."""
    pc = LRUPageCache(capacity)
    frames: list[list] = []  # [page, dirty], oldest first
    hits = faults = evictions = dirty_writebacks = 0
    for op, arg, is_write in ops:
        if op == "clear":
            pc.clear()
            frames.clear()
        elif op == "extra":
            if not frames:
                continue
            entry = frames[-1 - arg % len(frames)]
            pc.touch_extra(entry[0], arg, is_write)
            frames.remove(entry)
            frames.append(entry)
            entry[1] = entry[1] or is_write
            hits += arg
        else:
            page = arg
            entry = next((f for f in frames if f[0] == page), None)
            if op == "hit":
                assert pc.hit(page, is_write) == (entry is not None)
            else:
                assert (pc.access(page, is_write) is None) == (entry is not None)
            if entry is not None:
                frames.remove(entry)
                frames.append(entry)
                entry[1] = entry[1] or is_write
                hits += 1
            elif op == "access":
                faults += 1
                if len(frames) >= capacity:
                    _, evicted_dirty = frames.pop(0)
                    evictions += 1
                    dirty_writebacks += evicted_dirty
                frames.append([page, is_write])
        assert (pc.stats.hits, pc.stats.faults, pc.stats.evictions,
                pc.stats.dirty_writebacks) == (hits, faults, evictions,
                                               dirty_writebacks)
        # residency, LRU order and dirty flags in one comparison
        assert list(pc._frames.items()) == [tuple(f) for f in frames]
