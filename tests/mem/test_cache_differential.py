"""Differential property tests: production Cache vs ReferenceCache.

The production engine must be access-for-access identical to the
per-set ``OrderedDict`` reference model — same hits, evictions,
write-backs, residency, LRU order, dirtiness and flush output — on any
trace of scalar accesses, hit probes, spans, invalidations and flushes.
A span must return what the reference's per-line walk over the same
lines observes, field for field.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import CacheConfig
from repro.errors import CoherenceError
from repro.mem.cache import Cache, CacheStats, ReferenceCache


def _tiny(ways: int = 2, sets: int = 8, write_back: bool = True) -> CacheConfig:
    return CacheConfig(
        size_bytes=64 * ways * sets,
        associativity=ways,
        line_bytes=64,
        write_back=write_back,
    )


def _assert_same_state(cache: Cache, ref: ReferenceCache, lines) -> None:
    assert cache.stats == ref.stats
    assert cache.resident_lines == ref.resident_lines
    for line in lines:
        assert cache.contains(line) == ref.contains(line), line
        if cache.contains(line):
            assert cache.is_dirty(line) == ref.is_dirty(line), line


def _assert_same_sets(cache: Cache, ref: ReferenceCache) -> None:
    """Every set holds the same lines in the same LRU order, with the
    same dirty flags."""
    for si, ref_set in enumerate(ref._sets):
        order = list(cache._sets[si])
        assert order == list(ref_set), si
        assert [cache.is_dirty(line) for line in order] == [
            entry.dirty for entry in ref_set.values()
        ], si


def _fields(res) -> tuple:
    """A span's ``BlockResult`` as plain values, field by field."""
    return (res.hits, res.misses, res.writebacks, list(res.miss_lines),
            list(res.hit_mask), list(res.evicted_lines), list(res.wb_lines),
            list(res.wb_miss_idx))


def _reference_span(ref: ReferenceCache, first: int, count: int,
                    is_write: bool) -> tuple:
    """What a span must return: the reference's per-line walk, gathered
    into ``_fields`` order."""
    miss, mask, evicted, wb_lines, wb_idx = [], [], [], [], []
    for line in range(first, first + count):
        r = ref.access(line, is_write)
        mask.append(r.hit)
        if r.hit:
            continue
        if r.evicted is not None:
            evicted.append(r.evicted)
            if r.writeback:
                wb_lines.append(r.evicted)
                wb_idx.append(len(miss))
        miss.append(line)
    return (count - len(miss), len(miss), len(wb_lines), miss, mask,
            evicted, wb_lines, wb_idx)


def _run_trace(ops, write_back: bool, ways: int = 2, sets: int = 8):
    """Drive *ops* through both engines, checking every step; return
    the two caches and the span results in order.

    Each op is ``("access", line, w)``, ``("hit", line, w)``,
    ``("span", first, count, w)``, ``("invalidate", line)`` or
    ``("flush",)``.
    """
    cfg = _tiny(ways=ways, sets=sets, write_back=write_back)
    cache, ref = Cache(cfg), ReferenceCache(cfg)
    spans = []
    for op in ops:
        kind = op[0]
        if kind == "access":
            _, line, w = op
            a, b = cache.access(line, w), ref.access(line, w)
            assert (a.hit, a.evicted, a.writeback) == (b.hit, b.evicted,
                                                        b.writeback)
        elif kind == "hit":
            _, line, w = op
            resident = ref.contains(line)
            assert cache.hit(line, w) == resident
            if resident:
                assert ref.access(line, w).hit
        elif kind == "span":
            _, first, count, w = op
            res = cache.access_span(first, count, w)
            assert _fields(res) == _reference_span(ref, first, count, w)
            spans.append(res)
        elif kind == "invalidate":
            _, line = op
            if ref.contains(line):
                assert cache.invalidate(line) == ref.invalidate(line)
            else:
                with pytest.raises(CoherenceError):
                    cache.invalidate(line)
        else:
            assert cache.flush() == ref.flush()
        assert cache.stats == ref.stats
        _assert_same_sets(cache, ref)
    assert cache.flush() == ref.flush()
    assert cache.stats == ref.stats
    return cache, ref, spans


#: geometry of the fixed span examples: 8 sets of 2 ways
SETS, WAYS = 8, 2

#: written lines filling every set, then a write span over the next
#: set count of lines: every install evicts a dirty victim
EVERY_VICTIM_DIRTY = [("span", 0, WAYS * SETS, True),
                      ("span", WAYS * SETS, SETS, True)]

#: a write span into untouched sets: installs without victims
COLD_SETS = [("span", 3, 5, True)]

#: the even sets filled with written lines, the odd sets cold, then
#: spans across both that revisit them
FULL_AND_COLD_SETS = [
    *(("access", si + SETS * way, True)
      for si in range(0, SETS, 2) for way in range(WAYS)),
    ("span", 2 * SETS, SETS, False),
    ("span", 5 * SETS + 1, 2 * SETS + 3, True),
]

_LINE = st.integers(0, 6 * SETS)
_W = st.booleans()
_OP = st.one_of(
    st.tuples(st.just("access"), _LINE, _W),
    st.tuples(st.just("hit"), _LINE, _W),
    # any start and any length, including lengths above the set count
    st.tuples(st.just("span"), _LINE, st.integers(0, 4 * SETS), _W),
    st.tuples(st.just("invalidate"), _LINE),
    st.tuples(st.just("flush")),
)


class TestSpanDifferential:
    @pytest.mark.parametrize("write_back", [True, False],
                             ids=["write_back", "write_through"])
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(_OP, max_size=40))
    @example(ops=EVERY_VICTIM_DIRTY)
    @example(ops=COLD_SETS)
    @example(ops=FULL_AND_COLD_SETS)
    def test_trace_matches_reference(self, write_back, ops):
        _run_trace(ops, write_back, ways=WAYS, sets=SETS)


class TestScalarEquivalence:
    @pytest.mark.parametrize("write_back", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_scalar_trace(self, seed, write_back):
        cfg = _tiny(write_back=write_back)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        rng = np.random.default_rng(seed)
        lines = rng.integers(0, 64, size=2000)
        writes = rng.random(size=2000) < 0.3
        for line, w in zip(lines.tolist(), writes.tolist()):
            a = cache.access(line, w)
            b = ref.access(line, w)
            assert (a.hit, a.evicted, a.writeback) == (b.hit, b.evicted, b.writeback)
        _assert_same_state(cache, ref, range(64))
        assert cache.flush() == ref.flush()
        assert cache.stats == ref.stats


class TestHitProbe:
    """``Cache.hit`` interleaved into randomized traces: True exactly
    when the reference access would hit (and then the same update as
    that hit); False with residency, LRU order, dirtiness and stats
    untouched."""

    @staticmethod
    def _lru_order(cache, si):
        return list(cache._sets[si])

    @pytest.mark.parametrize("write_back", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_trace_with_probes(self, seed, write_back):
        cfg = _tiny(ways=4, sets=16, write_back=write_back)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        rng = np.random.default_rng(300 + seed)
        probes = misses = 0
        for _ in range(600):
            kind = rng.integers(0, 4)
            is_write = bool(rng.random() < 0.4)
            if kind <= 1:  # hit probe, half of all operations
                line = int(rng.integers(0, 120))
                si = line % 16
                resident = ref.contains(line)
                before = (dataclasses.replace(cache.stats),
                          self._lru_order(cache, si), cache.is_dirty(line))
                assert cache.hit(line, is_write) == resident
                probes += 1
                if resident:
                    assert ref.access(line, is_write).hit
                else:
                    misses += 1
                    after = (cache.stats, self._lru_order(cache, si),
                             cache.is_dirty(line))
                    assert after == before
                assert self._lru_order(cache, si) == list(ref._sets[si])
            elif kind == 2:  # scalar access
                line = int(rng.integers(0, 120))
                a, b = cache.access(line, is_write), ref.access(line, is_write)
                assert (a.hit, a.evicted, a.writeback) == (b.hit, b.evicted,
                                                            b.writeback)
            else:  # span
                first = int(rng.integers(0, 120))
                count = int(rng.integers(1, 40))
                res = cache.access_span(first, count, is_write)
                assert _fields(res) == _reference_span(ref, first, count,
                                                       is_write)
            _assert_same_state(cache, ref, range(160))
        assert 0 < misses < probes  # both outcomes exercised
        assert cache.flush() == ref.flush()
        assert cache.stats == ref.stats

    def test_probe_of_cold_set_opens_nothing(self):
        cache = Cache(_tiny())
        assert not cache.hit(5, True)
        assert cache.stats == CacheStats()
        assert cache.resident_lines == 0 and not cache.is_dirty(5)
        assert not cache.access(5, False).hit
        assert cache.hit(5, True) and cache.is_dirty(5)
        assert cache.stats.hits == 1 and cache.stats.misses == 1


class TestBatchEquivalence:
    """Spans vs the reference's per-line walk."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_mixed_trace(self, seed):
        """Interleave scalar accesses with spans short and long; every
        span field and every set must match."""
        rng = np.random.default_rng(100 + seed)
        ops = []
        for _ in range(300):
            is_write = bool(rng.random() < 0.4)
            if rng.integers(0, 2) == 0:
                ops.append(("access", int(rng.integers(0, 200)), is_write))
            else:  # consecutive span (may exceed the set count)
                ops.append(("span", int(rng.integers(0, 200)),
                            int(rng.integers(1, 40)), is_write))
        _run_trace(ops, write_back=True, ways=4, sets=16)

    def test_lru_order_preserved_across_batches(self):
        """After a span, the LRU victim must be the same line the
        reference model would evict — recency updates are exact."""
        cfg = _tiny(ways=2, sets=4)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        # fill set 0 via lines 0 and 4; touch 0 again via a span so 4
        # becomes LRU; line 8 must then evict 4, not 0
        for c in (cache, ref):
            c.access(0, False)
            c.access(4, False)
        cache.access_span(0, 1, False)
        ref.access(0, False)
        a, b = cache.access(8, False), ref.access(8, False)
        assert a.evicted == b.evicted == 4

    def test_batch_after_invalidate_reuses_freed_way(self):
        cfg = _tiny(ways=2, sets=4)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        for c in (cache, ref):
            c.access(0, True)
            c.access(4, True)
        cache.access_span(0, 1, True)
        ref.access(0, True)
        assert cache.invalidate(4) == ref.invalidate(4)
        res = cache.access_span(8, 1, False)
        r = ref.access(8, False)
        assert res.misses == 1 and not r.hit
        assert res.writebacks == int(r.writeback) == 0
        _assert_same_state(cache, ref, [0, 4, 8])

    def test_flush_resets_batch_state(self):
        cfg = _tiny(ways=2, sets=4)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        for c in (cache, ref):
            for line in range(8):
                c.access(line, True)
        cache.access_span(0, 8, False)
        for line in range(8):
            ref.access(line, False)
        assert cache.flush() == ref.flush()
        # everything misses after the flush
        res = cache.access_span(0, 8, False)
        assert res.misses == 8 and res.writebacks == 0

    def test_write_through_never_writes_back(self):
        cfg = _tiny(ways=1, sets=2, write_back=False)
        cache = Cache(cfg)
        cache.access_span(0, 2, True)
        res = cache.access_span(2, 2, True)  # evicts lines 0,1
        assert res.writebacks == 0
        assert cache.stats.writebacks == 0

    def test_empty_and_singleton_blocks(self):
        cache = Cache(_tiny())
        res = cache.access_span(7, 0, False)
        assert res.accesses == 0 and res.hit_mask == []
        res = cache.access_span(7, 1, True)
        assert res.misses == 1 and res.miss_lines == [7]
        res = cache.access_span(7, 1, False)
        assert res.hits == 1 and res.hit_mask == [True]


class TestEvictionInfo:
    """``BlockResult``'s ordered eviction fields vs the reference walk.

    The packet tier replays ``evicted_lines`` / ``wb_lines`` /
    ``wb_miss_idx`` to keep coherence directories and DRAM transaction
    order exact, so they must reproduce the per-access eviction record
    of the reference model, in miss order.
    """

    @pytest.mark.parametrize("seed", range(4))
    def test_block_eviction_fields_match_scalar(self, seed):
        rng = np.random.default_rng(40 + seed)
        ops = []
        for _ in range(80):
            is_write = bool(rng.random() < 0.5)
            if rng.integers(0, 2) == 0:  # span, may exceed the set count
                ops.append(("span", int(rng.integers(0, 40)),
                            int(rng.integers(1, 24)), is_write))
            else:  # single-line span
                ops.append(("span", int(rng.integers(0, 60)), 1, is_write))
        _run_trace(ops, write_back=True, ways=2, sets=8)

    def test_wb_miss_idx_points_at_displacing_miss(self):
        """Dirty victims pair with the exact install that displaced
        them: replaying write-back k immediately before fetch
        ``wb_miss_idx[k]`` reproduces the scalar transaction order."""
        cfg = _tiny(ways=1, sets=4)
        cache = Cache(cfg)
        cache.access_span(0, 4, is_write=True)   # dirty lines 0..3
        r = cache.access_span(4, 8, is_write=False)
        # every install evicts one dirty line from the same set
        assert r.misses == 8
        assert r.evicted_lines == [0, 1, 2, 3, 4, 5, 6, 7]
        assert r.wb_lines == [0, 1, 2, 3]  # 4..7 were clean
        assert r.wb_miss_idx == [0, 1, 2, 3]


class TestUniqueSetInstalls:
    """The span differential's fixed examples, with what each must
    show: installs into full sets beside cold ones, a write span whose
    every victim is dirty, and installs into cold sets."""

    @pytest.mark.parametrize("write_back", [True, False],
                             ids=["write_back", "write_through"])
    @pytest.mark.parametrize("seed", range(4))
    def test_installs_into_full_and_cold_sets(self, seed, write_back):
        rng = np.random.default_rng(70 + seed)
        ops = list(FULL_AND_COLD_SETS)
        for _ in range(60):
            ops.append(("span", int(rng.integers(0, 8 * SETS)),
                        int(rng.integers(2, 3 * SETS)),
                        bool(rng.random() < 0.5)))
        _, _, spans = _run_trace(ops, write_back, ways=WAYS, sets=SETS)
        # the first span installs into the cold odd sets and evicts the
        # written LRU line of each full even set
        assert spans[0].evicted_lines == list(range(0, SETS, 2))
        assert any(res.wb_lines for res in spans) == write_back

    @pytest.mark.parametrize("write_back", [True, False],
                             ids=["write_back", "write_through"])
    def test_write_batch_evicting_every_dirty_victim(self, write_back):
        """Each install evicts one victim; the victims owe a write-back,
        and the installed lines are dirty, only on a write-back cache."""
        _, _, spans = _run_trace(EVERY_VICTIM_DIRTY, write_back,
                                     ways=WAYS, sets=SETS)
        res = spans[1]
        assert res.evicted_lines == list(range(SETS))
        assert res.wb_lines == (list(range(SETS)) if write_back else [])
        assert res.wb_miss_idx == (list(range(SETS)) if write_back else [])

    def test_cold_batch_installs_without_victims(self):
        cache, _, spans = _run_trace(COLD_SETS, write_back=True,
                                     ways=WAYS, sets=SETS)
        assert spans[0].evicted_lines == [] and spans[0].misses == 5
        # the closing flush writes back every installed line: all dirty
        assert cache.stats.writebacks == 5
