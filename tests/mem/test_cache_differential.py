"""Differential property tests: production Cache vs ReferenceCache.

The array-backed batch engine must be access-for-access identical to
the per-set ``OrderedDict`` reference model — same hits, evictions,
write-backs, residency, dirtiness and flush output — on any trace,
whatever mix of scalar and batched entry points produced it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import CacheConfig
from repro.mem import cache as cache_mod
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
    that hit); False with residency, LRU order, dirtiness, stats and
    the tag mirror untouched."""

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
                          self._lru_order(cache, si), cache.is_dirty(line),
                          None if cache._tags is None else cache._tags.copy())
                assert cache.hit(line, is_write) == resident
                probes += 1
                if resident:
                    assert ref.access(line, is_write).hit
                else:
                    misses += 1
                    after = (cache.stats, self._lru_order(cache, si),
                             cache.is_dirty(line), cache._tags)
                    assert after[:3] == before[:3]
                    assert (before[3] is None) == (after[3] is None)
                    if before[3] is not None:
                        assert (after[3] == before[3]).all()
                assert self._lru_order(cache, si) == list(ref._sets[si])
            elif kind == 2:  # scalar access
                line = int(rng.integers(0, 120))
                a, b = cache.access(line, is_write), ref.access(line, is_write)
                assert (a.hit, a.evicted, a.writeback) == (b.hit, b.evicted,
                                                            b.writeback)
            else:  # span: materializes the tag mirror the probe must keep
                first = int(rng.integers(0, 120))
                count = int(rng.integers(1, 40))
                res = cache.access_span(first, count, is_write)
                hit_mask = [ref.access(line, is_write).hit
                            for line in range(first, first + count)]
                assert res.hit_mask.tolist() == hit_mask
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
    """Batched entry points vs a scalar replay on the reference model."""

    def _replay_block(self, ref: ReferenceCache, lines, is_write):
        hits = misses = writebacks = 0
        hit_mask = []
        for line in lines:
            r = ref.access(int(line), is_write)
            hit_mask.append(r.hit)
            hits += r.hit
            misses += not r.hit
            writebacks += r.writeback
        return hits, misses, writebacks, hit_mask

    @pytest.mark.parametrize("seed", range(6))
    def test_random_mixed_trace(self, seed):
        """Interleave scalar accesses, spans, scattered blocks and
        blocks with intra-set conflicts; every observable must match."""
        cfg = _tiny(ways=4, sets=16)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        rng = np.random.default_rng(100 + seed)
        for _ in range(300):
            kind = rng.integers(0, 4)
            is_write = bool(rng.random() < 0.4)
            if kind == 0:  # scalar
                line = int(rng.integers(0, 200))
                a, b = cache.access(line, is_write), ref.access(line, is_write)
                assert (a.hit, a.writeback) == (b.hit, b.writeback)
                continue
            if kind == 1:  # consecutive span (may exceed the set count)
                first = int(rng.integers(0, 200))
                count = int(rng.integers(1, 40))
                res = cache.access_span(first, count, is_write)
                batch = np.arange(first, first + count)
            elif kind == 2:  # scattered block, distinct sets likely
                batch = rng.choice(200, size=int(rng.integers(1, 12)),
                                   replace=False)
                res = cache.access_block(batch, is_write)
            else:  # conflicting block: duplicates force scalar replay
                batch = rng.integers(0, 40, size=int(rng.integers(2, 20)))
                res = cache.access_block(batch, is_write)
            hits, misses, wbs, mask = self._replay_block(ref, batch, is_write)
            assert res.hits == hits
            assert res.misses == misses
            assert res.writebacks == wbs
            assert res.hit_mask.tolist() == mask
            assert res.miss_lines.tolist() == [
                int(l) for l, h in zip(batch, mask) if not h
            ]
        _assert_same_state(cache, ref, range(200))
        assert cache.flush() == ref.flush()
        assert cache.stats == ref.stats

    def test_lru_order_preserved_across_batches(self):
        """After a batch, the LRU victim must be the same line the
        reference model would evict — recency updates are exact."""
        cfg = _tiny(ways=2, sets=4)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        # fill set 0 via lines 0 and 4; touch 0 again via a batch so 4
        # becomes LRU; line 8 must then evict 4, not 0
        for c in (cache, ref):
            c.access(0, False)
            c.access(4, False)
        cache.access_block(np.array([0]), False)
        ref.access(0, False)
        a, b = cache.access(8, False), ref.access(8, False)
        assert a.evicted == b.evicted == 4

    def test_batch_after_invalidate_reuses_freed_way(self):
        cfg = _tiny(ways=2, sets=4)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        for c in (cache, ref):
            c.access(0, True)
            c.access(4, True)
        # materialize the tag mirror, then invalidate underneath it
        cache.access_span(0, 1, True)
        ref.access(0, True)
        assert cache.invalidate(4) == ref.invalidate(4)
        res = cache.access_span(8, 1, False)
        r = ref.access(8, False)
        assert res.misses == 1 and not r.hit
        assert res.writebacks == int(r.writeback)
        _assert_same_state(cache, ref, [0, 4, 8])

    def test_flush_resets_batch_state(self):
        cfg = _tiny(ways=2, sets=4)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        for c in (cache, ref):
            for line in range(8):
                c.access(line, True)
        cache.access_span(0, 8, False)  # materialize tags
        for line in range(8):
            ref.access(line, False)
        assert cache.flush() == ref.flush()
        # the tag mirror must reflect the flush: everything misses now
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
        res = cache.access_block(np.empty(0, dtype=np.int64), False)
        assert res.accesses == 0 and res.hit_mask.size == 0
        res = cache.access_block([7], True)
        assert res.misses == 1 and res.miss_lines.tolist() == [7]
        res = cache.access_block([7], False)
        assert res.hits == 1 and res.hit_mask.tolist() == [True]


class TestEvictionInfo:
    """``BlockResult``'s ordered eviction fields vs a scalar replay.

    The batched miss path replays ``evicted_lines`` / ``wb_lines`` /
    ``wb_miss_idx`` to keep coherence directories and DRAM transaction
    order exact, so they must reproduce the per-access eviction record
    of the reference model, in miss order.
    """

    @staticmethod
    def _replay(ref: ReferenceCache, lines, is_write):
        evicted, wb_lines, wb_idx = [], [], []
        nmiss = 0
        for line in lines:
            r = ref.access(int(line), is_write)
            if r.hit:
                continue
            if r.evicted is not None:
                evicted.append(r.evicted)
                if r.writeback:
                    wb_lines.append(r.evicted)
                    wb_idx.append(nmiss)
            nmiss += 1
        return evicted, wb_lines, wb_idx

    @pytest.mark.parametrize("seed", range(4))
    def test_block_eviction_fields_match_scalar(self, seed):
        cfg = _tiny(ways=2, sets=8)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        rng = np.random.default_rng(40 + seed)
        for _ in range(80):
            kind = rng.integers(0, 3)
            is_write = bool(rng.random() < 0.5)
            if kind == 0:  # consecutive span (may exceed the set count)
                first = int(rng.integers(0, 40))
                count = int(rng.integers(1, 24))
                lines = list(range(first, first + count))
                result = cache.access_span(first, count, is_write)
            elif kind == 1:  # scattered block, distinct sets likely
                lines = rng.integers(0, 60, size=rng.integers(1, 8)).tolist()
                result = cache.access_block(lines, is_write)
            else:  # single-line block
                lines = [int(rng.integers(0, 60))]
                result = cache.access_block(lines, is_write)
            evicted, wb_lines, wb_idx = self._replay(ref, lines, is_write)
            assert result.evicted_lines.tolist() == evicted
            assert result.wb_lines.tolist() == wb_lines
            assert result.wb_miss_idx.tolist() == wb_idx
            assert result.writebacks == len(wb_lines)
        assert cache.stats == ref.stats

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
        assert r.evicted_lines.tolist() == [0, 1, 2, 3, 4, 5, 6, 7]
        assert r.wb_lines.tolist() == [0, 1, 2, 3]  # 4..7 were clean
        assert r.wb_miss_idx.tolist() == [0, 1, 2, 3]


class TestUniqueSetInstalls:
    """The vectorized install pass (``access_block`` / ``access_span``
    batches whose lines map to distinct sets) against a scalar replay
    on the reference model: write installs, dirty victims of full sets,
    and first installs into cold sets. Spans of every length take the
    vectorized pass here, short ones included."""

    SETS = 16

    @pytest.fixture(autouse=True)
    def _no_scalar_replay(self, monkeypatch):
        monkeypatch.setattr(cache_mod, "_REPLAY_MAX_LINES", 0)

    @staticmethod
    def _assert_tags_mirror(cache: Cache, ref: ReferenceCache) -> None:
        """The NumPy tag array holds exactly each set's resident lines."""
        for si, ref_set in enumerate(ref._sets):
            row = cache._tags[si].tolist()
            assert sorted(l for l in row if l >= 0) == sorted(ref_set), si

    def _check(self, cache, ref, lines, is_write, result):
        evicted, wb_lines, wb_idx = TestEvictionInfo._replay(ref, lines, is_write)
        assert result.evicted_lines.tolist() == evicted
        assert result.wb_lines.tolist() == wb_lines
        assert result.wb_miss_idx.tolist() == wb_idx
        assert result.writebacks == len(wb_lines)
        assert cache.stats == ref.stats
        self._assert_tags_mirror(cache, ref)
        return evicted, wb_lines

    @pytest.mark.parametrize("write_back", [True, False],
                             ids=["write_back", "write_through"])
    @pytest.mark.parametrize("seed", range(4))
    def test_installs_into_full_and_cold_sets(self, seed, write_back):
        cfg = _tiny(ways=4, sets=self.SETS, write_back=write_back)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        rng = np.random.default_rng(70 + seed)
        # fill the even sets to capacity with written (dirty) lines and
        # leave the odd sets cold
        for set_idx in range(0, self.SETS, 2):
            for way in range(4):
                line = set_idx + self.SETS * way
                cache.access(line, True)
                ref.access(line, True)
        saw_dirty_victim = saw_cold_install = False
        for _ in range(60):
            is_write = bool(rng.random() < 0.5)
            sets = rng.choice(self.SETS, size=int(rng.integers(2, self.SETS + 1)),
                              replace=False)
            cold = [s for s in sets.tolist() if not ref._sets[s]]
            # one line per chosen set, resident or not
            lines = (sets + self.SETS * rng.integers(0, 8, size=sets.size)).tolist()
            if rng.random() < 0.5:
                result = cache.access_block(lines, is_write)
            else:
                first = int(rng.integers(0, 8 * self.SETS))
                count = int(rng.integers(2, self.SETS + 1))
                lines = list(range(first, first + count))
                cold = [l % self.SETS for l in lines if not ref._sets[l % self.SETS]]
                result = cache.access_span(first, count, is_write)
            _, wb_lines = self._check(cache, ref, lines, is_write, result)
            saw_dirty_victim |= bool(wb_lines)
            saw_cold_install |= bool(cold)
        assert saw_cold_install
        assert saw_dirty_victim == write_back
        _assert_same_state(cache, ref, range(8 * self.SETS))
        assert cache.flush() == ref.flush()

    @pytest.mark.parametrize("write_back", [True, False],
                             ids=["write_back", "write_through"])
    def test_write_batch_evicting_every_dirty_victim(self, write_back):
        """A write batch over full, all-dirty sets evicts one dirty
        victim per install; the installed lines become dirty only on a
        write-back cache."""
        cfg = _tiny(ways=2, sets=self.SETS, write_back=write_back)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        for line in range(2 * self.SETS):
            cache.access(line, True)
            ref.access(line, True)
        lines = list(range(2 * self.SETS, 3 * self.SETS))
        result = cache.access_block(lines[::-1], True)
        evicted, wb_lines = self._check(cache, ref, lines[::-1], True, result)
        assert sorted(evicted) == list(range(self.SETS))
        assert len(wb_lines) == (self.SETS if write_back else 0)
        _assert_same_state(cache, ref, range(3 * self.SETS))

    def test_cold_batch_installs_without_victims(self):
        cfg = _tiny(ways=2, sets=self.SETS)
        cache, ref = Cache(cfg), ReferenceCache(cfg)
        lines = [3, 17, 40, 9]
        result = cache.access_block(lines, True)
        evicted, _ = self._check(cache, ref, lines, True, result)
        assert evicted == [] and result.misses == 4
        assert all(cache.is_dirty(l) for l in lines)
        _assert_same_state(cache, ref, range(64))
