"""Set-associative write-back cache model.

Tag-array only: the data itself lives in the backing store, so the
cache tracks *which lines are resident and dirty* and produces hit/miss
timing plus write-back traffic. This is the standard decomposition for
trace-driven simulators — functional state in one place, locality state
in another — and keeps the model fast enough for 10^8-access workloads.

Two engines live here:

* :class:`Cache` — the production engine. Exact LRU is kept in per-set
  recency queues (plain dicts mapping line -> way slot, whose insertion
  order is recency: a touch deletes and re-inserts its line, the victim
  is the first key), created on a set's first install — untouched sets
  share one read-only empty placeholder, and a cache none of whose sets
  has been touched shares one read-only per-set index with every cache
  of its set count, so a cache costs only the sets it touches — and a
  NumPy tag array mirrors the way assignment so that
  :meth:`Cache.access_block` / :meth:`Cache.access_span` can classify
  a whole span of lines as hits/misses/write-backs in one vectorized
  pass. The tag array is materialized lazily on the first batched
  access, so caches that only ever see scalar traffic (the packet
  tier) pay nothing for it.
* :class:`ReferenceCache` — the original per-set ``OrderedDict`` model,
  kept verbatim as the executable specification. The differential
  property tests in ``tests/mem/test_cache.py`` drive identical traces
  through both engines and require bit-identical stats, residency and
  dirtiness.

Lines are identified by *line address* (byte address // line size);
callers that have full addresses use :meth:`Cache.line_of`.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Optional, cast

import numpy as np

from repro.config import CacheConfig
from repro.errors import CoherenceError

__all__ = [
    "Cache",
    "CacheStats",
    "AccessResult",
    "BlockResult",
    "ReferenceCache",
]


@dataclass
class CacheStats:
    """Aggregate counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    invalidations_received: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class AccessResult:
    """Outcome of one cache access.

    A plain ``__slots__`` class rather than a dataclass: one of these
    is produced per scalar miss on the hot path, and hits all share the
    module-level ``_HIT`` singleton.
    """

    __slots__ = ("hit", "evicted", "writeback")

    def __init__(
        self,
        hit: bool,
        evicted: Optional[int] = None,
        writeback: bool = False,
    ) -> None:
        self.hit = hit
        self.evicted = evicted
        self.writeback = writeback

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"AccessResult(hit={self.hit}, evicted={self.evicted}, "
            f"writeback={self.writeback})"
        )


_HIT = AccessResult(True)

#: spans of up to this many lines take scalar :meth:`Cache.access`
#: calls: below it the fixed cost of the vectorized pass exceeds theirs
_REPLAY_MAX_LINES = 16

#: the recency queue of every set that has never had a line installed:
#: empty and read-only, so lookups (``get``, ``in``, ``len``) work on it
#: and any write raises. Typed as the queue it stands in for; ``is``
#: tells the two apart.
_COLD = cast("dict[int, int]", MappingProxyType({}))


@functools.cache
def _cold_index(
    nsets: int,
) -> tuple[tuple[dict[int, int], ...], tuple[None, ...]]:
    """The ``(_sets, _free)`` index of a cache with no open set, shared
    by every such cache of *nsets* sets: tuples, so a write through
    them raises. A cache swaps in private lists before it opens a set."""
    return (_COLD,) * nsets, (None,) * nsets


def _empty_i64() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class BlockResult:
    """Outcome of one batched access over a span of lines."""

    hits: int
    misses: int
    #: dirty evictions triggered while installing the span's misses
    writebacks: int
    #: line addresses that missed, in input order (prefetcher feed)
    miss_lines: np.ndarray
    #: per-input-line hit flags, aligned with the request's lines
    hit_mask: np.ndarray
    #: every victim line evicted by a miss install, in miss order
    #: (coherence directories drop their sharer entries from this)
    evicted_lines: np.ndarray = field(default_factory=_empty_i64)
    #: the dirty subset of ``evicted_lines`` — lines that owe a
    #: write-back, still in miss order
    wb_lines: np.ndarray = field(default_factory=_empty_i64)
    #: for each entry of ``wb_lines``, the index into ``miss_lines`` of
    #: the install that displaced it; a scalar replay performs the
    #: write-back immediately before fetching that miss
    wb_miss_idx: np.ndarray = field(default_factory=_empty_i64)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


def _empty_block() -> BlockResult:
    return BlockResult(
        hits=0,
        misses=0,
        writebacks=0,
        miss_lines=np.empty(0, dtype=np.int64),
        hit_mask=np.empty(0, dtype=bool),
    )


class Cache:
    """One cache (modeled at the L2 / last-level-per-core granularity)."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.stats = CacheStats()
        self._nsets = config.num_sets
        self._ways = config.associativity
        self._wb = config.write_back
        #: per-set recency queue: line -> way slot, LRU-first in
        #: insertion order; ``_COLD`` until the set's first install
        self._sets: list[dict[int, int]]
        #: per-set free way slots (popped LIFO on install); ``None``
        #: while the set is cold
        self._free: list[Optional[list[int]]]
        self._go_cold()
        #: dirty line addresses (resident lines only)
        self._dirty: set[int] = set()
        #: lazy NumPy mirror of the tag array, (num_sets, ways), -1 =
        #: invalid way; materialized by the first batched access
        self._tags: Optional[np.ndarray] = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"Cache(name={self.name!r}, config={self.config!r})"

    # -- geometry -------------------------------------------------------------
    def line_of(self, addr: int) -> int:
        """Line address containing byte address *addr*."""
        return addr // self.config.line_bytes

    def set_of(self, line: int) -> int:
        return line % self._nsets

    def _go_cold(self) -> None:
        """Point the per-set index at the shared all-cold one."""
        sets, free = _cold_index(self._nsets)
        self._sets = cast("list[dict[int, int]]", sets)
        self._free = cast("list[Optional[list[int]]]", free)

    def _own_index(self) -> None:
        """Swap the shared all-cold index for private lists, before the
        first set opens."""
        if type(self._sets) is tuple:
            self._sets = list(self._sets)
            self._free = list(self._free)

    def _open_set(self, si: int) -> tuple[dict[int, int], list[int]]:
        """Create cold set *si*'s recency queue and full free list, just
        before its first install (ways then fill from slot 0 up, exactly
        as in a set built eagerly)."""
        self._own_index()
        s: dict[int, int] = {}
        free = list(range(self._ways - 1, -1, -1))
        self._sets[si] = s
        self._free[si] = free
        return s, free

    # -- core operation ----------------------------------------------------
    def access(self, line: int, is_write: bool) -> AccessResult:
        """Touch *line*; returns hit/miss and any eviction.

        On a miss the line is installed (fetch is the caller's job) and
        the LRU victim of the set, if the set was full, is evicted —
        with ``writeback=True`` if it was dirty.
        """
        si = line % self._nsets
        s = self._sets[si]
        w = s.get(line)
        if w is not None:
            # re-insert: the line becomes its set's most recent
            del s[line]
            s[line] = w
            if is_write:
                self._dirty.add(line)
            self.stats.hits += 1
            return _HIT

        st = self.stats
        st.misses += 1
        evicted: Optional[int] = None
        writeback = False
        if s is _COLD:
            s, free = self._open_set(si)
        else:
            free = self._free[si]
        if free:
            w = free.pop()
        else:
            # the first key is the LRU line; taken without a builtin call
            for evicted in s:
                break
            w = s[evicted]
            del s[evicted]
            st.evictions += 1
            if evicted in self._dirty:
                self._dirty.discard(evicted)
                if self._wb:
                    writeback = True
                    st.writebacks += 1
        s[line] = w
        if is_write and self._wb:
            self._dirty.add(line)
        if self._tags is not None:
            self._tags[si, w] = line
        return AccessResult(False, evicted, writeback)

    def hit(self, line: int, is_write: bool) -> bool:
        """Touch *line* only if it is resident.

        On a hit, updates recency, dirtiness and ``stats.hits`` exactly
        as :meth:`access` does and returns True; on a miss, changes
        nothing and returns False, leaving the install to :meth:`access`.
        :meth:`access` keeps its own copy of the hit branch rather than
        calling this: it is the packet tier's per-line hot path.
        """
        s = self._sets[line % self._nsets]
        w = s.get(line)
        if w is None:
            return False
        del s[line]
        s[line] = w
        if is_write:
            self._dirty.add(line)
        self.stats.hits += 1
        return True

    def touch_extra(self, line: int, count: int) -> None:
        """Account *count* additional read hits on a just-accessed line.

        Batched equivalent of *count* further ``hit(line, False)`` calls
        to a line that is guaranteed resident (the caller touched it
        this instant, so it is its set's most recent and those hits
        reorder nothing); the read twin of
        :meth:`repro.swap.pagecache.LRUPageCache.touch_extra`.
        """
        self.stats.hits += count

    # -- batched operation -------------------------------------------------
    def access_span(self, first_line: int, count: int, is_write: bool) -> BlockResult:
        """Touch the *count* consecutive lines starting at *first_line*.

        Semantically identical to *count* ascending :meth:`access`
        calls, but hits/misses/write-backs for the whole span are
        classified in one vectorized pass against the tag array. Spans
        of up to ``_REPLAY_MAX_LINES`` lines take the scalar calls.
        """
        if count <= 0:
            return _empty_block()
        if count <= _REPLAY_MAX_LINES:
            return self._replay(range(first_line, first_line + count), is_write)
        nsets = self._nsets
        if count <= nsets:
            lines = np.arange(first_line, first_line + count, dtype=np.int64)
            return self._block_unique_sets(lines, lines % nsets, is_write)
        # A span longer than the set count revisits sets; process it in
        # set-count chunks, each of which maps to all-distinct sets.
        parts = []
        pos, remaining = first_line, count
        while remaining:
            take = min(remaining, nsets)
            lines = np.arange(pos, pos + take, dtype=np.int64)
            parts.append(self._block_unique_sets(lines, lines % nsets, is_write))
            pos += take
            remaining -= take
        return _combine_blocks(parts)

    def access_block(
        self, lines: "np.ndarray | list[int]", is_write: bool
    ) -> BlockResult:
        """Touch every line in *lines* (array-like of line addresses).

        Equivalent to scalar :meth:`access` calls in input order. Spans
        and other batches whose lines fall into distinct sets take the
        vectorized pass; batches with intra-set conflicts (duplicate
        lines, or more lines than sets) are replayed scalar to preserve
        exact LRU order.
        """
        arr = np.ascontiguousarray(lines, dtype=np.int64)
        n = int(arr.size)
        if n == 0:
            return _empty_block()
        first = int(arr[0])
        if int(arr[-1]) - first == n - 1 and bool((arr[1:] > arr[:-1]).all()):
            # strictly increasing with matching extent ⇒ consecutive span
            return self.access_span(first, n, is_write)
        sets = arr % self._nsets
        if np.unique(sets).size == n:
            return self._block_unique_sets(arr, sets, is_write)
        # Conflicting sets: exact scalar replay in input order.
        return self._replay(arr.tolist(), is_write)

    def _replay(self, lines: "Iterable[int]", is_write: bool) -> BlockResult:
        """Scalar :meth:`access` calls over *lines* in order, gathered
        into a :class:`BlockResult`."""
        hit_l: list[bool] = []
        miss_l: list[int] = []
        evicted_l: list[int] = []
        wb_lines_l: list[int] = []
        wb_idx_l: list[int] = []
        access = self.access
        for line in lines:
            r = access(line, is_write)
            hit_l.append(r.hit)
            if r.hit:
                continue
            if r.evicted is not None:
                evicted_l.append(r.evicted)
                if r.writeback:
                    wb_lines_l.append(r.evicted)
                    wb_idx_l.append(len(miss_l))
            miss_l.append(line)
        nmiss = len(miss_l)
        return BlockResult(
            hits=len(hit_l) - nmiss,
            misses=nmiss,
            writebacks=len(wb_lines_l),
            miss_lines=np.array(miss_l, dtype=np.int64),
            hit_mask=np.array(hit_l, dtype=bool),
            evicted_lines=np.array(evicted_l, dtype=np.int64),
            wb_lines=np.array(wb_lines_l, dtype=np.int64),
            wb_miss_idx=np.array(wb_idx_l, dtype=np.int64),
        )

    def _block_unique_sets(
        self, lines: np.ndarray, sets: np.ndarray, is_write: bool
    ) -> BlockResult:
        """Vectorized pass for a batch whose lines map to distinct sets.

        With distinct sets, no line in the batch can hit, evict, or
        reorder another — the outcome is order-independent, so hit
        classification runs as one array comparison while LRU/dirty
        bookkeeping stays exact. The misses install in one pass over
        their ``(set, line)`` pairs, then the tag mirror takes one
        fancy-indexed write and the dirty set one update per side
        (victims out, written installs in).
        """
        if self._tags is None:
            self._materialize_tags()
        tags = self._tags
        hit_mask = (tags[sets] == lines[:, None]).any(axis=1)
        miss_mask = ~hit_mask
        nmiss = int(np.count_nonzero(miss_mask))
        nhits = lines.size - nmiss
        st = self.stats
        st.hits += nhits
        st.misses += nmiss

        # private lists first, so the locals below name the lists the
        # installs write
        self._own_index()
        set_list = self._sets
        dirty = self._dirty
        if nhits:
            hit_lines = lines[hit_mask].tolist()
            for si, line in zip(sets[hit_mask].tolist(), hit_lines):
                s = set_list[si]
                w = s[line]
                del s[line]
                s[line] = w
            if is_write:
                dirty.update(hit_lines)

        writebacks = 0
        evicted_l: list[int] = []
        wb_lines_l: list[int] = []
        wb_idx_l: list[int] = []
        miss_lines = lines[miss_mask]
        if nmiss:
            free_list = self._free
            open_set = self._open_set
            miss_sets = sets[miss_mask]
            miss_lines_l = miss_lines.tolist()
            # the way slot of each install, the miss index of each victim
            ways_l: list[int] = []
            evicted_k: list[int] = []
            add_way = ways_l.append
            for si, line in zip(miss_sets.tolist(), miss_lines_l):
                s = set_list[si]
                fr = free_list[si]
                if fr:
                    w = fr.pop()
                elif s is _COLD:
                    s, fr = open_set(si)
                    w = fr.pop()
                else:
                    for victim in s:
                        break
                    w = s[victim]
                    del s[victim]
                    evicted_l.append(victim)
                    evicted_k.append(len(ways_l))
                s[line] = w
                add_way(w)
            tags[miss_sets, ways_l] = miss_lines
            if evicted_l:
                st.evictions += len(evicted_l)
                dirty_victims = dirty.intersection(evicted_l)
                if dirty_victims:
                    dirty.difference_update(dirty_victims)
                    if self._wb:
                        for victim, k in zip(evicted_l, evicted_k):
                            if victim in dirty_victims:
                                wb_lines_l.append(victim)
                                wb_idx_l.append(k)
                        writebacks = len(wb_lines_l)
                        st.writebacks += writebacks
            if is_write and self._wb:
                dirty.update(miss_lines_l)

        return BlockResult(
            hits=nhits,
            misses=nmiss,
            writebacks=writebacks,
            miss_lines=miss_lines,
            hit_mask=hit_mask,
            evicted_lines=np.array(evicted_l, dtype=np.int64),
            wb_lines=np.array(wb_lines_l, dtype=np.int64),
            wb_miss_idx=np.array(wb_idx_l, dtype=np.int64),
        )

    def _materialize_tags(self) -> None:
        tags = np.full((self._nsets, self._ways), -1, dtype=np.int64)
        for si, s in enumerate(self._sets):
            for line, w in s.items():
                tags[si, w] = line
        self._tags = tags

    # -- coherence hooks ---------------------------------------------------
    def contains(self, line: int) -> bool:
        return line in self._sets[line % self._nsets]

    def is_dirty(self, line: int) -> bool:
        return line in self._dirty

    def invalidate(self, line: int) -> bool:
        """Drop *line* (coherence probe). Returns True if it was dirty.

        A dirty invalidation means the probe also triggered a data
        transfer — the expensive case the paper's architecture avoids
        across nodes.
        """
        si = line % self._nsets
        s = self._sets[si]
        w = s.get(line)
        if w is None:
            raise CoherenceError(
                f"{self.name}: invalidate of non-resident line {line:#x}"
            )
        del s[line]
        free = self._free[si]
        assert free is not None, "resident line in a cold set"
        free.append(w)
        if self._tags is not None:
            self._tags[si, w] = -1
        self.stats.invalidations_received += 1
        was_dirty = line in self._dirty
        self._dirty.discard(line)
        return was_dirty

    def flush(self) -> list[int]:
        """Write back and drop every dirty line; return their addresses.

        Models the explicit cache flush the prototype performs between
        a write phase and a parallel read-only phase (Section IV-B).
        """
        dirty_set = self._dirty
        dirty: list[int] = []
        if dirty_set:
            for s in self._sets:
                for line in s:
                    if line in dirty_set:
                        dirty.append(line)
        # every set goes back to cold: its next install starts from a
        # full free list, as a cleared eager set's would
        self._go_cold()
        dirty_set.clear()
        if self._tags is not None:
            self._tags.fill(-1)
        self.stats.flushes += 1
        self.stats.writebacks += len(dirty)
        return dirty

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)


def _combine_blocks(parts: list[BlockResult]) -> BlockResult:
    if len(parts) == 1:
        return parts[0]
    # wb_miss_idx entries index each part's own miss list; shift them by
    # the miss count of the preceding parts to index the merged list.
    wb_idx_parts = []
    miss_base = 0
    for p in parts:
        if p.wb_miss_idx.size:
            wb_idx_parts.append(p.wb_miss_idx + miss_base)
        miss_base += p.misses
    return BlockResult(
        hits=sum(p.hits for p in parts),
        misses=sum(p.misses for p in parts),
        writebacks=sum(p.writebacks for p in parts),
        miss_lines=np.concatenate([p.miss_lines for p in parts]),
        hit_mask=np.concatenate([p.hit_mask for p in parts]),
        evicted_lines=np.concatenate([p.evicted_lines for p in parts]),
        wb_lines=np.concatenate([p.wb_lines for p in parts]),
        wb_miss_idx=(
            np.concatenate(wb_idx_parts) if wb_idx_parts else _empty_i64()
        ),
    )


# ---------------------------------------------------------------------------
# Reference model
# ---------------------------------------------------------------------------


@dataclass
class _Line:
    dirty: bool = False
    # MESI state is tracked by the coherence domain; the cache only
    # needs residency + dirtiness.


@dataclass
class ReferenceCache:
    """The original per-set ``OrderedDict`` engine, kept as the
    executable specification of exact-LRU semantics.

    The production :class:`Cache` must behave identically access for
    access; ``tests/mem/test_cache.py`` enforces this with randomized
    differential traces. Not used on any hot path.
    """

    config: CacheConfig
    name: str = "cache"
    _sets: list[OrderedDict[int, _Line]] = field(init=False, repr=False)
    stats: CacheStats = field(init=False)

    def __post_init__(self) -> None:
        self._sets = [OrderedDict() for _ in range(self.config.num_sets)]
        self.stats = CacheStats()

    # -- geometry -------------------------------------------------------------
    def line_of(self, addr: int) -> int:
        return addr // self.config.line_bytes

    def set_of(self, line: int) -> int:
        return line % self.config.num_sets

    # -- core operation ----------------------------------------------------
    def access(self, line: int, is_write: bool) -> AccessResult:
        s = self._sets[self.set_of(line)]
        entry = s.get(line)
        if entry is not None:
            s.move_to_end(line)
            if is_write:
                entry.dirty = True
            self.stats.hits += 1
            return AccessResult(hit=True)

        self.stats.misses += 1
        evicted: Optional[int] = None
        writeback = False
        if len(s) >= self.config.associativity:
            victim, vline = s.popitem(last=False)
            evicted = victim
            writeback = vline.dirty and self.config.write_back
            self.stats.evictions += 1
            if writeback:
                self.stats.writebacks += 1
        s[line] = _Line(dirty=is_write and self.config.write_back)
        return AccessResult(hit=False, evicted=evicted, writeback=writeback)

    # -- coherence hooks ---------------------------------------------------
    def contains(self, line: int) -> bool:
        return line in self._sets[self.set_of(line)]

    def is_dirty(self, line: int) -> bool:
        entry = self._sets[self.set_of(line)].get(line)
        return bool(entry and entry.dirty)

    def invalidate(self, line: int) -> bool:
        s = self._sets[self.set_of(line)]
        entry = s.pop(line, None)
        if entry is None:
            raise CoherenceError(
                f"{self.name}: invalidate of non-resident line {line:#x}"
            )
        self.stats.invalidations_received += 1
        return entry.dirty

    def flush(self) -> list[int]:
        dirty: list[int] = []
        for s in self._sets:
            for line, entry in list(s.items()):
                if entry.dirty:
                    dirty.append(line)
                del s[line]
        self.stats.flushes += 1
        self.stats.writebacks += len(dirty)
        return dirty

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)
