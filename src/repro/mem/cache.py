"""Set-associative write-back cache model.

Tag-array only: the data itself lives in the backing store, so the
cache tracks *which lines are resident and dirty* and produces hit/miss
timing plus write-back traffic. This is the standard decomposition for
trace-driven simulators — functional state in one place, locality state
in another — and keeps the model fast enough for 10^8-access workloads.

Two engines live here:

* :class:`Cache` — the production engine. Exact LRU is kept in per-set
  plain dicts mapping line -> dirty flag, whose insertion order is
  recency: a touch deletes and re-inserts its line, the victim is the
  first key. A set's dict is created on its first install — untouched
  sets share one read-only empty placeholder, and a cache none of whose
  sets has been touched shares one read-only per-set index with every
  cache of its set count, so a cache costs only the sets it touches.
  :meth:`Cache.access`, :meth:`Cache.hit` and :meth:`Cache.access_span`
  all walk lines through those dicts; a span is one inline loop.
* :class:`ReferenceCache` — the original per-set ``OrderedDict`` model,
  kept verbatim as the executable specification. The differential
  property tests in ``tests/mem/test_cache_differential.py`` drive
  identical traces through both engines and require bit-identical
  stats, residency, LRU order and dirtiness.

A write-through cache (``write_back=False``) never holds a dirty line,
so it never writes back.

Lines are identified by *line address* (byte address // line size);
callers that have full addresses use :meth:`Cache.line_of`.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Optional, cast

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

#: the dict of every set that has never had a line installed: empty
#: and read-only, so lookups (``get``, ``in``, ``len``) work on it and
#: any write raises. Typed as the dict it stands in for; ``is`` tells
#: the two apart.
_COLD = cast("dict[int, bool]", MappingProxyType({}))


@functools.cache
def _cold_index(nsets: int) -> tuple[dict[int, bool], ...]:
    """The per-set index of a cache with no open set, shared by every
    such cache of *nsets* sets: a tuple, so a write through it raises.
    A cache swaps in a private list before it opens a set."""
    return (_COLD,) * nsets


@dataclass(slots=True)
class BlockResult:
    """Outcome of one batched access over a span of lines.

    Slotted and not frozen: one is built per span, and a frozen
    dataclass pays an ``object.__setattr__`` call per field."""

    hits: int
    misses: int
    #: dirty evictions triggered while installing the span's misses
    writebacks: int
    #: line addresses that missed, in input order (prefetcher feed)
    miss_lines: list[int]
    #: per-input-line hit flags, aligned with the request's lines
    hit_mask: list[bool]
    #: every victim line evicted by a miss install, in miss order
    #: (coherence directories drop their sharer entries from this)
    evicted_lines: list[int] = field(default_factory=list)
    #: the dirty subset of ``evicted_lines`` — lines that owe a
    #: write-back, still in miss order
    wb_lines: list[int] = field(default_factory=list)
    #: for each entry of ``wb_lines``, the index into ``miss_lines`` of
    #: the install that displaced it; a scalar replay performs the
    #: write-back immediately before fetching that miss
    wb_miss_idx: list[int] = field(default_factory=list)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class Cache:
    """One cache (modeled at the L2 / last-level-per-core granularity)."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.stats = CacheStats()
        self._nsets = config.num_sets
        self._ways = config.associativity
        self._wb = config.write_back
        #: per-set LRU: line -> dirty, LRU-first in insertion order;
        #: ``_COLD`` until the set's first install
        self._sets: list[dict[int, bool]]
        self._go_cold()

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
        self._sets = cast("list[dict[int, bool]]", _cold_index(self._nsets))

    def _own_index(self) -> list[dict[int, bool]]:
        """Swap the shared all-cold index for a private list, before the
        first set opens; return the index."""
        sets = self._sets
        if type(sets) is tuple:
            self._sets = sets = list(sets)
        return sets

    # -- core operation ----------------------------------------------------
    def access(self, line: int, is_write: bool) -> AccessResult:
        """Touch *line*; returns hit/miss and any eviction.

        On a miss the line is installed (fetch is the caller's job) and
        the LRU victim of the set, if the set was full, is evicted —
        with ``writeback=True`` if it was dirty.
        """
        si = line % self._nsets
        s = self._sets[si]
        dirty = s.get(line)
        if dirty is not None:
            # re-insert: the line becomes its set's most recent
            del s[line]
            s[line] = dirty or (is_write and self._wb)
            self.stats.hits += 1
            return _HIT

        st = self.stats
        st.misses += 1
        evicted: Optional[int] = None
        writeback = False
        if s is _COLD:
            sets = self._own_index()
            s = sets[si] = {}
        elif len(s) >= self._ways:
            # the first key is the LRU line; taken without a builtin call
            for evicted in s:
                break
            writeback = s[evicted]
            del s[evicted]
            st.evictions += 1
            if writeback:
                st.writebacks += 1
        s[line] = is_write and self._wb
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
        dirty = s.get(line)
        if dirty is None:
            return False
        del s[line]
        s[line] = dirty or (is_write and self._wb)
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

        Identical to *count* ascending :meth:`access` calls, walked in
        one loop that gathers the span's hits, misses and evictions
        into a :class:`BlockResult`.
        """
        hit_mask: list[bool] = []
        miss_lines: list[int] = []
        evicted: list[int] = []
        wb_lines: list[int] = []
        wb_miss_idx: list[int] = []
        if count <= 0:
            return BlockResult(0, 0, 0, miss_lines, hit_mask)
        # a span of at least one line opens any cold set it touches
        sets = self._own_index()
        nsets = self._nsets
        ways = self._ways
        written = is_write and self._wb
        mark = hit_mask.append
        for line in range(first_line, first_line + count):
            si = line % nsets
            s = sets[si]
            dirty = s.get(line)
            if dirty is not None:
                del s[line]
                s[line] = dirty or written
                mark(True)
                continue
            if s is _COLD:
                s = sets[si] = {}
            elif len(s) >= ways:
                for victim in s:
                    break
                evicted.append(victim)
                if s[victim]:
                    wb_lines.append(victim)
                    wb_miss_idx.append(len(miss_lines))
                del s[victim]
            s[line] = written
            miss_lines.append(line)
            mark(False)
        nmiss = len(miss_lines)
        st = self.stats
        st.hits += count - nmiss
        st.misses += nmiss
        st.evictions += len(evicted)
        st.writebacks += len(wb_lines)
        return BlockResult(
            count - nmiss,
            nmiss,
            len(wb_lines),
            miss_lines,
            hit_mask,
            evicted,
            wb_lines,
            wb_miss_idx,
        )

    # -- coherence hooks ---------------------------------------------------
    def contains(self, line: int) -> bool:
        return line in self._sets[line % self._nsets]

    def is_dirty(self, line: int) -> bool:
        return bool(self._sets[line % self._nsets].get(line))

    def invalidate(self, line: int) -> bool:
        """Drop *line* (coherence probe). Returns True if it was dirty.

        A dirty invalidation means the probe also triggered a data
        transfer — the expensive case the paper's architecture avoids
        across nodes.
        """
        s = self._sets[line % self._nsets]
        dirty = s.get(line)
        if dirty is None:
            raise CoherenceError(
                f"{self.name}: invalidate of non-resident line {line:#x}"
            )
        del s[line]
        self.stats.invalidations_received += 1
        return dirty

    def flush(self) -> list[int]:
        """Write back and drop every dirty line; return their addresses.

        Models the explicit cache flush the prototype performs between
        a write phase and a parallel read-only phase (Section IV-B).
        """
        dirty = [line for s in self._sets for line, d in s.items() if d]
        # every set goes back to cold
        self._go_cold()
        self.stats.flushes += 1
        self.stats.writebacks += len(dirty)
        return dirty

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)


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
            if is_write and self.config.write_back:
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
