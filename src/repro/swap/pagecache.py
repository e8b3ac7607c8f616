"""LRU residency tracking for swap baselines.

Models the set of local page frames available to an application whose
working set overflows them. Fully associative, exact LRU — the standard
idealization of the kernel's page reclaim for analytical comparisons
(real reclaim is approximate LRU, so this flatters the swap baselines
slightly, which only strengthens the paper's conclusion when remote
memory still wins).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError

__all__ = ["PageCacheStats", "PageFault", "LRUPageCache"]


@dataclass
class PageCacheStats:
    hits: int = 0
    faults: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.faults

    @property
    def fault_rate(self) -> float:
        return self.faults / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class PageFault:
    """Outcome of a missing page: what must be fetched and evicted."""

    page: int
    evicted: Optional[int]
    evicted_dirty: bool


class LRUPageCache:
    """Fully-associative exact-LRU page-frame pool."""

    def __init__(self, capacity_pages: int, name: str = "pagecache") -> None:
        if capacity_pages < 1:
            raise ConfigError(
                f"page cache needs >= 1 frame, got {capacity_pages}"
            )
        self.capacity = capacity_pages
        self.name = name
        #: page number -> dirty flag, in LRU order (oldest first)
        self._frames: OrderedDict[int, bool] = OrderedDict()
        self.stats = PageCacheStats()

    def hit(self, page: int, is_write: bool = False) -> bool:
        """Touch *page* only if it is resident.

        On a hit, does all that :meth:`access` does on one (recency,
        dirtiness, ``stats.hits``) and returns True; on a miss, changes
        nothing and returns False, leaving the fault to :meth:`access`.
        """
        frames = self._frames
        if page not in frames:
            return False
        frames.move_to_end(page)
        if is_write:
            frames[page] = True
        self.stats.hits += 1
        return True

    def access(self, page: int, is_write: bool = False) -> Optional[PageFault]:
        """Touch *page*; returns ``None`` on a hit, a fault record on a miss.

        On a miss the page is installed; if the pool was full the LRU
        victim is evicted (``evicted_dirty`` signals a write-back).
        """
        if self.hit(page, is_write):
            return None

        self.stats.faults += 1
        evicted: Optional[int] = None
        evicted_dirty = False
        if len(self._frames) >= self.capacity:
            evicted, evicted_dirty = self._frames.popitem(last=False)
            self.stats.evictions += 1
            if evicted_dirty:
                self.stats.dirty_writebacks += 1
        self._frames[page] = is_write
        return PageFault(page=page, evicted=evicted, evicted_dirty=evicted_dirty)

    def touch_extra(self, page: int, count: int, is_write: bool = False) -> None:
        """Account *count* additional hits on a just-accessed page.

        Batched equivalent of *count* further :meth:`access` calls to a
        page that is guaranteed resident (the caller touched it this
        instant); used by the swap devices' span entry point and by
        ``SwapAccessor._charge_words``, so a run of cache lines or of a
        B-tree node's word reads inside one page costs one dict
        operation.
        """
        self._frames.move_to_end(page)
        if is_write:
            self._frames[page] = True
        self.stats.hits += count

    def resident(self, page: int) -> bool:
        return page in self._frames

    def __len__(self) -> int:
        return len(self._frames)

    def clear(self) -> None:
        self._frames.clear()
