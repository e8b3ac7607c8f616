"""The page-granular swap device the swap baselines share.

:class:`~repro.swap.remoteswap.RemoteSwap`,
:class:`~repro.swap.diskswap.DiskSwap` and ext-B's
:class:`~repro.swap.alternatives.FlashSwap` differ only in what one
fault and one dirty write-back cost. Everything else — the LRU pool of local
page frames, Equation (1)'s per-access charge and its batched span
form — lives here once. A subclass supplies the two costs through
:meth:`fault_service_ns` and :meth:`writeback_service_ns`; the
:class:`~repro.config.SwapConfig` is frozen, so both are worked out
once, at construction, instead of on every fault.

A resident page costs nothing beyond local memory, and the pool is the
public ``cache`` attribute. :class:`~repro.model.fastsim.SwapAccessor`
relies on both: it probes ``cache`` directly for a single-line access
and calls :meth:`PagedSwapDevice.access_ns` only on a fault, so a
subclass must not price a resident access.
"""

from __future__ import annotations

from repro.config import SwapConfig
from repro.swap.pagecache import LRUPageCache, PageCacheStats

__all__ = ["PagedSwapDevice"]


class PagedSwapDevice:
    """An LRU page-frame pool whose misses pay a fixed service time."""

    def __init__(self, config: SwapConfig, resident_pages: int, name: str) -> None:
        self.config = config
        self.name = name
        #: the page-frame pool; a hit on it costs 0 ns
        self.cache = LRUPageCache(resident_pages, name=f"{name}.frames")
        self.fault_time_ns = 0.0
        self._page_bytes = config.page_bytes
        self._fault_ns = self.fault_service_ns()
        self._writeback_ns = self.writeback_service_ns()

    @property
    def page_bytes(self) -> int:
        return self._page_bytes

    def page_of(self, addr: int) -> int:
        return addr // self._page_bytes

    def fault_service_ns(self) -> float:
        """Cost of bringing one page in."""
        raise NotImplementedError

    def writeback_service_ns(self) -> float:
        """Cost of pushing one dirty victim out."""
        raise NotImplementedError

    def access_ns(self, addr: int, is_write: bool = False) -> float:
        """Extra time this access pays to the swap subsystem.

        Returns 0.0 for resident pages — the caller charges its normal
        local-memory latency on top.
        """
        fault = self.cache.access(addr // self._page_bytes, is_write)
        if fault is None:
            return 0.0
        cost = self._fault_ns
        if fault.evicted_dirty:
            cost += self._writeback_ns
        self.fault_time_ns += cost
        return cost

    def access_span_ns(
        self, addr: int, nlines: int, line_bytes: int, is_write: bool = False
    ) -> tuple[float, list[int]]:
        """Batched :meth:`access_ns` over *nlines* consecutive lines.

        Lines inside one page collapse to a single page-pool touch
        (first line takes the real :meth:`~LRUPageCache.access`, the
        rest are accounted with ``touch_extra``), so the cost of a span
        is one dict operation per *page* instead of per line. Returns
        ``(total_extra_ns, fault_line_indices)`` with indices relative
        to the span — exactly the lines for which the per-line path
        would have returned a positive fault cost.
        """
        pb = self._page_bytes
        cache = self.cache
        total = 0.0
        faults: list[int] = []
        i = 0
        page = addr // pb
        while i < nlines:
            span_end = min(nlines, ((page + 1) * pb - 1 - addr) // line_bytes + 1)
            fault = cache.access(page, is_write)
            if fault is not None:
                cost = self._fault_ns
                if fault.evicted_dirty:
                    cost += self._writeback_ns
                self.fault_time_ns += cost
                total += cost
                faults.append(i)
            if span_end - i > 1:
                cache.touch_extra(page, span_end - i - 1, is_write)
            i = span_end
            page += 1
        return total, faults

    @property
    def stats(self) -> PageCacheStats:
        return self.cache.stats
