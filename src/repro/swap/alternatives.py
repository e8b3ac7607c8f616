"""The other memory-expansion approaches of Section II.

Besides disk and remote swap, the paper's related work surveys three
more ways to give an application memory beyond its node:

* **OS-mediated memory servers** (Violin Memory): a dedicated RAM box,
  but "the OS is involved in every memory access", so each access
  costs microseconds — :class:`OSMemoryServer`;
* **NAND flash as slow RAM** (Virident / Texas Memory): denser and
  cheaper than DRAM, page-fault driven like swap but with flash
  service times — :class:`FlashSwap`;
* **memory compression**: keep more pages resident by compressing the
  cold ones; touching a compressed page costs a decompression fault —
  :class:`CompressedMemory`.

All three expose the same ``access_ns(addr, is_write)`` interface as
the swap devices, so :class:`~repro.model.fastsim.SwapAccessor` runs
workloads against any of them, and the extB experiment lines them all
up against the paper's proposal. :class:`FlashSwap` is a
:class:`~repro.swap.device.PagedSwapDevice`, like the two swap
baselines, so it also has their batched ``access_span_ns``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SwapConfig
from repro.errors import ConfigError
from repro.swap.device import PagedSwapDevice
from repro.swap.pagecache import LRUPageCache, PageCacheStats

__all__ = ["OSMemoryServer", "FlashSwap", "CompressedMemory"]


@dataclass
class _EmptyStats:
    faults: int = 0
    hits: int = 0


class OSMemoryServer:
    """Violin-style memory appliance: every access traps into the OS.

    The paper quotes ~3 microseconds per access *because the OS is on
    the path*; there is no page pool to manage, so the cost model is a
    flat per-access tax.
    """

    def __init__(self, access_ns_const: float = 3_000.0,
                 name: str = "os_mem_server") -> None:
        if access_ns_const <= 0:
            raise ConfigError("per-access cost must be positive")
        self.access_ns_const = access_ns_const
        self.name = name
        self.accesses = 0
        self.stats = _EmptyStats()

    def access_ns(self, addr: int, is_write: bool = False) -> float:
        self.accesses += 1
        return self.access_ns_const


class FlashSwap(PagedSwapDevice):
    """NAND flash as the swap device (Virident / Texas Memory style).

    Flash-era service times: reads ~50-100 us per 4 KiB page (no seek),
    writes slower due to program/erase. Structure is identical to
    remote swap — an LRU pool of DRAM-resident pages.
    """

    def __init__(
        self,
        config: SwapConfig,
        resident_pages: int,
        read_page_ns: float = 90_000.0,
        write_page_ns: float = 250_000.0,
        name: str = "flash_swap",
    ) -> None:
        if read_page_ns <= 0 or write_page_ns <= 0:
            raise ConfigError("flash service times must be positive")
        # set before the base class prices a fault and a write-back
        self.read_page_ns = read_page_ns
        self.write_page_ns = write_page_ns
        super().__init__(config, resident_pages, name)

    def fault_service_ns(self) -> float:
        return self.config.os_fault_ns + self.read_page_ns

    def writeback_service_ns(self) -> float:
        return self.write_page_ns


class CompressedMemory:
    """In-memory compression (Section II's [12][13]).

    Physical DRAM holds an *uncompressed* working zone (LRU over
    ``uncompressed_pages``) plus a compressed zone that extends
    effective capacity by ``ratio``. Touching a page outside the
    uncompressed zone but within effective capacity pays a
    decompression fault; beyond effective capacity the page is simply
    not representable locally and pays the fallback (remote-swap) cost.
    """

    def __init__(
        self,
        config: SwapConfig,
        dram_pages: int,
        ratio: float = 2.5,
        uncompressed_fraction: float = 0.5,
        decompress_ns: float = 9_000.0,
        compress_ns: float = 12_000.0,
        name: str = "compressed",
    ) -> None:
        if ratio < 1.0:
            raise ConfigError(f"compression ratio must be >= 1, got {ratio}")
        if not 0.0 < uncompressed_fraction <= 1.0:
            raise ConfigError("uncompressed_fraction must be in (0, 1]")
        if dram_pages < 2:
            raise ConfigError("need at least two DRAM pages")
        self.config = config
        self.ratio = ratio
        self.decompress_ns = decompress_ns
        self.compress_ns = compress_ns
        self.name = name
        uncompressed = max(1, int(dram_pages * uncompressed_fraction))
        compressed_capacity = int(
            (dram_pages - uncompressed) * ratio
        )
        self.cache = LRUPageCache(uncompressed, name=f"{name}.hot")
        #: pages currently held compressed (LRU among themselves)
        self._compressed = LRUPageCache(
            max(1, compressed_capacity), name=f"{name}.cold"
        )
        self.fault_time_ns = 0.0
        self.overflow_faults = 0

    @property
    def page_bytes(self) -> int:
        return self.config.page_bytes

    @property
    def effective_pages(self) -> int:
        """Pages representable in DRAM thanks to compression."""
        return self.cache.capacity + self._compressed.capacity

    def page_of(self, addr: int) -> int:
        return addr // self.config.page_bytes

    def access_ns(self, addr: int, is_write: bool = False) -> float:
        page = self.page_of(addr)
        fault = self.cache.access(page, is_write)
        if fault is None:
            return 0.0
        cost = 0.0
        if self._compressed.resident(page):
            # decompress into the hot zone
            cost += self.decompress_ns
        else:
            # not representable: fall back to the remote-swap path
            self.overflow_faults += 1
            cost += self.config.remote_page_ns()
        if fault.evicted is not None:
            # the evicted hot page is compressed into the cold zone
            cost += self.compress_ns
            self._compressed.access(fault.evicted, is_write=False)
        self.fault_time_ns += cost
        return cost

    @property
    def stats(self) -> PageCacheStats:
        return self.cache.stats
