"""Disk-swap baseline ("the traditional approach", Section II).

Identical structure to :class:`repro.swap.remoteswap.RemoteSwap` — both
are a :class:`~repro.swap.device.PagedSwapDevice` — but with disk
service times: a seek plus the page transfer at disk bandwidth, which
puts a fault in the milliseconds — the regime where "the thrashing
problem easily arises, increasing execution time to prohibitive
levels".
"""

from __future__ import annotations

from repro.config import SwapConfig
from repro.swap.device import PagedSwapDevice
from repro.units import bandwidth_time

__all__ = ["DiskSwap"]


class DiskSwap(PagedSwapDevice):
    """Page-granular disk-swap cost model."""

    def __init__(
        self,
        config: SwapConfig,
        resident_pages: int,
        name: str = "disk_swap",
    ) -> None:
        super().__init__(config, resident_pages, name)

    def fault_service_ns(self) -> float:
        return self.config.disk_page_ns()

    def writeback_service_ns(self) -> float:
        # Writes can be queued but must eventually pay seek + transfer.
        return (
            self.config.disk_seek_ns
            + bandwidth_time(
                self.config.page_bytes, self.config.disk_bandwidth_Bpns
            )
        )
