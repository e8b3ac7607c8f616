"""Remote-swap baseline.

Pages evicted from local RAM are parked in another node's memory and
fetched back over the network on a fault. Faster than disk, but —
unlike the paper's architecture — the OS sits on the critical path of
every first touch of a page, and an access pattern with poor page
locality faults constantly (the thrashing of Fig. 10).

The model charges, per application memory access:

* resident page: the local memory latency (optionally behind a line
  cache supplied by the caller),
* fault: OS fault handling + network setup + page serialization, plus
  a dirty-victim write-back when the LRU evicts a modified page.

The page pool and the per-access charge are the shared
:class:`~repro.swap.device.PagedSwapDevice`; this module only prices a
fault and a write-back.
"""

from __future__ import annotations

from repro.config import SwapConfig
from repro.swap.device import PagedSwapDevice
from repro.units import bandwidth_time

__all__ = ["RemoteSwap"]


class RemoteSwap(PagedSwapDevice):
    """Page-granular remote-swap cost model."""

    def __init__(
        self,
        config: SwapConfig,
        resident_pages: int,
        name: str = "remote_swap",
    ) -> None:
        super().__init__(config, resident_pages, name)

    def fault_service_ns(self) -> float:
        """Cost of pulling one page from the remote store."""
        return self.config.remote_page_ns()

    def writeback_service_ns(self) -> float:
        """Cost of pushing a dirty victim back (overlaps the fetch in
        real kernels only partially; we charge the transfer, not the
        OS entry, which is shared with the fault)."""
        return (
            self.config.net_setup_ns
            + bandwidth_time(
                self.config.page_bytes, self.config.net_bandwidth_Bpns
            )
        )
