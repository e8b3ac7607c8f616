"""Swap baselines (Section II / V-B).

The paper compares its remote-memory architecture against the two
classic answers to "my working set exceeds local RAM":

* **disk swap** — pages go to a local disk; milliseconds per fault;
* **remote swap** — pages go to another node's RAM over the network,
  faster than disk but still paying the OS fault path on every first
  touch of a page.

Both are page-granular cost models over an LRU-managed set of local
page frames (the shared :class:`~repro.swap.device.PagedSwapDevice`),
plus the closed-form models of the paper's
equations (1) and (2) in :mod:`repro.swap.analytic`.
"""

from repro.swap.pagecache import LRUPageCache, PageCacheStats
from repro.swap.diskswap import DiskSwap
from repro.swap.remoteswap import RemoteSwap
from repro.swap.analytic import (
    remote_memory_time_ns,
    remote_swap_time_ns,
)

__all__ = [
    "LRUPageCache",
    "PageCacheStats",
    "DiskSwap",
    "RemoteSwap",
    "remote_swap_time_ns",
    "remote_memory_time_ns",
]
