"""End-to-end latency composition.

Derives the per-access latency constants the fast tier charges from
the same configuration dataclasses that drive the packet-level tier.
The composition mirrors the packet walk exactly:

uncached **local** read (line fill)::

    crossbar + controller + DRAM
    (the response returns over the same HT link; its return cost is
    folded into the controller overhead, matching the packet model
    where controllers reply directly to the requester's mailbox)

uncached **remote** read at *h* hops (line fill)::

    crossbar                          (core -> RMC)
    + client RMC processing           (request issue)
    + h * (switch + link)             (request path; 8B header)
    + switch                          (delivery at the server)
    + server RMC processing
    + crossbar + controller + DRAM    (server-local access)
    + server RMC processing
    + h * (switch + link)             (response path; header + line)
    + switch
    + client RMC processing

:meth:`LatencyModel.calibrate` measures the same quantities on a live
packet-level cluster; ``tests/model/test_latency.py`` asserts analytic
and measured values are equal on an uncontended line — the contract
that lets Figs. 9-11 trust the fast tier.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ClusterConfig
from repro.ht.crossbar import CROSSBAR_LATENCY_NS
from repro.units import CACHE_LINE

__all__ = ["LatencyModel"]


@dataclass(frozen=True)
class LatencyModel:
    """Per-access latency constants for the fast tier (all ns)."""

    #: line-cache hit
    cache_hit_ns: float
    #: uncached local line access (row-miss DRAM assumed: the workloads
    #: the paper targets are locality-poor)
    local_ns: float
    #: uncached remote line access at each hop count
    remote_1hop_ns: float
    remote_per_hop_ns: float
    #: remote-swap page fault service
    swap_fault_ns: float
    #: disk-swap page fault service
    disk_fault_ns: float

    def remote_ns(self, hops: int = 1) -> float:
        """Uncached remote line latency at *hops* network hops."""
        if hops < 1:
            raise ValueError(f"remote access needs >= 1 hop, got {hops}")
        return self.remote_1hop_ns + (hops - 1) * self.remote_per_hop_ns

    @property
    def remote_vs_local(self) -> float:
        """The slowdown factor of remote over local memory."""
        return self.remote_1hop_ns / self.local_ns

    # -- construction ------------------------------------------------------
    @staticmethod
    def from_config(config: ClusterConfig) -> "LatencyModel":
        """Compose the constants analytically from the configuration."""
        dram = config.node.dram
        rmc = config.rmc
        net = config.network
        link = net.link

        mem_ns = dram.controller_ns + dram.row_miss_ns
        local_ns = CROSSBAR_LATENCY_NS + mem_ns

        # requests are header-only; responses carry a cache line
        req_hop = (
            net.switch_latency_ns + link.serialization_ns(0) + link.propagation_ns
        )
        resp_hop = (
            net.switch_latency_ns
            + link.serialization_ns(CACHE_LINE)
            + link.propagation_ns
        )
        remote_fixed = (
            CROSSBAR_LATENCY_NS             # core -> RMC
            + 2 * rmc.per_op_ns()           # client pipe: request + response
            + 2 * net.switch_latency_ns     # delivery switch each way
            + 2 * rmc.server_per_op_ns()    # server pipe each way
            + CROSSBAR_LATENCY_NS + mem_ns  # server-local memory access
        )
        remote_1hop = remote_fixed + req_hop + resp_hop
        per_hop = req_hop + resp_hop

        return LatencyModel(
            cache_hit_ns=config.node.cache.hit_ns,
            local_ns=local_ns,
            remote_1hop_ns=remote_1hop,
            remote_per_hop_ns=per_hop,
            swap_fault_ns=config.swap.remote_page_ns(),
            disk_fault_ns=config.swap.disk_page_ns(),
        )

    @staticmethod
    def calibrate(cluster, samples: int = 64) -> "LatencyModel":
        """Measure the constants on a live packet-level cluster.

        Performs uncached single-line reads from node 1 against its own
        memory and against a 1-hop and (when the topology allows) a
        2-hop donor, then returns a model with the measured values. The
        analytic swap constants are kept (swap is not packet-modeled).
        """
        from repro.cluster.malloc import Placement
        from repro.units import mib

        config = cluster.config
        analytic = LatencyModel.from_config(config)

        app = cluster.session(1)
        local_ptr = app.malloc(mib(8), Placement.LOCAL)
        local_t = _measure(cluster, app, local_ptr, samples)

        donors_by_hops: dict[int, int] = {}
        for node in range(2, cluster.num_nodes + 1):
            donors_by_hops.setdefault(cluster.hops(1, node), node)
        if 1 not in donors_by_hops:
            raise ValueError("cluster has no 1-hop neighbor for node 1")
        remote_ts: dict[int, float] = {}
        for hops in sorted(donors_by_hops):
            if hops > 2:
                break
            # a fresh session per distance: otherwise the allocator
            # would keep placing memory in the first (closest) arena
            remote_app = cluster.session(1)
            remote_app.borrow_remote(donors_by_hops[hops], mib(16))
            ptr = remote_app.malloc(mib(8), Placement.REMOTE)
            remote_ts[hops] = _measure(cluster, remote_app, ptr, samples)

        per_hop = (
            remote_ts[2] - remote_ts[1]
            if 2 in remote_ts
            else analytic.remote_per_hop_ns
        )
        return LatencyModel(
            cache_hit_ns=analytic.cache_hit_ns,
            local_ns=local_t,
            remote_1hop_ns=remote_ts[1],
            remote_per_hop_ns=per_hop,
            swap_fault_ns=analytic.swap_fault_ns,
            disk_fault_ns=analytic.disk_fault_ns,
        )


def _measure(cluster, app, base_ptr: int, samples: int) -> float:
    """Mean uncached line-read latency over spaced addresses.

    Pages are pre-touched so TLB walks stay off the measurement, and
    every DRAM row buffer is closed so the reads see the row-miss path
    the analytic composition assumes (the locality-poor common case of
    the paper's target workloads).
    """
    sim = app.sim
    stride = 64 * 1024  # one full bank rotation: distinct row every sample
    for i in range(samples):
        app.read(base_ptr + i * stride + 1024, 8, cached=False)
    for node in cluster.nodes.values():
        for mc in node.mcs:
            mc.timing.reset()
    t0 = sim.now
    for i in range(samples):
        app.read(base_ptr + i * stride + 1024, CACHE_LINE, cached=False)
    return (sim.now - t0) / samples
