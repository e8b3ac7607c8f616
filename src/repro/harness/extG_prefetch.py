"""Extension G — Section VI's prefetching claim, quantified.

"We are confident that improved implementations ... and the use of
prefetching techniques will bring the performance closer to local
memory." This driver measures how much of the remote-vs-local gap a
stream prefetcher closes, on both tiers:

* **fast tier** — a stream prefetcher (8 streams x depth 8) in front of
  remote memory, on a streaming scan, blackscholes (sequential +
  compute) and canneal (random: the prefetcher cannot help and must
  not hurt);
* **packet tier** — an RMC-resident sequential prefetcher
  (``RMCConfig.prefetch_depth``) on a 1-hop stream of uncached line
  reads, with the extra fabric traffic it costs.
"""

from __future__ import annotations

from repro.apps.parsec import blackscholes, canneal
from repro.apps.streams import stream_scan
from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.config import ClusterConfig, NetworkConfig, RMCConfig
from repro.harness.experiments import ExperimentResult, register
from repro.mem.backing import BackingStore
from repro.model.fastsim import LocalMemAccessor, RemoteMemAccessor
from repro.model.latency import LatencyModel
from repro.model.prefetch import PrefetchConfig
from repro.noc.fabricstats import collect
from repro.units import CACHE_LINE, PAGE_SIZE, mib

__all__ = ["run"]


def _stream_ns(lines: int, depth: int) -> tuple[float, int]:
    """Simulated ns and fabric packets of ``lines`` sequential uncached
    line reads from a 1-hop donor, with an RMC prefetcher of ``depth``
    lines (0 = off)."""
    cluster = Cluster(
        ClusterConfig(
            network=NetworkConfig(topology="line", dims=(2, 1)),
            rmc=RMCConfig(prefetch_depth=depth),
        )
    )
    sim = cluster.sim
    app = cluster.session(1)
    app.borrow_remote(2, mib(8))
    ptr = app.malloc(mib(2), Placement.REMOTE)
    for vaddr in range(ptr, ptr + mib(2), PAGE_SIZE):
        app.aspace.translate(vaddr)

    def reader():
        for i in range(lines):
            yield from app.g_read(ptr + i * CACHE_LINE, CACHE_LINE,
                                  cached=False)
        return sim.now

    start = sim.now
    # the queue drains past the last demand read (in-flight prefetches),
    # so the reader reports its own finish time
    finish = sim.run_process(reader())
    return finish - start, collect(cluster.network).total_packets


#: prefetch depth (lines ahead) of both prefetchers
_DEPTH = 8


@register("extG")
def run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    stream_bytes = max(mib(1), int(mib(4) * scale))
    blackscholes_bytes = max(mib(2), int(mib(16) * scale))
    canneal_swaps = max(500, int(4_000 * scale))
    packet_lines = max(100, int(400 * scale))
    latency = LatencyModel.from_config(ClusterConfig())
    prefetch = PrefetchConfig(streams=8, depth=_DEPTH)

    result = ExperimentResult(
        exp_id="extG",
        title="prefetching: how much of the remote-vs-local gap it closes",
        columns=[
            "workload",
            "tier",
            "local_ns",
            "remote_ns",
            "prefetch_ns",
            "speedup",
            "gap_closed",
            "fabric_traffic_x",
        ],
        notes=(
            f"fast tier: 8 streams x depth {_DEPTH}; packet tier: "
            f"{packet_lines} sequential uncached line reads, RMC "
            f"prefetcher depth {_DEPTH}"
        ),
    )

    workloads = [
        ("streaming scan",
         lambda acc: stream_scan(acc, size_bytes=stream_bytes, passes=1)),
        ("blackscholes",
         lambda acc: blackscholes(acc, footprint_bytes=blackscholes_bytes,
                                 passes=1)),
        ("canneal",
         lambda acc: canneal(acc, footprint_bytes=mib(64),
                             swaps=canneal_swaps, seed=seed)),
    ]
    for name, workload in workloads:
        local = workload(LocalMemAccessor(latency, BackingStore(mib(128))))
        remote = workload(RemoteMemAccessor(latency, BackingStore(mib(128))))
        pf = workload(RemoteMemAccessor(latency, BackingStore(mib(128)),
                                        prefetch=prefetch))
        gap = remote.time_ns - local.time_ns
        result.rows.append(
            {
                "workload": name,
                "tier": "fast",
                "local_ns": local.time_ns,
                "remote_ns": remote.time_ns,
                "prefetch_ns": pf.time_ns,
                "speedup": remote.time_ns / pf.time_ns,
                "gap_closed": (remote.time_ns - pf.time_ns) / gap if gap > 0 else 0.0,
                "fabric_traffic_x": None,
            }
        )

    remote_ns, remote_packets = _stream_ns(packet_lines, 0)
    pf_ns, pf_packets = _stream_ns(packet_lines, _DEPTH)
    result.rows.append(
        {
            "workload": "sequential stream",
            "tier": "packet",
            "local_ns": None,
            "remote_ns": remote_ns,
            "prefetch_ns": pf_ns,
            "speedup": remote_ns / pf_ns,
            "gap_closed": None,
            "fabric_traffic_x": pf_packets / remote_packets,
        }
    )
    return result
