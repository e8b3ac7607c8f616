"""Ablations — the design choices of Sections III-IV, one at a time.

Each row isolates one decision the paper argues for and measures it
next to its alternative on this simulator (the prototype's or the
default configuration's setting first):

* **outstanding requests** — the prototype presents the RMC as an HT
  I/O unit, capping each core at one outstanding remote request; the
  planned "RMC as a regular memory controller" would allow eight;
* **address translation** — the 14-bit prefix makes the RMC table-free;
  a table-based RMC pays a lookup on every operation;
* **write-back caching** of remote ranges, which the prototype enables
  to claw back locality on cacheable patterns;
* **topology** — mean hop distance of mesh, torus and line;
* **fabric** — native HTX links vs. HyperTransport over Ethernet
  (Section IV-B outlook), next to a remote-swap fault;
* **node interleaving** — per-socket contiguous BARs vs. 4 KiB striping
  across the node's memory controllers;
* **swap page size** — sensitivity of the remote-swap baseline.
"""

from __future__ import annotations

from repro.apps.streams import stream_scan
from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.config import (
    ClusterConfig,
    CoreConfig,
    NetworkConfig,
    NodeConfig,
    RMCConfig,
    SwapConfig,
    htoe_cluster,
)
from repro.harness.experiments import ExperimentResult, register
from repro.mem.backing import BackingStore
from repro.model.fastsim import RemoteMemAccessor, SwapAccessor
from repro.model.latency import LatencyModel
from repro.noc.topology import Topology
from repro.sim.rng import stream
from repro.swap.remoteswap import RemoteSwap
from repro.units import CACHE_LINE, PAGE_SIZE, kib, mib

__all__ = ["run"]


def _line(nodes: int, **overrides) -> ClusterConfig:
    return ClusterConfig(
        network=NetworkConfig(topology="line", dims=(nodes, 1)), **overrides
    )


def _settle(sim, procs) -> None:
    sim.run()
    for p in procs:
        if not p.ok:  # pragma: no cover - surfacing reader crashes
            raise p.value


def _outstanding_ns(remote_outstanding: int, reads: int, seed: int) -> float:
    """Mean ns per uncached 64 B read when one core issues ``reads``
    independent reads to a 1-hop donor at once."""
    core_cfg = CoreConfig(remote_outstanding=remote_outstanding)
    cluster = Cluster(_line(3, node=NodeConfig(core=core_cfg)))
    sim = cluster.sim
    app = cluster.session(1)
    app.borrow_remote(2, mib(16))
    ptr = app.malloc(mib(8), Placement.REMOTE)
    for vaddr in range(ptr, ptr + mib(8), PAGE_SIZE):
        app.aspace.translate(vaddr)
    rng = stream(seed, "ablations", "outstanding")
    offsets = rng.integers(0, mib(8) // PAGE_SIZE, size=reads) * PAGE_SIZE
    core = app.node.cores[0]
    start = sim.now
    procs = [
        sim.process(
            core.read(app.aspace.translate(ptr + int(off)).phys_addr, CACHE_LINE)
        )
        for off in offsets
    ]
    _settle(sim, procs)
    return (sim.now - start) / reads


def _scan_ns(latency: LatencyModel, use_cache: bool) -> float:
    """Two passes over 1 MiB: the second pass hits in a 2 MiB cache."""
    acc = RemoteMemAccessor(latency, BackingStore(mib(8)), hops=1,
                            use_cache=use_cache)
    return stream_scan(acc, size_bytes=mib(1), passes=2).time_ns


def _mean_hops(kind: str, dims: tuple[int, int]) -> float:
    return Topology.build(NetworkConfig(topology=kind, dims=dims)).mean_hops()


def _parallel_streams_ns(interleave_bytes: int) -> float:
    """Four cores each read 32 lines 64 KiB apart (bank-conflicting
    strides) from local memory, all at once."""
    cluster = Cluster(
        ClusterConfig(
            network=NetworkConfig(topology="line", dims=(2, 1)),
            node=NodeConfig(interleave_bytes=interleave_bytes),
        )
    )
    sim = cluster.sim
    app = cluster.session(1)
    ptr = app.malloc(mib(8), Placement.LOCAL)
    app.read(ptr, CACHE_LINE, cached=False)
    for vaddr in range(ptr, ptr + mib(8), PAGE_SIZE):
        app.aspace.translate(vaddr)
    start = sim.now
    procs = []
    for core_idx, core in enumerate(app.node.cores[:4]):
        base = app.aspace.translate(ptr + core_idx * PAGE_SIZE).phys_addr
        procs += [
            sim.process(core.read(base + i * kib(64), CACHE_LINE))
            for i in range(32)
        ]
    _settle(sim, procs)
    return sim.now - start


def _swap_ns(latency: LatencyModel, page_bytes: int, random_pattern: bool,
             accesses: int, seed: int) -> float:
    """Total ns of ``accesses`` 8 B reads under remote swap with 1 MiB
    of local frames: a 64 B-stride stream or random pages of 32 MiB."""
    swap = RemoteSwap(SwapConfig(page_bytes=page_bytes),
                      resident_pages=max(8, mib(1) // page_bytes))
    acc = SwapAccessor(latency, BackingStore(mib(64)), swap, use_cache=False)
    if random_pattern:
        rng = stream(seed, "ablations", "swap_page")
        addrs = rng.integers(0, mib(32) // PAGE_SIZE, size=accesses) * PAGE_SIZE
    else:
        addrs = [i * CACHE_LINE for i in range(accesses)]
    for addr in addrs:
        acc.read(int(addr), 8)
    return acc.time_ns


@register("ablations")
def run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    reads = max(100, int(400 * scale))
    samples = max(16, int(32 * scale))
    swap_accesses = max(500, int(1_500 * scale))
    latency = LatencyModel.from_config(ClusterConfig())
    native = LatencyModel.calibrate(Cluster(_line(3)), samples=samples)
    tabled = LatencyModel.calibrate(
        Cluster(_line(3, rmc=RMCConfig(use_translation_table=True))),
        samples=samples,
    )
    htoe = LatencyModel.calibrate(Cluster(htoe_cluster(nodes=3)),
                                  samples=samples)

    result = ExperimentResult(
        exp_id="ablations",
        title="design choices of Sections III-IV, one at a time",
        columns=["design_choice", "unit", "measured"],
        notes=(
            f"{reads} concurrent reads per outstanding limit; latencies "
            f"calibrated over {samples} uncached reads; {swap_accesses} "
            "swap accesses per page size"
        ),
    )

    def row(design_choice: str, unit: str, measured: dict) -> None:
        result.rows.append(
            {"design_choice": design_choice, "unit": unit, "measured": measured}
        )

    row("outstanding remote requests per core (prototype: 1)", "ns per read",
        {"1": _outstanding_ns(1, reads, seed),
         "8": _outstanding_ns(8, reads, seed)})
    row("RMC address translation (prototype: prefix)",
        "ns per 1-hop line read",
        {"prefix": native.remote_1hop_ns, "table": tabled.remote_1hop_ns})
    row("write-back caching of remote ranges (prototype: cached)",
        "ns per two 1 MiB scans",
        {"cached": _scan_ns(latency, True),
         "uncached": _scan_ns(latency, False)})
    row("topology (default: 4x4 mesh)", "mean hops",
        {"torus 4x4": _mean_hops("torus", (4, 4)),
         "mesh 4x4": _mean_hops("mesh", (4, 4)),
         "line 16": _mean_hops("line", (16, 1))})
    row("fabric (prototype: native HTX)", "ns per 1-hop line read",
        {"native": native.remote_1hop_ns, "HToE": htoe.remote_1hop_ns,
         "swap fault": native.swap_fault_ns})
    row("node interleaving (prototype: contiguous)",
        "ns for 4 parallel strided streams",
        {"contiguous": _parallel_streams_ns(0),
         "interleaved 4K": _parallel_streams_ns(PAGE_SIZE)})
    row("swap page size (default: 4 KiB)", "ns per access sequence",
        {f"{pattern} {size // 1024}K": _swap_ns(
            latency, size, pattern == "rand", swap_accesses, seed)
         for pattern in ("seq", "rand") for size in (PAGE_SIZE, kib(64))})
    return result
