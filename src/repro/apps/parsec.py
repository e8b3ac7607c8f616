"""Synthetic PARSEC-like workloads (Section V-C, Fig. 11).

The paper runs four PARSEC benchmarks chosen by memory footprint. What
Fig. 11 actually depends on is each benchmark's *footprint relative to
local memory* and its *access pattern*; the generators below reproduce
those two properties (the substitution is recorded in DESIGN.md):

=============== ======================= =================================
benchmark       footprint (vs local)    pattern modeled
=============== ======================= =================================
blackscholes    moderately above        sequential scan of option
                                        records, compute-heavy per record
raytrace        moderately above        pointer chasing with a hot top
                                        (BVH upper levels) and a Zipf
                                        tail over leaf pages
canneal         far above               uniform random read-modify-write
                                        pairs over the whole footprint
streamcluster   below                   repeated sequential scans of a
                                        small point set
=============== ======================= =================================

Every generator runs against any :class:`~repro.model.fastsim.Accessor`
so one call measures local memory, the remote-memory prototype, or a
swap baseline. The scans issue chunked multi-line reads (records,
BVH nodes, point blocks), which the fast-tier accessors charge through
the batched span path — one cache call per chunk instead of a
per-line charge, with identical timing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.sim.rng import stream
from repro.units import PAGE_SIZE

__all__ = [
    "ParsecResult",
    "blackscholes",
    "raytrace",
    "canneal",
    "streamcluster",
]


@dataclass(frozen=True)
class ParsecResult:
    """Outcome of one synthetic-workload run."""

    name: str
    time_ns: float
    accesses: int
    footprint_bytes: int
    work_items: int

    @property
    def ns_per_item(self) -> float:
        return self.time_ns / self.work_items if self.work_items else 0.0


def _start(accessor) -> float:
    return accessor.time_ns


def blackscholes(
    accessor,
    *,
    footprint_bytes: int,
    passes: int = 2,
    record_bytes: int = 40,
    compute_ns_per_record: float = 800.0,
    seed: int = 0,
) -> ParsecResult:
    """Option-pricing scan: read each record, write back one price.

    Sequential and compute-dominated — the pattern that lets both the
    prototype *and* remote swap amortize (one fault serves a whole
    page of records), which is why Fig. 11 shows only a ~2x swap
    penalty here.
    """
    if footprint_bytes < record_bytes:
        raise ConfigError("footprint smaller than one record")
    num_records = footprint_bytes // record_bytes
    rng = stream(seed, "blackscholes")
    accessor.bulk_write(0, rng.bytes(min(footprint_bytes, 1 << 20)))
    t0 = _start(accessor)
    records_per_batch = max(1, PAGE_SIZE // record_bytes)
    batch_bytes = records_per_batch * record_bytes
    for _ in range(passes):
        pos = 0
        while pos < num_records:
            take = min(records_per_batch, num_records - pos)
            addr = pos * record_bytes
            accessor.read(addr, take * record_bytes)
            # one 8-byte result write per record, batched at page grain
            accessor.write(addr, bytes(8 * take))
            accessor.compute(compute_ns_per_record * take)
            pos += take
    return ParsecResult(
        name="blackscholes",
        time_ns=accessor.time_ns - t0,
        accesses=accessor.accesses,
        footprint_bytes=footprint_bytes,
        work_items=num_records * passes,
    )


def raytrace(
    accessor,
    *,
    footprint_bytes: int,
    rays: int = 8_000,
    node_bytes: int = 64,
    hot_levels: int = 12,
    cold_reads_per_ray: int = 3,
    zipf_a: float = 1.7,
    compute_ns_per_ray: float = 1_500.0,
    seed: int = 0,
) -> ParsecResult:
    """BVH-style traversal: a hot top everyone reuses plus a skewed
    (Zipf) tail over the leaf/triangle pages.

    The reuse skew keeps the swap baseline's fault rate low — the
    paper's raytrace also loses only ~2x under remote swap despite its
    large footprint.
    """
    if footprint_bytes < (1 << hot_levels) * node_bytes:
        raise ConfigError("footprint too small for the requested hot level count")
    rng = stream(seed, "raytrace")
    hot_nodes = (1 << hot_levels) - 1
    total_pages = footprint_bytes // PAGE_SIZE
    t0 = _start(accessor)

    # Zipf over pages for the cold tail; rejection-sample into range.
    cold = rng.zipf(zipf_a, size=rays * cold_reads_per_ray * 2)
    cold = cold[cold <= total_pages][: rays * cold_reads_per_ray]
    while cold.size < rays * cold_reads_per_ray:
        extra = rng.zipf(zipf_a, size=rays * cold_reads_per_ray)
        cold = np.concatenate([cold, extra[extra <= total_pages]])[
            : rays * cold_reads_per_ray
        ]
    # map "page popularity rank" to a shuffled page id so hot pages are
    # spread over the footprint, not clustered at its start
    perm = rng.permutation(total_pages)
    hot_path = rng.integers(0, hot_nodes, size=(rays, hot_levels))
    line_jitter = rng.integers(0, PAGE_SIZE // node_bytes, size=cold.shape[0])

    ci = 0
    for r in range(rays):
        for lvl in range(hot_levels):
            accessor.read(int(hot_path[r, lvl]) * node_bytes, node_bytes)
        for _ in range(cold_reads_per_ray):
            page = int(perm[int(cold[ci]) - 1])
            addr = page * PAGE_SIZE + int(line_jitter[ci]) * node_bytes
            accessor.read(addr, node_bytes)
            ci += 1
        accessor.compute(compute_ns_per_ray)
    return ParsecResult(
        name="raytrace",
        time_ns=accessor.time_ns - t0,
        accesses=accessor.accesses,
        footprint_bytes=footprint_bytes,
        work_items=rays,
    )


def canneal(
    accessor,
    *,
    footprint_bytes: int,
    swaps: int = 20_000,
    element_bytes: int = 32,
    compute_ns_per_swap: float = 200.0,
    seed: int = 0,
) -> ParsecResult:
    """Simulated annealing of a netlist: pick two random elements,
    read both, write both. Uniformly random over a huge footprint —
    no locality for a pager to exploit; this is the workload whose
    remote-swap bar Fig. 11 shows going "exponential ... to
    prohibitive levels"."""
    num_elements = footprint_bytes // element_bytes
    if num_elements < 2:
        raise ConfigError("canneal needs at least two elements")
    rng = stream(seed, "canneal")
    pairs = rng.integers(0, num_elements, size=(swaps, 2), dtype=np.int64)
    t0 = _start(accessor)
    for a, b in pairs:
        addr_a = int(a) * element_bytes
        addr_b = int(b) * element_bytes
        da = accessor.read(addr_a, element_bytes)
        db = accessor.read(addr_b, element_bytes)
        accessor.write(addr_a, db)
        accessor.write(addr_b, da)
        accessor.compute(compute_ns_per_swap)
    return ParsecResult(
        name="canneal",
        time_ns=accessor.time_ns - t0,
        accesses=accessor.accesses,
        footprint_bytes=footprint_bytes,
        work_items=swaps,
    )


def streamcluster(
    accessor,
    *,
    footprint_bytes: int,
    scans: int = 12,
    point_bytes: int = 64,
    compute_ns_per_point: float = 300.0,
    seed: int = 0,
) -> ParsecResult:
    """Online clustering: the whole (small) point set is scanned once
    per candidate center. The footprint fits in local memory, so the
    swap baseline never faults after warm-up — Fig. 11 shows its bar
    level with local memory."""
    num_points = footprint_bytes // point_bytes
    if num_points < 1:
        raise ConfigError("empty point set")
    rng = stream(seed, "streamcluster")
    accessor.bulk_write(0, rng.bytes(min(footprint_bytes, 1 << 20)))
    t0 = _start(accessor)
    points_per_batch = max(1, PAGE_SIZE // point_bytes)
    for _ in range(scans):
        pos = 0
        while pos < num_points:
            take = min(points_per_batch, num_points - pos)
            accessor.read(pos * point_bytes, take * point_bytes)
            accessor.compute(compute_ns_per_point * take)
            pos += take
    return ParsecResult(
        name="streamcluster",
        time_ns=accessor.time_ns - t0,
        accesses=accessor.accesses,
        footprint_bytes=footprint_bytes,
        work_items=num_points * scans,
    )
