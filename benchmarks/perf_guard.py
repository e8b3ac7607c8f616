#!/usr/bin/env python
"""Microbench gate: exact work counts per op; host rates are only reported.

Each bench runs its body once and returns the deterministic work that
pass did, divided by its op count: events scheduled and simulated ns
on the packet and engine tiers, accessor calls, cache misses and
charged ns on the fast tier (plus page faults and evictions over a
swap device), probe traffic in the MESI domain. Those counts must
equal the bench's literal ``EXPECTED`` entry exactly, so a deliberate
change of a count shows up as a reviewable diff of that dict. The host rate of the same pass is printed but never gated: on a
shared host it swings by ±40% between windows, while the counts repeat
to the last bit on any host.

One bench counts host work instead of simulated work:
``remote_read_host_calls`` gates the exact number of Python calls into
``src/repro`` (``sys.setprofile`` ``call`` events, generator resumptions
included) per 3-hop uncached 64 B read, the Fig. 6 access. The count
repeats exactly on one interpreter version (it is pinned on CPython
3.11); the C-builtin calls of the same reads are printed, not gated.

Two same-window checks sit beside the counts:

* every packet-tier bench also runs one counted pass of its
  ``Cluster(config, batch=False)`` twin (the ``*_scalar`` entries), so
  the batched path's event savings are pinned next to the scalar
  reference's counts; the remote and swap B-tree searches have
  ``batch=False`` accessor twins whose counts must equal the batched
  ones;
* a columnar scan exists to cost O(windows) host work instead of the
  O(elements) of its per-element ``*_ref`` loop, which no simulated
  count records. It must stay ``MIN_SPEEDUP_VS_REF`` times faster than
  that loop, both timed in the same window on every run.

Usage::

    PYTHONPATH=src python benchmarks/perf_guard.py

Exits 1 naming each bench whose counts or floor failed, and exits 1
before measuring anything if ``EXPECTED`` and ``BENCHES`` disagree on
which benches exist.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster.cluster import Cluster  # noqa: E402
from repro.cluster.malloc import Placement  # noqa: E402
from repro.config import ClusterConfig, NetworkConfig  # noqa: E402
from repro.mem.backing import BackingStore  # noqa: E402
from repro.model.fastsim import (  # noqa: E402
    LocalMemAccessor,
    RemoteMemAccessor,
    SwapAccessor,
)
from repro.model.latency import LatencyModel  # noqa: E402
from repro.sim import Resource, Simulator, Store  # noqa: E402
from repro.swap.remoteswap import RemoteSwap  # noqa: E402
from repro.units import PAGE_SIZE, mib  # noqa: E402

#: a columnar scan must beat its per-element reference loop by this much
MIN_SPEEDUP_VS_REF = 10.0


class Result(NamedTuple):
    ops: int
    seconds: float
    #: per-op work counts (plus a digest where a bench has no counts)
    counts: dict
    #: same-window wall ratio of the ``*_ref`` loop to the bench body
    speedup: Optional[float] = None
    #: printed beside the counts, never gated
    note: str = ""


def _measure(body: Callable[[], object], ops: int,
             counters: Callable[[], dict]) -> Result:
    """Run *body* once; its counts are the per-op growth of *counters*."""
    before = counters()
    t0 = time.perf_counter()
    body()
    seconds = time.perf_counter() - t0
    after = counters()
    return Result(ops, seconds, {k: (after[k] - before[k]) / ops for k in after})


def _speedup(body: Callable[[], object], ref: Callable[[], object],
             repeats: int = 3) -> float:
    """Wall ratio ref/body, each the best of *repeats* interleaved runs."""
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for i, fn in enumerate((body, ref)):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best[1] / best[0]


def _page_addrs(n: int, seed: int = 0) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(a) * PAGE_SIZE for a in rng.integers(0, 4000, size=n)]


def _loop(fn: Callable, args: list, *extra) -> Callable[[], None]:
    """A timed body calling ``fn(a, *extra)`` for each *a* in *args*."""

    def run():
        for a in args:
            fn(a, *extra)

    return run


def _engine_counts(sim: Simulator) -> dict:
    return {"events": sim.events_scheduled, "sim_ns": sim.now}


def _packet_counts(cluster: Cluster) -> dict:
    return {
        **_engine_counts(cluster.sim),
        "link_packets": sum(
            link.packets.value for link in cluster.network.links.values()
        ),
        "cache_misses": sum(
            c.stats.misses for node in cluster.nodes.values() for c in node.caches
        ),
    }


def _fast_counts(acc) -> dict:
    return {
        "accesses": acc.accesses,
        "cache_misses": acc.cache.stats.misses,
        "time_ns": acc.time_ns,
    }


# ---------------------------------------------------------------------------
# Fast tier
# ---------------------------------------------------------------------------


def bench_fast_tier_read_8B() -> Result:
    acc = LocalMemAccessor(LatencyModel.from_config(ClusterConfig()),
                           BackingStore(mib(64)))
    addrs = _page_addrs(20_000)
    return _measure(_loop(acc.read, addrs, 8), len(addrs),
                    lambda: _fast_counts(acc))


def bench_fast_tier_read_u64() -> Result:
    acc = LocalMemAccessor(LatencyModel.from_config(ClusterConfig()),
                           BackingStore(mib(64)))
    addrs = _page_addrs(20_000, seed=1)
    return _measure(_loop(acc.read_u64, addrs), len(addrs),
                    lambda: _fast_counts(acc))


def bench_fast_tier_read_4K() -> Result:
    """Page-sized reads: 64 lines per op through the span path."""
    acc = RemoteMemAccessor(LatencyModel.from_config(ClusterConfig()),
                            BackingStore(mib(64)))
    addrs = _page_addrs(4_000, seed=2)
    return _measure(_loop(acc.read, addrs, PAGE_SIZE), len(addrs),
                    lambda: _fast_counts(acc))


def _btree_search(batch: bool) -> Result:
    """B-tree lookups over remote memory. The ``batch=False`` twin
    descends through the per-node header read, key search and child
    read, so equal counts pin the one-call descent to those calls."""
    from repro.apps.btree import BTree

    acc = RemoteMemAccessor(LatencyModel.from_config(ClusterConfig()),
                            BackingStore(1 << 28), batch=batch)
    tree = BTree(acc, children=168)
    tree.bulk_load(np.arange(1, 200_001, dtype=np.uint64))
    rng = np.random.default_rng(3)
    queries = [int(q) for q in rng.integers(1, 200_001, size=4_000)]
    return _measure(_loop(tree.search, queries), len(queries),
                    lambda: _fast_counts(acc))


def _swap_btree_search(batch: bool, children: int = 168) -> Result:
    """Fig. 9's baseline: B-tree lookups over remote swap with a page
    pool far smaller than the tree, so the word path both hits resident
    pages and faults. The ``batch=False`` twin charges each header,
    in-node probe and child pointer as its own accessor call, so equal
    counts pin the one-call descent to those calls. At 16 children some
    node headers straddle two lines, and those nodes take the per-node
    calls inside the one-call descent too."""
    from repro.apps.btree import BTree

    cfg = ClusterConfig()
    swap = RemoteSwap(cfg.swap, resident_pages=64)
    acc = SwapAccessor(LatencyModel.from_config(cfg), BackingStore(1 << 28), swap,
                       batch=batch)
    tree = BTree(acc, children=children)
    tree.bulk_load(np.arange(1, 200_001, dtype=np.uint64))
    rng = np.random.default_rng(6)
    queries = [int(q) for q in rng.integers(1, 200_001, size=4_000)]
    return _measure(_loop(tree.search, queries), len(queries), lambda: {
        **_fast_counts(acc),
        "swap_faults": swap.stats.faults,
        "swap_evictions": swap.stats.evictions,
    })


def bench_backing_read_8B() -> Result:
    """Raw backing-store word reads: no simulated work, so the gate is
    that reads materialize nothing and return the words written."""
    bs = BackingStore(mib(64))
    bs.write(0, np.arange(mib(1) // 8, dtype=np.uint64).tobytes())
    addrs = [a % mib(1) for a in _page_addrs(20_000, seed=4)]
    got: list[bytes] = []

    def run():
        read, keep = bs.read, got.append
        for a in addrs:
            keep(read(a, 8))

    res = _measure(run, len(addrs), lambda: {"resident_bytes": bs.resident_bytes})
    res.counts["digest"] = hashlib.sha256(b"".join(got)).hexdigest()[:16]
    return res


# ---------------------------------------------------------------------------
# Packet tier (each bench also runs as its batch=False scalar twin)
# ---------------------------------------------------------------------------


def _packet_session(batch: bool = True):
    cfg = ClusterConfig(network=NetworkConfig(topology="line", dims=(2, 1)))
    cluster = Cluster(cfg, batch=batch)
    return cluster, cluster.session(1)


def _page_reads(batch: bool, coherent: bool) -> Result:
    """Cold page-sized reads: 64-line miss bursts per op, through the
    cached path or the MESI domain's span path."""
    cluster, app = _packet_session(batch)
    npages = 192
    base = app.malloc(npages * PAGE_SIZE, Placement.LOCAL)
    read = app.coherent_read if coherent else app.read
    pages = [base + i * PAGE_SIZE for i in range(npages)]
    return _measure(_loop(read, pages, PAGE_SIZE), npages,
                    lambda: _packet_counts(cluster))


def _packet_btree_search(batch: bool) -> Result:
    """Database-style point lookups with every byte moved through real
    packets; nodes cache quickly, so this guards the single-line path."""
    from repro.apps.access import SessionAccessor
    from repro.apps.btree import BTree

    cluster, app = _packet_session(batch)
    tree = BTree(SessionAccessor(app, mib(2), placement=Placement.LOCAL),
                 children=168)
    tree.bulk_load(np.arange(1, 20_001, dtype=np.uint64))
    rng = np.random.default_rng(5)
    queries = [int(q) for q in rng.integers(1, 20_001, size=1_000)]
    return _measure(_loop(tree.search, queries), len(queries),
                    lambda: _packet_counts(cluster))


# ---------------------------------------------------------------------------
# Columnar tier (counts of the windowed scan, plus its floor over *_ref)
# ---------------------------------------------------------------------------


def _fast_column(seed: int, n: int = 65_536):
    """A remote fast-tier accessor holding an *n*-element uint64 column."""
    from repro.apps.columnar import Column

    acc = RemoteMemAccessor(LatencyModel.from_config(ClusterConfig()),
                            BackingStore(mib(4)), hops=1)
    rng = np.random.default_rng(seed)
    acc.bulk_write(0, rng.integers(0, 1 << 32, size=n, dtype=np.uint64).tobytes())
    return acc, Column(0, n, "uint64")


def _columnar(body, ref, n: int, counters) -> Result:
    return _measure(body, n, counters)._replace(speedup=_speedup(body, ref))


def bench_column_sum_fast() -> Result:
    """Whole-column aggregate through zero-copy windows (fast tier)."""
    from repro.apps.columnar import ColumnScan, scan_sum_ref

    acc, col = _fast_column(seed=7)
    scan = ColumnScan(acc)
    return _columnar(lambda: scan.sum(col), lambda: scan_sum_ref(acc, col),
                     col.count, lambda: _fast_counts(acc))


def bench_column_select_fast() -> Result:
    """Filter + selection-vector build through the same windows."""
    from repro.apps.columnar import ColumnScan, select_ref

    acc, col = _fast_column(seed=8)
    scan = ColumnScan(acc)
    lo, hi = 1 << 20, 1 << 31
    return _columnar(lambda: scan.select(col, lo, hi),
                     lambda: select_ref(acc, col, lo, hi),
                     col.count, lambda: _fast_counts(acc))


def _dram_counts(cluster: Cluster) -> dict:
    mcs = [mc for node in cluster.nodes.values() for mc in node.mcs]
    return {
        "dram_row_hits": sum(mc.timing.row_hits.value for mc in mcs),
        "dram_row_misses": sum(mc.timing.row_misses.value for mc in mcs),
    }


def _column_sum_packet(batch: bool) -> Result:
    """Whole-column remote aggregate with every byte riding real burst
    packets: the O(bursts) event path end to end, with the donor's DRAM
    row hits and misses. The scalar twin gates counts only; the 10x
    floor over the per-element loop belongs to the batched scan."""
    from repro.apps.access import SessionAccessor
    from repro.apps.columnar import Column, ColumnScan, scan_sum_ref

    n = 16_384
    cluster, app = _packet_session(batch)
    app.borrow_remote(2, mib(8))
    acc = SessionAccessor(app, n * 8, placement=Placement.REMOTE)
    rng = np.random.default_rng(9)
    acc.bulk_write(0, rng.integers(0, 1 << 32, size=n, dtype=np.uint64).tobytes())
    col = Column(0, n, "uint64")
    scan = ColumnScan(acc)

    def counters() -> dict:
        return {**_packet_counts(cluster), **_dram_counts(cluster)}

    if not batch:
        return _measure(lambda: scan.sum(col), n, counters)
    return _columnar(lambda: scan.sum(col), lambda: scan_sum_ref(acc, col),
                     n, counters)


# ---------------------------------------------------------------------------
# Engine tier
# ---------------------------------------------------------------------------


def bench_engine_timeout_throughput() -> Result:
    """Chained timeouts: the dominant event class, pure engine work."""
    n = 30_000
    sim = Simulator()

    def ticker():
        for _ in range(n):
            yield sim.timeout(1.0)

    sim.process(ticker())
    return _measure(sim.run, n, lambda: _engine_counts(sim))


def bench_engine_store_handoff() -> Result:
    """Producer/consumer rendezvous through a Store: the callback-heavy
    succeed/resume path every queueing model leans on."""
    n = 10_000
    sim = Simulator()
    store = Store(sim)

    def producer():
        for i in range(n):
            yield store.put(i)
            yield sim.timeout(0.0)

    def consumer():
        for _ in range(n):
            yield store.get()

    sim.process(producer())
    sim.process(consumer())
    return _measure(sim.run, n, lambda: _engine_counts(sim))


def bench_engine_resource_grant() -> Result:
    """Request/yield/release loops on a Resource: a lone holder granted
    on the spot, then two contenders on one slot, each granted when the
    other releases."""
    n = 5_000
    sim = Simulator()
    free = Resource(sim)
    busy = Resource(sim)

    def alone():
        for _ in range(n):
            req = free.request()
            yield req
            free.release(req)

    def contender():
        for _ in range(n):
            req = busy.request()
            yield req
            yield sim.timeout(1.0)
            busy.release(req)

    sim.process(alone())
    sim.process(contender())
    sim.process(contender())
    return _measure(sim.run, 3 * n, lambda: _engine_counts(sim))


def bench_engine_process_spawn() -> Result:
    """Spawn a child process and join it, n times: the kick-off and exit
    events of every process."""
    n = 5_000
    sim = Simulator()

    def child(i):
        yield sim.timeout(1.0)
        return i

    def parent():
        for i in range(n):
            yield sim.process(child(i))

    sim.process(parent())
    return _measure(sim.run, n, lambda: _engine_counts(sim))


def bench_engine_packet_read_64B() -> Result:
    """End-to-end uncached remote reads: the engine speed the packet
    tier actually sees (full RMC + fabric round trip per op)."""
    cluster, app = _packet_session()
    app.borrow_remote(2, mib(8))
    ptr = app.malloc(mib(4), Placement.REMOTE)
    app.read(ptr, 64, cached=False)  # warm tag/route state
    addrs = [ptr + (i % 512) * 4096 for i in range(400)]
    return _measure(_loop(functools.partial(app.read, cached=False), addrs, 64),
                    len(addrs), lambda: _packet_counts(cluster))


def bench_remote_read_host_calls() -> Result:
    """Host calls of uncached 64 B reads from a donor 3 hops away on the
    default cluster: the Fig. 6 access, 82 events each. Every Python
    call into ``src/repro`` is counted, so a change that adds or removes
    a frame anywhere on the sim/ht/noc/rmc/mem path shows here even
    when it moves no event. The host rate is taken under the profiler."""
    client, donor = 6, 12
    # sanitizer hooks are calls too: the count is of the unchecked path
    cluster = Cluster(debug=False)
    if cluster.hops(client, donor) != 3:
        raise RuntimeError("remote_read_host_calls expects its donor 3 hops away")
    app = cluster.session(client)
    app.borrow_remote(donor, mib(4))
    ptr = app.malloc(mib(2), Placement.REMOTE)
    rng = np.random.default_rng(10)
    addrs = [ptr + int(line) * 64 for line in rng.integers(0, mib(2) // 64, size=1_000)]
    for page in range(ptr, ptr + mib(2), PAGE_SIZE):
        app.aspace.translate(page)  # page-table walks stay off the count
    src = str(REPO_ROOT / "src" / "repro")
    calls = {"py": 0, "c": 0}

    def profile(frame, event, _arg):
        if event == "call":
            if frame.f_code.co_filename.startswith(src):
                calls["py"] += 1
        elif event == "c_call":
            calls["c"] += 1

    def run():
        # closing an earlier bench's abandoned process generators would
        # count as calls: collect them first, and let no collection run
        # inside the counted window
        gc.collect()
        gc.disable()
        read = app.read
        sys.setprofile(profile)
        try:
            for a in addrs:
                read(a, 64, cached=False)
        finally:
            sys.setprofile(None)
            gc.enable()

    res = _measure(run, len(addrs), lambda: {
        **_engine_counts(cluster.sim), "py_calls": calls["py"]})
    # the c_call of the setprofile(None) that ends the pass is not a read's
    return res._replace(note=f"c_calls={(calls['c'] - 1) / len(addrs)!r} (not gated)")


# ---------------------------------------------------------------------------
# MESI domain
# ---------------------------------------------------------------------------


def bench_coherence_domain_ops() -> Result:
    """Random reads and writes of 16 cores through one directory."""
    from repro.config import CacheConfig
    from repro.mem.cache import Cache
    from repro.mem.coherence import CoherenceDomain

    caches = [Cache(CacheConfig(), name=f"c{i}") for i in range(16)]
    domain = CoherenceDomain(caches)
    rng = np.random.default_rng(2)
    n = 4_096
    ops = list(zip(rng.integers(0, 2, size=n).tolist(),
                   rng.integers(0, 16, size=n).tolist(),
                   rng.integers(0, 10_000, size=n).tolist()))

    def run():
        read, write = domain.read, domain.write
        for is_write, core, line in ops:
            (write if is_write else read)(core, line)

    return _measure(run, n, lambda: {
        **dataclasses.asdict(domain.stats),
        "cache_misses": sum(c.stats.misses for c in caches),
    })


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

BENCHES: dict[str, Callable[[], Result]] = {
    "fast_tier_read_8B": bench_fast_tier_read_8B,
    "fast_tier_read_u64": bench_fast_tier_read_u64,
    "fast_tier_read_4K": bench_fast_tier_read_4K,
    "btree_search": lambda: _btree_search(batch=True),
    "btree_search_scalar": lambda: _btree_search(batch=False),
    "swap_btree_search": lambda: _swap_btree_search(batch=True),
    "swap_btree_search_scalar": lambda: _swap_btree_search(batch=False),
    "swap_btree_search_f16": lambda: _swap_btree_search(batch=True, children=16),
    "backing_read_8B": bench_backing_read_8B,
    "cached_read_4K": lambda: _page_reads(batch=True, coherent=False),
    "cached_read_4K_scalar": lambda: _page_reads(batch=False, coherent=False),
    "coherent_read_4K": lambda: _page_reads(batch=True, coherent=True),
    "coherent_read_4K_scalar": lambda: _page_reads(batch=False, coherent=True),
    "btree_packet_search": lambda: _packet_btree_search(batch=True),
    "btree_packet_search_scalar": lambda: _packet_btree_search(batch=False),
    "column_sum_fast": bench_column_sum_fast,
    "column_select_fast": bench_column_select_fast,
    "column_sum_packet": lambda: _column_sum_packet(batch=True),
    "column_sum_packet_scalar": lambda: _column_sum_packet(batch=False),
    "engine_timeout_throughput": bench_engine_timeout_throughput,
    "engine_store_handoff": bench_engine_store_handoff,
    "engine_resource_grant": bench_engine_resource_grant,
    "engine_process_spawn": bench_engine_process_spawn,
    "engine_packet_read_64B": bench_engine_packet_read_64B,
    "remote_read_host_calls": bench_remote_read_host_calls,
    "coherence_domain_ops": bench_coherence_domain_ops,
}

#: exact per-op work counts of one pass of each bench
EXPECTED: dict[str, dict] = {
    "fast_tier_read_8B": {
        "accesses": 1.0, "cache_misses": 0.87285, "time_ns": 108.86915},
    "fast_tier_read_u64": {
        "accesses": 1.0, "cache_misses": 0.873, "time_ns": 108.887},
    "fast_tier_read_4K": {
        "accesses": 64.0, "cache_misses": 56.752, "time_ns": 44870.32},
    "btree_search": {
        "accesses": 21.89925, "cache_misses": 3.65525, "time_ns": 2978.8675},
    # the per-node calls charge exactly what the one-call descent charges
    "btree_search_scalar": {
        "accesses": 21.89925, "cache_misses": 3.65525, "time_ns": 2978.8675},
    # about one fault per lookup: the root path stays resident, leaves churn
    "swap_btree_search": {
        "accesses": 21.8735, "cache_misses": 3.64475, "time_ns": 49144.21575,
        "swap_faults": 0.9565, "swap_evictions": 0.9405},
    # the per-node calls charge exactly what the one-call descent charges
    "swap_btree_search_scalar": {
        "accesses": 21.8735, "cache_misses": 3.64475, "time_ns": 49144.21575,
        "swap_faults": 0.9565, "swap_evictions": 0.9405},
    # pinned at the commit before the one-call descent; 7% of the nodes
    # visited (in one search of three) have a header straddling two
    # lines, so the descent takes the per-node calls there
    "swap_btree_search_f16": {
        "accesses": 26.1335, "cache_misses": 2.8825, "time_ns": 102149.68125,
        "swap_faults": 1.9995, "swap_evictions": 1.9835},
    "backing_read_8B": {"resident_bytes": 0.0, "digest": "86ee6ee1a6cafce8"},
    "cached_read_4K": {
        "events": 15.0, "sim_ns": 5138.5, "link_packets": 0.0,
        "cache_misses": 64.0},
    "cached_read_4K_scalar": {
        "events": 771.0, "sim_ns": 5138.5, "link_packets": 0.0,
        "cache_misses": 64.0},
    "coherent_read_4K": {
        "events": 16.0, "sim_ns": 6034.5, "link_packets": 0.0,
        "cache_misses": 64.0},
    "coherent_read_4K_scalar": {
        "events": 835.0, "sim_ns": 6034.5, "link_packets": 0.0,
        "cache_misses": 64.0},
    # one line per lookup step: batching has nothing to coalesce here
    "btree_packet_search": {
        "events": 68.672, "sim_ns": 240.996, "link_packets": 0.0,
        "cache_misses": 1.789},
    "btree_packet_search_scalar": {
        "events": 68.672, "sim_ns": 240.996, "link_packets": 0.0,
        "cache_misses": 1.789},
    "column_sum_fast": {
        "accesses": 0.125, "cache_misses": 0.125, "time_ns": 98.75},
    "column_select_fast": {
        "accesses": 0.125, "cache_misses": 0.125, "time_ns": 98.75},
    # 2,048 lines from 16 8 KiB DRAM rows: one row miss per row
    "column_sum_packet": {
        "events": 0.0069580078125, "sim_ns": 93.1689453125,
        "link_packets": 0.25, "cache_misses": 0.125,
        "dram_row_hits": 0.1240234375, "dram_row_misses": 0.0009765625},
    "column_sum_packet_scalar": {
        "events": 6.875244140625, "sim_ns": 93.1689453125,
        "link_packets": 0.25, "cache_misses": 0.125,
        "dram_row_hits": 0.1240234375, "dram_row_misses": 0.0009765625},
    "engine_timeout_throughput": {
        "events": 1.0000333333333333, "sim_ns": 1.0},
    "engine_store_handoff": {"events": 3.0002, "sim_ns": 0.0},
    "engine_resource_grant": {
        "events": 1.6668666666666667, "sim_ns": 0.6666666666666666},
    "engine_process_spawn": {"events": 3.0002, "sim_ns": 1.0},
    "engine_packet_read_64B": {
        "events": 57.9975, "sim_ns": 827.2375, "link_packets": 2.0,
        "cache_misses": 0.0},
    # 479 Python calls (and 501 C-builtin calls) per read before the
    # one-callable event, the in-place packet counters and the inlined
    # RMC pipe services
    "remote_read_host_calls": {
        "events": 81.0, "sim_ns": 1128.695, "py_calls": 374.0},
    "coherence_domain_ops": {
        "read_requests": 0.50439453125, "write_requests": 0.49560546875,
        "probes_sent": 14.853515625, "invalidations": 0.089111328125,
        "interventions": 0.087158203125, "cache_misses": 0.98974609375},
}


def main() -> int:
    missing = sorted(BENCHES.keys() - EXPECTED.keys())
    stale = sorted(EXPECTED.keys() - BENCHES.keys())
    if missing or stale:
        for name in missing:
            print(f"FAIL: bench {name} has no EXPECTED entry", file=sys.stderr)
        for name in stale:
            print(f"FAIL: EXPECTED entry {name} names no bench", file=sys.stderr)
        return 1

    failures = []
    for name, bench in BENCHES.items():
        res = bench()
        counts = " ".join(f"{k}={v!r}" for k, v in res.counts.items())
        floor = "" if res.speedup is None else f"  {res.speedup:.0f}x vs ref"
        note = f" {res.note}" if res.note else ""
        print(f"{name:<27} {res.ops / res.seconds:>12,.0f} ops/s{floor}\n"
              f"    {counts}{note}")
        want = EXPECTED[name]
        bad = sorted(k for k in want.keys() | res.counts.keys()
                     if res.counts.get(k) != want.get(k))
        if bad:
            failures.append(f"{name}: " + ", ".join(
                f"{k} {res.counts.get(k)!r} != expected {want.get(k)!r}"
                for k in bad))
        if res.speedup is not None and res.speedup < MIN_SPEEDUP_VS_REF:
            failures.append(f"{name}: {res.speedup:.1f}x vs its *_ref loop, "
                            f"below the {MIN_SPEEDUP_VS_REF:.0f}x floor")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
