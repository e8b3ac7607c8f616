#!/usr/bin/env python
"""Simulator performance guard: fast tier, packet tier AND engine tier.

Measures host-side simulation throughput on the hot paths of every
layer (plain ``perf_counter`` loops, no plugin needed) and **exits
non-zero if any path regressed more than 30%** against the
``baseline_ops_per_sec`` committed in ``BENCH_fasttier.json`` /
``BENCH_packettier.json`` / ``BENCH_columnartier.json`` /
``BENCH_enginetier.json`` at the repository root — run it before
committing changes that touch ``sim/``, ``mem/``, ``model/``, ``ht/``,
``rmc/`` or ``cluster/``. An ordinary run leaves the committed files
alone: it writes its rates to the untracked ``.perf_guard-last.json``.

Usage::

    PYTHONPATH=src python benchmarks/perf_guard.py                # check all
    PYTHONPATH=src python benchmarks/perf_guard.py --update-baseline
    PYTHONPATH=src python benchmarks/perf_guard.py --update-baseline packettier

``--update-baseline`` promotes this run's rates to the committed
baseline for every suite, or for just the named one, and is the only
way the ``BENCH_*.json`` files are written (do this when a deliberate
change moves the numbers; commit the resulting JSON). Each
file also keeps ``seed_ops_per_sec`` — the rates of the original
per-line scalar implementation — so the speedup of the batched data
path stays visible (``speedup_vs_seed``). For the packet tier the seed
is the live scalar path of a ``Cluster(config, batch=False)``: it is
measured whenever the committed file lacks it, and recorded by
``--update-baseline``. For
the engine tier the seed is the pre-rework heapq-only engine,
measured once with these exact bench bodies before the bucketed-queue
rework landed and committed as a constant (that implementation no longer exists in the tree; the
``queue="heapq"`` reference mode shares the rework's other
optimisations, so it is *not* the seed).
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
REGRESSION_TOLERANCE = 0.30
#: where an ordinary run records its rates (untracked, see .gitignore)
LAST_RUN_FILE = REPO_ROOT / ".perf_guard-last.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster.cluster import Cluster  # noqa: E402
from repro.cluster.malloc import Placement  # noqa: E402
from repro.config import ClusterConfig, NetworkConfig  # noqa: E402
from repro.mem.backing import BackingStore  # noqa: E402
from repro.model.fastsim import LocalMemAccessor, RemoteMemAccessor  # noqa: E402
from repro.model.latency import LatencyModel  # noqa: E402
from repro.units import PAGE_SIZE, mib  # noqa: E402


def _rate(fn, ops: int, repeats: int = 3) -> float:
    """Median ops/sec over *repeats* runs.

    The median (rather than the old min-wall-time) absorbs one-off
    scheduler hiccups in either direction, so committed baselines move
    less between otherwise identical runs.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return ops / statistics.median(times)


def _page_addrs(n: int, seed: int = 0) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(a) * PAGE_SIZE for a in rng.integers(0, 4000, size=n)]


# ---------------------------------------------------------------------------
# Fast tier
# ---------------------------------------------------------------------------


def bench_fast_tier_read_8B() -> float:
    lat = LatencyModel.from_config(ClusterConfig())
    addrs = _page_addrs(20_000)
    acc = LocalMemAccessor(lat, BackingStore(mib(64)))

    def run():
        read = acc.read
        for a in addrs:
            read(a, 8)

    return _rate(run, len(addrs))


def bench_fast_tier_read_u64() -> float:
    lat = LatencyModel.from_config(ClusterConfig())
    addrs = _page_addrs(20_000, seed=1)
    acc = LocalMemAccessor(lat, BackingStore(mib(64)))

    def run():
        read = acc.read_u64
        for a in addrs:
            read(a)

    return _rate(run, len(addrs))


def bench_fast_tier_read_4K() -> float:
    """Page-sized reads: 64 lines per op through the span path."""
    lat = LatencyModel.from_config(ClusterConfig())
    addrs = _page_addrs(4_000, seed=2)
    acc = RemoteMemAccessor(lat, BackingStore(mib(64)))

    def run():
        read = acc.read
        for a in addrs:
            read(a, PAGE_SIZE)

    return _rate(run, len(addrs))


def bench_btree_search() -> float:
    from repro.apps.btree import BTree

    lat = LatencyModel.from_config(ClusterConfig())
    acc = RemoteMemAccessor(lat, BackingStore(1 << 28))
    tree = BTree(acc, children=168)
    tree.bulk_load(np.arange(1, 200_001, dtype=np.uint64))
    rng = np.random.default_rng(3)
    queries = [int(q) for q in rng.integers(1, 200_001, size=4_000)]

    def run():
        search = tree.search
        for q in queries:
            search(q)

    return _rate(run, len(queries))


def bench_backing_read_8B() -> float:
    bs = BackingStore(mib(64))
    bs.write(0, bytes(mib(1)))
    addrs = [a % mib(1) for a in _page_addrs(20_000, seed=4)]

    def run():
        read = bs.read
        for a in addrs:
            read(a, 8)

    return _rate(run, len(addrs))


# ---------------------------------------------------------------------------
# Packet tier
# ---------------------------------------------------------------------------


def _packet_session(batch: bool = True):
    cfg = ClusterConfig(network=NetworkConfig(topology="line", dims=(2, 1)))
    cluster = Cluster(cfg, batch=batch)
    return cluster, cluster.session(1)


def bench_packet_cached_read_4K(batch: bool = True) -> float:
    """Cold page-sized cached reads: 64-line miss bursts per op."""
    _, app = _packet_session(batch)
    npages = 192
    regions = [
        app.malloc(npages * PAGE_SIZE, Placement.LOCAL) for _ in range(4)
    ]
    it = iter(regions)

    def run():
        base = next(it)
        read = app.read
        for i in range(npages):
            read(base + i * PAGE_SIZE, PAGE_SIZE)

    return _rate(run, npages)


def bench_packet_coherent_read_4K(batch: bool = True) -> float:
    """Cold page-sized reads through the MESI domain's span path."""
    _, app = _packet_session(batch)
    npages = 192
    regions = [
        app.malloc(npages * PAGE_SIZE, Placement.LOCAL) for _ in range(4)
    ]
    it = iter(regions)

    def run():
        base = next(it)
        read = app.coherent_read
        for i in range(npages):
            read(base + i * PAGE_SIZE, PAGE_SIZE)

    return _rate(run, npages)


class _SessionAccessor:
    """Accessor-protocol adapter: a B-tree over the packet tier."""

    def __init__(self, app) -> None:
        self.app = app

    def read(self, addr: int, size: int) -> bytes:
        return self.app.read(addr, size)

    def write(self, addr: int, data: bytes) -> None:
        self.app.write(addr, data)

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, int(value).to_bytes(8, "little"))

    def read_array(self, addr: int, count: int, dtype) -> np.ndarray:
        dt = np.dtype(dtype)
        return np.frombuffer(self.read(addr, count * dt.itemsize), dt).copy()

    def write_array(self, addr: int, values: np.ndarray) -> None:
        self.write(addr, np.ascontiguousarray(values).tobytes())

    def bulk_write(self, addr: int, data) -> None:
        self.app.bulk_write(addr, bytes(data))

    def compute(self, ns: float) -> None:
        pass  # search paths charge no compute


def bench_packet_btree_search(batch: bool = True) -> float:
    """Database-style point lookups with every byte moved through real
    packets; nodes cache quickly, so this guards the single-line path."""
    from repro.apps.btree import BTree
    from repro.model.fastsim import BumpAllocator

    _, app = _packet_session(batch)
    base = app.malloc(mib(2), Placement.LOCAL)
    acc = _SessionAccessor(app)
    tree = BTree(acc, children=168, arena=BumpAllocator(mib(2), base=base))
    tree.bulk_load(np.arange(1, 20_001, dtype=np.uint64))
    rng = np.random.default_rng(5)
    queries = [int(q) for q in rng.integers(1, 20_001, size=1_000)]

    def run():
        search = tree.search
        for q in queries:
            search(q)

    return _rate(run, len(queries))


# ---------------------------------------------------------------------------
# Columnar tier
# ---------------------------------------------------------------------------


def _fast_column(n: int = 65_536, seed: int = 7):
    """A remote fast-tier accessor holding an *n*-element uint64 column."""
    from repro.apps.columnar import Column

    lat = LatencyModel.from_config(ClusterConfig())
    acc = RemoteMemAccessor(lat, BackingStore(mib(4)), hops=1)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
    acc.bulk_write(0, data.tobytes())
    return acc, Column(0, n, "uint64")


def bench_column_sum_fast() -> float:
    """Whole-column aggregate through zero-copy windows (fast tier);
    ops/sec counts *elements*, so the seed ratio is the O(elements) ->
    O(windows) host-work drop the columnar plane exists for."""
    from repro.apps.columnar import ColumnScan

    acc, col = _fast_column()
    scan = ColumnScan(acc)
    return _rate(lambda: scan.sum(col), col.count)


def bench_column_sum_fast_seed() -> float:
    """Per-element `read_u64` loop over the same column — the scalar
    data plane every accessor offered before this tier existed."""
    from repro.apps.columnar import scan_sum_ref

    acc, col = _fast_column()
    return _rate(lambda: scan_sum_ref(acc, col), col.count)


def bench_column_select_fast() -> float:
    """Filter + selection-vector build through the same windows."""
    from repro.apps.columnar import ColumnScan

    acc, col = _fast_column(seed=8)
    scan = ColumnScan(acc)
    return _rate(lambda: scan.select(col, 1 << 20, 1 << 31), col.count)


def bench_column_select_fast_seed() -> float:
    from repro.apps.columnar import select_ref

    acc, col = _fast_column(seed=8)
    return _rate(lambda: select_ref(acc, col, 1 << 20, 1 << 31), col.count)


def _packet_column(n: int = 16_384, seed: int = 9):
    from repro.apps.access import SessionAccessor
    from repro.apps.columnar import Column

    cluster, app = _packet_session()
    app.borrow_remote(2, mib(8))
    acc = SessionAccessor(app, n * 8, placement=Placement.REMOTE)
    rng = np.random.default_rng(seed)
    acc.bulk_write(0, rng.integers(0, 1 << 32, size=n, dtype=np.uint64).tobytes())
    return acc, Column(0, n, "uint64")


def bench_column_sum_packet() -> float:
    """Whole-column remote aggregate with every byte riding real burst
    packets — the O(bursts) event path end to end."""
    from repro.apps.columnar import ColumnScan

    acc, col = _packet_column()
    scan = ColumnScan(acc)
    return _rate(lambda: scan.sum(col), col.count)


def bench_column_sum_packet_seed() -> float:
    from repro.apps.columnar import scan_sum_ref

    acc, col = _packet_column()
    return _rate(lambda: scan_sum_ref(acc, col), col.count)


# ---------------------------------------------------------------------------
# Engine tier
# ---------------------------------------------------------------------------


def bench_engine_timeout_throughput() -> float:
    """Chained timeouts: the dominant event class, pure engine work."""
    from repro.sim.engine import Simulator

    n = 30_000

    def run():
        sim = Simulator()

        def ticker():
            for _ in range(n):
                yield sim.timeout(1.0)

        sim.process(ticker())
        sim.run()
        assert sim.now == float(n)

    return _rate(run, n)


def bench_engine_store_handoff() -> float:
    """Producer/consumer rendezvous through a Store: the callback-heavy
    succeed/resume path every queueing model leans on."""
    from repro.sim.engine import Simulator
    from repro.sim.resources import Store

    n = 10_000

    def run():
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
        sim.run()

    return _rate(run, n)


def bench_engine_packet_read_64B() -> float:
    """End-to-end uncached remote reads: the engine speed the packet
    tier actually sees (full RMC + fabric round trip per op)."""
    _, app = _packet_session()
    app.borrow_remote(2, mib(8))
    ptr = app.malloc(mib(4), Placement.REMOTE)
    nreads = 400
    app.read(ptr, 64, cached=False)  # warm tag/route state

    def run():
        read = app.read
        for i in range(nreads):
            read(ptr + (i % 512) * 4096, 64, cached=False)

    return _rate(run, nreads)


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

#: suite -> (json file, {bench name: measured fn}, {bench name: seed fn})
#: A seed fn measures the scalar reference path; it runs only when the
#: suite file does not already record a seed for that bench.
SUITES: dict = {
    "fasttier": (
        REPO_ROOT / "BENCH_fasttier.json",
        {
            "fast_tier_read_8B": bench_fast_tier_read_8B,
            "fast_tier_read_u64": bench_fast_tier_read_u64,
            "fast_tier_read_4K": bench_fast_tier_read_4K,
            "btree_search": bench_btree_search,
            "backing_read_8B": bench_backing_read_8B,
        },
        {},
    ),
    "packettier": (
        REPO_ROOT / "BENCH_packettier.json",
        {
            "cached_read_4K": bench_packet_cached_read_4K,
            "coherent_read_4K": bench_packet_coherent_read_4K,
            "btree_packet_search": bench_packet_btree_search,
        },
        {
            "cached_read_4K": functools.partial(
                bench_packet_cached_read_4K, batch=False
            ),
            "coherent_read_4K": functools.partial(
                bench_packet_coherent_read_4K, batch=False
            ),
            "btree_packet_search": functools.partial(
                bench_packet_btree_search, batch=False
            ),
        },
    ),
    # The columnar tier's committed `min_speedup_vs_seed` (10x) turns
    # the seed ratio into a gate: windows must stay an order of
    # magnitude faster than the per-element read_u64 loops they replace.
    "columnartier": (
        REPO_ROOT / "BENCH_columnartier.json",
        {
            "column_sum_fast": bench_column_sum_fast,
            "column_select_fast": bench_column_select_fast,
            "column_sum_packet": bench_column_sum_packet,
        },
        {
            "column_sum_fast": bench_column_sum_fast_seed,
            "column_select_fast": bench_column_select_fast_seed,
            "column_sum_packet": bench_column_sum_packet_seed,
        },
    ),
    # The engine-tier seed is NOT a seed fn: it is the pre-rework
    # heapq-only engine, which no longer exists in the tree. Its rates
    # (measured with these exact bench bodies immediately before the
    # bucketed-queue rework) are committed in BENCH_enginetier.json's
    # seed_ops_per_sec and must not be regenerated.
    "enginetier": (
        REPO_ROOT / "BENCH_enginetier.json",
        {
            "engine_timeout_throughput": bench_engine_timeout_throughput,
            "engine_store_handoff": bench_engine_store_handoff,
            "engine_packet_read_64B": bench_engine_packet_read_64B,
        },
        {},
    ),
}


def run_suite(suite: str, update: bool) -> tuple[list, dict]:
    """Measure one suite; returns its failures and this run's rates.

    The suite's committed file is rewritten only when *update* is set.
    """
    bench_file, benches, seed_fns = SUITES[suite]
    doc = json.loads(bench_file.read_text()) if bench_file.exists() else {}
    baseline = doc.get("baseline_ops_per_sec", {})
    seed = doc.get("seed_ops_per_sec", {})

    for name, fn in seed_fns.items():
        if name not in seed:
            print(f"[{suite}] measuring scalar seed for {name} ...")
            seed[name] = round(fn(), 1)

    measured = {}
    failures = []
    print(f"-- {suite} " + "-" * (58 - len(suite)))
    print(f"{'path':<22} {'ops/sec':>12} {'baseline':>12} {'vs seed':>9}")
    for name, fn in benches.items():
        rate = fn()
        measured[name] = round(rate, 1)
        base = baseline.get(name)
        speedup = rate / seed[name] if name in seed else float("nan")
        flag = ""
        if base and rate < base * (1.0 - REGRESSION_TOLERANCE):
            failures.append((name, rate, base))
            flag = "  << REGRESSION"
        print(f"{name:<22} {rate:>12,.0f} "
              f"{base or float('nan'):>12,.0f} {speedup:>8.2f}x{flag}")

    speedups = {
        k: round(v / seed[k], 2) for k, v in measured.items() if k in seed
    }
    min_speedup = doc.get("min_speedup_vs_seed")
    if min_speedup:
        for k, v in measured.items():
            if k in seed and v < seed[k] * min_speedup:
                failures.append(
                    (f"{k} (vs {min_speedup:.0f}x seed)", v,
                     seed[k] * min_speedup)
                )
    if update:
        doc["seed_ops_per_sec"] = seed
        doc["measured_ops_per_sec"] = measured
        doc["speedup_vs_seed"] = speedups
        doc["baseline_ops_per_sec"] = measured
        bench_file.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"[{suite}] baseline updated: wrote "
              f"{bench_file.relative_to(REPO_ROOT)}")
    elif not baseline:
        print(f"[{suite}] no committed baseline; run with "
              f"--update-baseline {suite} to record one")
    return failures, {
        "measured_ops_per_sec": measured,
        "speedup_vs_seed": speedups,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update-baseline",
        nargs="?",
        const="all",
        choices=["all", *SUITES],
        help="promote this run's rates to the committed baseline, for "
        "every suite (no value / 'all') or just the named one",
    )
    args = parser.parse_args()

    failures = []
    last_run = {}
    for suite in SUITES:
        update = args.update_baseline in ("all", suite)
        suite_failures, last_run[suite] = run_suite(suite, update)
        failures += suite_failures
    LAST_RUN_FILE.write_text(json.dumps(last_run, indent=2, sort_keys=True) + "\n")
    print(f"wrote {LAST_RUN_FILE.relative_to(REPO_ROOT)}")

    if failures:
        for name, rate, base in failures:
            print(
                f"FAIL: {name} at {rate:,.0f} ops/s is "
                f"{(1 - rate / base) * 100:.0f}% below baseline {base:,.0f}",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
