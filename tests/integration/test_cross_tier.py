"""Cross-tier validation: the fast trace-driven tier must agree with
the packet-level tier on a common workload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.access import SessionAccessor
from repro.apps.btree import BTree
from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.config import ClusterConfig, NetworkConfig
from repro.mem.backing import BackingStore
from repro.model.fastsim import RemoteMemAccessor
from repro.model.latency import LatencyModel
from repro.sim.rng import stream
from repro.units import mib


@pytest.fixture(scope="module")
def setup():
    cfg = ClusterConfig(network=NetworkConfig(topology="line", dims=(2, 1)))
    cluster = Cluster(cfg)
    latency = LatencyModel.from_config(cfg)
    return cfg, cluster, latency


def test_uncached_random_reads_agree(setup):
    """Uncached line reads at random page-aligned remote addresses:
    tier-2 constant-latency model vs. tier-1 packet simulation."""
    cfg, cluster, latency = setup
    app = cluster.session(1)
    app.borrow_remote(2, mib(16))

    n = 150
    rng = stream(1, "xtier")
    offsets = rng.integers(0, mib(4) // 4096, size=n) * 4096

    packet_acc = SessionAccessor(app, capacity=mib(4),
                                 placement=Placement.REMOTE, cached=False)
    for off in offsets:  # warm translations
        packet_acc.read(int(off), 8)
    packet_acc.reset_clock()
    for off in offsets:
        packet_acc.read(int(off), 64)
    packet_ns = packet_acc.time_ns / n

    fast_acc = RemoteMemAccessor(latency, BackingStore(mib(16)),
                                 hops=1, use_cache=False)
    for off in offsets:
        fast_acc.read(int(off), 64)
    fast_ns = fast_acc.time_ns / n

    assert fast_ns == pytest.approx(packet_ns, rel=0.10)


def test_btree_search_times_agree(setup):
    """The same b-tree workload on both tiers lands within 15%."""
    cfg, cluster, latency = setup
    num_keys, searches, children = 20_000, 150, 64
    keys = np.sort(
        stream(7, "xtier_keys").choice(
            np.arange(1, num_keys * 8, dtype=np.uint64),
            size=num_keys, replace=False,
        )
    )
    queries = stream(7, "xtier_q").integers(1, num_keys * 8, size=searches,
                                            dtype=np.uint64)

    app = cluster.session(1)
    app.borrow_remote(2, mib(32))
    packet_acc = SessionAccessor(app, capacity=mib(16),
                                 placement=Placement.REMOTE, cached=False)
    tree1 = BTree(packet_acc, children=children)
    tree1.bulk_load(keys)
    packet_acc.reset_clock()
    hits1 = sum(tree1.search(int(q)) for q in queries)
    packet_ns = packet_acc.time_ns / searches

    fast_acc = RemoteMemAccessor(latency, BackingStore(mib(64)),
                                 hops=1, use_cache=False)
    tree2 = BTree(fast_acc, children=children)
    tree2.bulk_load(keys)
    fast_acc.reset_clock()
    hits2 = sum(tree2.search(int(q)) for q in queries)
    fast_ns = fast_acc.time_ns / searches

    assert hits1 == hits2  # functional agreement is exact
    assert fast_ns == pytest.approx(packet_ns, rel=0.15)


def test_functional_results_identical_across_tiers(setup):
    """Same seed -> bit-identical b-tree answers on both tiers."""
    cfg, cluster, latency = setup
    keys = np.arange(10, 5000, 7, dtype=np.uint64)

    app = cluster.session(1)
    app.borrow_remote(2, mib(16))
    acc1 = SessionAccessor(app, capacity=mib(8), placement=Placement.REMOTE)
    t1 = BTree(acc1, children=16)
    t1.bulk_load(keys)

    acc2 = RemoteMemAccessor(latency, BackingStore(mib(32)))
    t2 = BTree(acc2, children=16)
    t2.bulk_load(keys)

    probes = np.arange(1, 2000, 13)
    answers1 = [t1.search(int(p)) for p in probes]
    answers2 = [t2.search(int(p)) for p in probes]
    assert answers1 == answers2


def test_zero_count_typed_accesses_agree(setup):
    """A zero-count typed access is free on every tier: an empty array
    of the requested dtype, no simulated time, no access counted."""
    cfg, cluster, latency = setup
    app = cluster.session(1)
    app.borrow_remote(2, mib(4))
    accessors = [
        SessionAccessor(app, capacity=mib(1), placement=Placement.REMOTE),
        SessionAccessor(app, capacity=mib(1), placement=Placement.REMOTE,
                        cached=False),
        RemoteMemAccessor(latency, BackingStore(mib(4))),
    ]
    for acc in accessors:
        acc.write_u64(64, 7)
        acc.reset_clock()
        for got in (acc.read_array(64, 0, np.uint64),
                    acc.view_array(64, 0, np.uint64)):
            assert got.size == 0 and got.dtype == np.uint64
        acc.write_array(64, np.empty(0, dtype=np.uint64))
        assert acc.time_ns == 0
        assert acc.accesses == 0
        assert acc.read_u64(64) == 7
