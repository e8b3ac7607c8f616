"""Tests for accessor adapters and the trace recorder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.access import SessionAccessor, TraceRecorder
from repro.cluster.malloc import Placement
from repro.config import ClusterConfig
from repro.errors import AddressError, RemoteAccessError
from repro.mem.backing import BackingStore
from repro.model.fastsim import (
    BTREE_HEADER,
    BTREE_HEADER_BYTES,
    LocalMemAccessor,
    btree_child_addr,
)
from repro.model.latency import LatencyModel
from repro.units import mib


@pytest.fixture
def lat():
    return LatencyModel.from_config(ClusterConfig())


class TestSessionAccessor:
    def test_functional_roundtrip(self, small_cluster):
        app = small_cluster.session(1)
        app.borrow_remote(2, mib(8))
        acc = SessionAccessor(app, capacity=mib(2),
                              placement=Placement.REMOTE)
        acc.write(100, b"abc")
        assert acc.read(100, 3) == b"abc"
        acc.write_u64(0, 77)
        assert acc.read_u64(0) == 77

    def test_time_is_simulated_time(self, small_cluster):
        app = small_cluster.session(1)
        app.borrow_remote(2, mib(8))
        acc = SessionAccessor(app, capacity=mib(1),
                              placement=Placement.REMOTE, cached=False)
        assert acc.time_ns == 0.0
        acc.read(0, 64)
        assert acc.time_ns > 0
        acc.reset_clock()
        assert acc.time_ns == 0.0

    def test_bulk_write_untimed_and_visible(self, small_cluster):
        app = small_cluster.session(1)
        acc = SessionAccessor(app, capacity=mib(1),
                              placement=Placement.LOCAL)
        t0 = acc.time_ns
        payload = bytes(range(256)) * 64  # spans multiple pages
        acc.bulk_write(3000, payload)
        assert acc.time_ns == t0
        assert acc.read(3000, len(payload)) == payload

    def test_bulk_write_heals_lost_lines(self, small_cluster):
        app = small_cluster.session(1)
        app.borrow_remote(2, mib(2))
        acc = SessionAccessor(app, capacity=mib(1),
                              placement=Placement.REMOTE)
        page = app.aspace.page_bytes
        pv = acc.base
        pte = app.aspace.page_table.lookup(pv // page)
        # as recovery does after a donor death: the page is rebuilt but
        # two of its lines had no recoverable copy
        lost = (pv, pv + page - 64)
        app.aspace.repoint_page(pv, pte.phys_page, lost_lines=lost, donor=2)
        with pytest.raises(RemoteAccessError):
            acc.read(0, page)
        with pytest.raises(RemoteAccessError):
            acc.bulk_read(0, page)
        payload = bytes(range(256)) * (page // 256)
        acc.bulk_write(0, payload)
        assert app.aspace.lost_lines() == []
        assert acc.read(0, page) == payload
        assert acc.bulk_read(0, page) == payload

    def test_bulk_read_untimed_across_pages(self, small_cluster):
        app = small_cluster.session(1)
        app.borrow_remote(2, mib(2))
        acc = SessionAccessor(app, capacity=mib(1),
                              placement=Placement.REMOTE)
        payload = bytes(range(256)) * 64  # spans multiple pages
        acc.write(3000, payload)
        sim = small_cluster.sim
        before = (sim.events_scheduled, sim.now, acc.accesses)
        assert acc.bulk_read(3000, len(payload)) == payload
        assert (sim.events_scheduled, sim.now, acc.accesses) == before

    def test_compute_advances_clock(self, small_cluster):
        app = small_cluster.session(1)
        acc = SessionAccessor(app, capacity=mib(1),
                              placement=Placement.LOCAL)
        acc.compute(500.0)
        assert acc.time_ns == pytest.approx(500.0)

    def test_search_btree_schedules_the_per_call_events(self, small_config):
        """``search_btree`` on the packet tier is the per-node loop of
        header read, key search and child read: a twin cluster running
        that loop by hand schedules the same events, ends at the same
        simulated ns and gets the same answers."""
        from repro.apps.btree import BTree
        from repro.cluster.cluster import Cluster

        keys = np.arange(1, 4_001, dtype=np.uint64) * np.uint64(2)
        queries = [1, 2, 3, 4_000, 4_001, 8_000, 8_001, 5_554]

        def per_call(acc, node, key, max_keys):
            visited = probes = 0
            while True:
                visited += 1
                count, is_leaf = BTREE_HEADER.unpack(
                    acc.read(node, BTREE_HEADER_BYTES))
                idx, found, p = acc.search_u64(
                    node + BTREE_HEADER_BYTES, count, key)
                probes += p
                if found or is_leaf:
                    return found, visited, probes
                node = acc.read_u64(btree_child_addr(node, max_keys, idx))

        runs = []
        for one_call in (True, False):
            cluster = Cluster(small_config)
            app = cluster.session(1)
            app.borrow_remote(2, mib(4))
            acc = SessionAccessor(app, capacity=mib(2),
                                  placement=Placement.REMOTE)
            tree = BTree(acc, children=16)
            tree.bulk_load(keys)
            search = acc.search_btree if one_call else (
                lambda root, key, mk, acc=acc: per_call(acc, root, key, mk))
            answers = [search(tree.root_addr, q, tree.max_keys) for q in queries]
            runs.append((answers, cluster.sim.events_scheduled,
                         cluster.sim.now, acc.accesses))
        assert runs[0] == runs[1]
        assert [a[0] for a in runs[0][0]] == [q % 2 == 0 for q in queries]

    def test_array_helpers(self, small_cluster):
        app = small_cluster.session(1)
        acc = SessionAccessor(app, capacity=mib(1),
                              placement=Placement.LOCAL)
        values = np.arange(100, dtype=np.uint64)
        acc.write_array(0, values)
        assert (acc.read_array(0, 100, np.uint64) == values).all()


class TestTraceRecorder:
    def test_records_reads_and_writes(self, lat):
        inner = LocalMemAccessor(lat, BackingStore(1 << 20))
        rec = TraceRecorder(inner)
        rec.write(0, b"xy")
        rec.read(64, 8)
        rec.read_u64(128)
        assert [(e.addr, e.is_write) for e in rec.trace] == [
            (0, True),
            (64, False),
            (128, False),
        ]
        assert rec.accesses == inner.accesses
        assert rec.time_ns == inner.time_ns

    def test_functional_passthrough(self, lat):
        rec = TraceRecorder(LocalMemAccessor(lat, BackingStore(1 << 20)))
        rec.write_u64(8, 99)
        assert rec.read_u64(8) == 99

    def test_max_entries_cap(self, lat):
        rec = TraceRecorder(
            LocalMemAccessor(lat, BackingStore(1 << 20)), max_entries=2
        )
        for i in range(5):
            rec.read(i * 64, 8)
        assert len(rec.trace) == 2

    def test_unique_pages(self, lat):
        rec = TraceRecorder(LocalMemAccessor(lat, BackingStore(1 << 20)))
        rec.read(0, 8)
        rec.read(100, 8)
        rec.read(5000, 8)
        assert rec.unique_pages(4096) == 2

    def test_bulk_write_not_traced(self, lat):
        rec = TraceRecorder(LocalMemAccessor(lat, BackingStore(1 << 20)))
        rec.bulk_write(0, bytes(100))
        assert rec.trace == []

    def test_records_only_accesses_that_happen(self, lat):
        """A rejected access raises before it is recorded, and a
        zero-count typed access, which no tier counts, is not recorded."""
        rec = TraceRecorder(LocalMemAccessor(lat, BackingStore(64 * 1024)))
        with pytest.raises(AddressError):
            rec.read_u64(1 << 20)
        with pytest.raises(OverflowError):
            rec.write_u64(64, -1)
        assert rec.read_array(0, 0, np.uint64).size == 0
        assert rec.view_array(0, 0, np.uint64).size == 0
        rec.write_array(128, np.empty(0, dtype=np.uint64))
        assert rec.trace == [] and rec.unique_pages() == 0
        assert rec.accesses == 0

    def test_search_records_each_probe(self, lat):
        inner = LocalMemAccessor(lat, BackingStore(1 << 20))
        inner.bulk_write(4096, np.arange(1, 101, dtype=np.uint64).tobytes())
        rec = TraceRecorder(inner)
        idx, found, probes = rec.search_u64(4096, 100, 42)
        assert (idx, found) == (41, True)
        assert len(rec.trace) == probes == inner.accesses
        assert all(e.size == 8 and not e.is_write for e in rec.trace)
        assert rec.trace[0].addr == 4096 + 8 * 50
        # probes run in order, so a search off the end of the store
        # records exactly the probes made before the one that raised
        with pytest.raises(AddressError):
            rec.search_u64((1 << 20) - 80, 16, 1 << 70)
        assert len(rec.trace) == inner.accesses == probes + 1

    def test_search_btree_records_each_access(self, lat):
        """Per node a 16 B header, then 8 B per key probe, then 8 B for
        the child pointer below every node but the last: the trace is
        the spec's per-node calls, one entry per access."""
        from repro.apps.btree import BTree

        inner = LocalMemAccessor(lat, BackingStore(1 << 22))
        rec = TraceRecorder(inner)
        tree = BTree(rec, children=168)
        tree.bulk_load(np.arange(1, 60_001, dtype=np.uint64) * np.uint64(2))
        assert tree.height == 2
        for key in (1, 2, 77_777, 120_000, 120_001):
            rec.trace.clear()
            inner.reset_clock()
            tree.reset_stats()
            found = tree.search(key)
            st = tree.stats
            sizes = [e.size for e in rec.trace]
            assert found == (key % 2 == 0 and key <= 120_000)
            assert sizes.count(16) == st.nodes_visited
            assert sizes.count(8) == st.key_probes + st.nodes_visited - 1
            assert len(sizes) == inner.accesses
            assert rec.trace[0].addr == tree.root_addr and sizes[0] == 16
            assert not any(e.is_write for e in rec.trace)
            # a node's probes come between its header and its child read
            headers = [i for i, size in enumerate(sizes) if size == 16]
            for j in headers[1:]:
                child = rec.trace[j - 1].addr
                assert inner.bulk_read(child, 8) == rec.trace[j].addr.to_bytes(
                    8, "little")
