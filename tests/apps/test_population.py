"""Untimed population: building a workload moves no simulated clock.

``MiniDB`` and ``HashIndex.bulk_insert`` fill simulated memory through
the accessors' ``bulk_read``/``bulk_write`` pair. Over the packet tier
that must schedule no events, advance no time, count no accessor
calls and touch no cache — set-up is not part of any measurement.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.access import SessionAccessor, TraceRecorder
from repro.apps.database import MiniDB
from repro.apps.hashindex import HashIndex
from repro.cluster.malloc import Placement
from repro.config import ClusterConfig
from repro.errors import ConfigError
from repro.mem.backing import BackingStore
from repro.model.fastsim import LocalMemAccessor
from repro.model.latency import LatencyModel
from repro.sim.rng import stream
from repro.units import mib


@pytest.fixture
def lat():
    return LatencyModel.from_config(ClusterConfig())


def _cache_accesses(cluster) -> int:
    return sum(
        cache.stats.accesses
        for node in cluster.nodes.values()
        for cache in node.caches
    )


class TestMiniDBOverPacketTier:
    ROWS = 2_000

    @pytest.fixture
    def built(self, small_cluster):
        sess = small_cluster.session(1)
        sess.borrow_remote(2, mib(5))
        acc = SessionAccessor(sess, mib(4), Placement.REMOTE)
        sim = small_cluster.sim
        before = (sim.events_scheduled, sim.now, acc.accesses,
                  _cache_accesses(small_cluster))
        db = MiniDB(acc, num_rows=self.ROWS, seed=3)
        after = (sim.events_scheduled, sim.now, acc.accesses,
                 _cache_accesses(small_cluster))
        return db, before, after

    def test_population_is_untimed(self, built):
        _db, before, after = built
        # events scheduled, simulated now, accessor calls, cache accesses
        assert after == before

    def test_query_answers(self, built):
        db, _, _ = built
        payload = stream(3, "minidb_rows").bytes(db.row_bytes - 8)
        for key in (1, 2, 977, self.ROWS):
            assert db.point_select(key) == key.to_bytes(8, "little") + payload
        assert db.point_select(self.ROWS + 1) is None
        assert db.range_select(10, 138) == 128
        assert db.range_select(self.ROWS - 5, self.ROWS + 50) == 6
        assert db.full_scan() == self.ROWS


class TestHashIndexBulkInsert:
    def _index(self, lat, capacity=24):
        acc = LocalMemAccessor(lat, BackingStore(1 << 20))
        return HashIndex(acc, capacity=capacity)

    def test_matches_sequential_insert_after_timed_inserts(self, lat):
        keys = np.arange(1, 25, dtype=np.uint64) * np.uint64(7919)
        values = keys + np.uint64(1_000_000)

        bulk = self._index(lat)
        for k, v in zip(keys[:6].tolist(), values[:6].tolist()):
            bulk.insert(k, v)
        bulk.bulk_insert(keys[6:], values[6:])

        seq = self._index(lat)
        for k, v in zip(keys.tolist(), values.tolist()):
            seq.insert(k, v)

        assert bulk.num_keys == seq.num_keys == keys.size
        image = bulk.accessor.backing.read(bulk.base, bulk.table_bytes)
        assert image == seq.accessor.backing.read(seq.base, seq.table_bytes)
        for k, v in zip(keys.tolist(), values.tolist()):
            assert bulk.lookup(k) == v
        # a table this full pushes some bulk-inserted keys past their
        # home slot, so the bulk path really probed over occupied slots
        slots = np.frombuffer(image, dtype="<u8")[::2].tolist()
        displaced = [k for k in keys[6:].tolist() if slots[bulk._slot_of(k)] != k]
        assert displaced

    def test_duplicate_raises(self, lat):
        idx = self._index(lat)
        idx.insert(5, 50)
        with pytest.raises(ConfigError, match="duplicate"):
            idx.bulk_insert(np.array([9, 5]), np.array([90, 55]))
        with pytest.raises(ConfigError, match="duplicate"):
            idx.bulk_insert(np.array([11, 11]), np.array([1, 2]))
        with pytest.raises(ConfigError, match="empty marker"):
            idx.bulk_insert(np.array([0]), np.array([1]))


def test_trace_recorder_bulk_read_passes_through(lat):
    inner = LocalMemAccessor(lat, BackingStore(1 << 20))
    inner.bulk_write(4000, b"population")
    rec = TraceRecorder(inner)
    assert rec.bulk_read(4000, 10) == b"population"
    assert rec.trace == []
    assert inner.time_ns == 0.0
