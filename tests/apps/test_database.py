"""Tests for the mini in-memory database (Section VI objective)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.database import MiniDB
from repro.config import ClusterConfig
from repro.errors import ConfigError
from repro.mem.backing import BackingStore
from repro.model.fastsim import (
    LocalMemAccessor,
    RemoteMemAccessor,
    SwapAccessor,
)
from repro.model.latency import LatencyModel
from repro.swap.remoteswap import RemoteSwap


@pytest.fixture
def lat():
    return LatencyModel.from_config(ClusterConfig())


def make_db(lat, rows=2_000, **kw):
    acc = LocalMemAccessor(lat, BackingStore(1 << 26))
    return MiniDB(acc, num_rows=rows, **kw)


class TestQueries:
    def test_point_select_returns_the_row(self, lat):
        db = make_db(lat)
        row = db.point_select(42)
        assert row is not None
        assert int.from_bytes(row[:8], "little") == 42
        assert len(row) == db.row_bytes

    def test_point_select_missing_key(self, lat):
        db = make_db(lat, rows=100)
        # key 0 is invalid for the hash index; beyond-range keys miss
        assert db.point_select(101) is None

    def test_range_select_counts(self, lat):
        db = make_db(lat, rows=500)
        assert db.range_select(10, 20) == 10
        assert db.range_select(495, 600) == 6  # clipped at the table end
        with pytest.raises(ConfigError):
            db.range_select(20, 10)

    def test_update_is_visible(self, lat):
        db = make_db(lat)
        assert db.update(7, b"new-payload") is True
        row = db.point_select(7)
        assert row[8:19] == b"new-payload"
        assert db.update(10**9, b"x") is False

    def test_update_payload_bounded(self, lat):
        db = make_db(lat, row_bytes=32)
        with pytest.raises(ConfigError):
            db.update(1, bytes(32))

    def test_full_scan_reads_every_row(self, lat):
        db = make_db(lat, rows=300)
        before = db.stats.rows_read
        assert db.full_scan() == 300
        assert db.stats.rows_read - before == 300

    def test_stats_accumulate(self, lat):
        db = make_db(lat, rows=200)
        db.point_select(1)
        db.range_select(1, 5)
        db.update(2, b"z")
        db.full_scan()
        s = db.stats
        assert (s.point_selects, s.range_selects, s.updates, s.scans) == (
            1, 1, 1, 1,
        )

    def test_validation(self, lat):
        acc = LocalMemAccessor(lat, BackingStore(1 << 22))
        with pytest.raises(ConfigError):
            MiniDB(acc, num_rows=0)
        with pytest.raises(ConfigError):
            MiniDB(acc, num_rows=10, row_bytes=20)


class TestMix:
    def test_mix_runs_and_times(self, lat):
        db = make_db(lat, rows=1_000)
        elapsed = db.run_mix(operations=100, seed=1)
        assert elapsed > 0
        assert db.stats.point_selects > 0

    def test_mix_fraction_validation(self, lat):
        db = make_db(lat, rows=100)
        with pytest.raises(ConfigError):
            db.run_mix(10, point_frac=0.8, range_frac=0.3, update_frac=0.2)

    def test_mix_deterministic(self, lat):
        a = make_db(lat, rows=1_000).run_mix(100, seed=9)
        b = make_db(lat, rows=1_000).run_mix(100, seed=9)
        assert a == b


class TestScenarios:
    def test_query_costs_by_memory_system(self, lat):
        """The Section VI study: 'the execution time for different
        queries' under each memory system. Point queries inflate by
        ~the remote/local latency ratio on the prototype but explode
        under swap; scans amortize everywhere."""
        cfg = ClusterConfig()
        rows = 5_000

        def run(acc):
            db = MiniDB(acc, num_rows=rows)
            rng = np.random.default_rng(3)
            keys = rng.integers(1, rows + 1, size=300)
            t0 = acc.time_ns
            for k in keys:
                db.point_select(int(k))
            point = (acc.time_ns - t0) / 300
            t0 = acc.time_ns
            db.full_scan()
            scan = (acc.time_ns - t0) / rows
            return point, scan

        p_local, s_local = run(LocalMemAccessor(lat, BackingStore(1 << 26)))
        p_remote, s_remote = run(
            RemoteMemAccessor(lat, BackingStore(1 << 26))
        )
        p_swap, s_swap = run(
            SwapAccessor(lat, BackingStore(1 << 26),
                         RemoteSwap(cfg.swap, resident_pages=64))
        )
        # point queries: local < remote << swap
        assert p_local < p_remote < p_swap
        assert p_swap > 5 * p_remote
        # scans amortize: swap's per-row cost stays within ~two orders,
        # and remote's penalty is line-level, not fault-level
        assert s_remote < 20 * s_local
        assert s_swap < p_swap  # a scanned row is far cheaper than a point miss


class TestColumnarPath:
    """range_select / full_scan now run on the columnar scan plane."""

    def test_range_select_batch_scalar_twins(self, lat):
        obs = []
        for batch in (True, False):
            acc = LocalMemAccessor(lat, BackingStore(1 << 26), batch=batch)
            db = MiniDB(acc, num_rows=1_000)
            t0 = acc.time_ns
            counts = [db.range_select(10, 200), db.range_select(900, 2_000)]
            st = acc.cache.stats
            obs.append(
                (acc.time_ns - t0, counts, db.stats.rows_read,
                 (st.hits, st.misses, st.writebacks))
            )
        assert obs[0] == obs[1]
        assert obs[0][1] == [190, 101]

    def test_full_scan_batch_scalar_twins(self, lat):
        obs = []
        for batch in (True, False):
            acc = LocalMemAccessor(lat, BackingStore(1 << 26), batch=batch)
            db = MiniDB(acc, num_rows=700)
            t0 = acc.time_ns
            n = db.full_scan()
            obs.append((acc.time_ns - t0, n, db.stats.rows_read))
        assert obs[0] == obs[1]
        assert obs[0][1] == 700

    def test_range_select_accounting_unchanged(self, lat):
        """Batching rows into span reads must not change what the stats
        say: one rows_read per row in the clipped range."""
        db = make_db(lat, rows=400)
        before = db.stats.rows_read
        assert db.range_select(50, 150) == 100
        assert db.stats.rows_read - before == 100
        before = db.stats.rows_read
        assert db.range_select(390, 500) == 11
        assert db.stats.rows_read - before == 11

    def test_range_select_is_span_batched(self, lat):
        """The per-row accessor loop is gone: a 100-row range costs
        O(windows) accessor calls, not one call per row."""
        from repro.apps.access import TraceRecorder

        acc = TraceRecorder(LocalMemAccessor(lat, BackingStore(1 << 26)))
        db = MiniDB(acc, num_rows=1_000)
        calls0 = len(acc.trace)
        db.range_select(100, 200)
        calls = len(acc.trace) - calls0
        # b-tree descent plus a handful of key-column windows
        assert calls < 100 // 4
