"""Columnar operators on the fast tier.

Every operator must (a) compute exactly what its per-element reference
twin computes, (b) be observably identical on an accessor built with
``batch=False`` (same simulated time, same cache stats, same results),
and (c) go zero-copy
exactly when the window legality rules of DESIGN.md §13 allow.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.access import TraceRecorder
from repro.apps.columnar import (
    Column,
    ColumnScan,
    count_where_ref,
    scan_min_max_ref,
    scan_sum_ref,
    select_ref,
)
from repro.config import ClusterConfig
from repro.errors import ConfigError
from repro.mem.backing import BackingStore
from repro.model.fastsim import LocalMemAccessor, RemoteMemAccessor
from repro.model.latency import LatencyModel

LAT = LatencyModel.from_config(ClusterConfig())


def _accessor(kind="remote", batch=True, cap=1 << 22):
    store = BackingStore(cap)
    if kind == "local":
        return LocalMemAccessor(LAT, store, batch=batch)
    return RemoteMemAccessor(LAT, store, hops=2, batch=batch)


def _fill(acc, addr, data: np.ndarray) -> None:
    acc.bulk_write(addr, np.ascontiguousarray(data).tobytes())


# -- results vs numpy ---------------------------------------------------
def test_dense_uint64_operators_match_numpy():
    acc = _accessor()
    rng = np.random.default_rng(0)
    data = rng.integers(0, 1 << 40, size=20_000, dtype=np.uint64)
    _fill(acc, 4096, data)
    col = Column(4096, data.size, "uint64")
    scan = ColumnScan(acc, window_bytes=16 * 1024)

    assert scan.sum(col) == int(data.sum(dtype=np.uint64))
    assert scan.min_max(col) == (int(data.min()), int(data.max()))
    lo, hi = 1 << 30, 1 << 39
    mask = (data >= lo) & (data < hi)
    assert scan.count_where(col, lo, hi) == int(mask.sum())
    assert np.array_equal(scan.select(col, lo, hi), np.nonzero(mask)[0])


def test_float64_operators():
    acc = _accessor("local")
    rng = np.random.default_rng(1)
    data = rng.random(5_000)
    _fill(acc, 0, data)
    col = Column(0, data.size, "float64")
    scan = ColumnScan(acc)

    assert math.isclose(scan.sum(col), float(data.sum()), rel_tol=1e-12)
    mn, mx = scan.min_max(col)
    assert (mn, mx) == (float(data.min()), float(data.max()))
    mask = (data >= 0.25) & (data < 0.5)
    assert scan.count_where(col, 0.25, 0.5) == int(mask.sum())


def test_strided_column_reads_one_field_per_row():
    acc = _accessor()
    rows, stride = 3_000, 128
    table = np.zeros(rows * stride // 8, dtype=np.uint64)
    keys = np.arange(1, rows + 1, dtype=np.uint64)
    table[:: stride // 8] = keys
    _fill(acc, 0, table)
    col = Column(0, rows, "uint64", stride=stride)
    scan = ColumnScan(acc)

    assert scan.sum(col) == int(keys.sum(dtype=np.uint64))
    assert scan.min_max(col) == (1, rows)
    assert scan.count_where(col, 10, 20) == 10
    assert np.array_equal(scan.select(col, 1, 4), np.array([0, 1, 2]))


def test_uint64_sum_wraps_modulo_2_64():
    acc = _accessor("local")
    data = np.full(4, (1 << 63) + 5, dtype=np.uint64)
    _fill(acc, 0, data)
    col = Column(0, 4, "uint64")
    expected = (4 * ((1 << 63) + 5)) & ((1 << 64) - 1)
    assert ColumnScan(acc).sum(col) == expected
    assert scan_sum_ref(acc, col) == expected


def test_windows_scalar_twin_yields_identical_values():
    acc = _accessor()
    data = np.arange(6_000, dtype=np.uint64)
    _fill(acc, 0, data)
    col = Column(0, data.size, "uint64")
    scan = ColumnScan(acc, window_bytes=8 * 1024)
    twin = _accessor(batch=False)
    _fill(twin, 0, data)
    batched = [w.copy() for _, w in scan.windows(col)]
    scalar = [
        w.copy()
        for _, w in ColumnScan(twin, window_bytes=8 * 1024).windows(col)
    ]
    assert all(np.array_equal(b, s) for b, s in zip(batched, scalar))
    assert np.array_equal(np.concatenate(batched), data)


def test_empty_column():
    acc = _accessor("local")
    col = Column(0, 0, "uint64")
    scan = ColumnScan(acc)
    assert scan.sum(col) == 0
    assert scan.min_max(col) == (None, None)
    assert scan.count_where(col, 0, 10) == 0
    assert scan.select(col, 0, 10).size == 0


# -- batch vs scalar equivalence ---------------------------------------
def test_batch_scalar_equivalence_fast_tier():
    rng = np.random.default_rng(2)
    data = rng.integers(0, 1000, size=16_384, dtype=np.uint64)
    obs = []
    for batch in (True, False):
        acc = _accessor(batch=batch)
        _fill(acc, 0, data)
        col = Column(0, data.size, "uint64")
        scol = Column(0, 1024, "uint64", stride=64)
        scan = ColumnScan(acc, window_bytes=8 * 1024)
        results = [
            scan.sum(col),
            scan.min_max(col),
            scan.count_where(col, 100, 900),
            scan.select(col, 100, 900).tolist(),
            scan.sum(scol),
        ]
        st_ = acc.cache.stats
        obs.append(
            (acc.time_ns, results,
             (st_.hits, st_.misses, st_.evictions, st_.writebacks))
        )
    (b_time, b_res, b_stats), (s_time, s_res, s_stats) = obs
    assert b_time == pytest.approx(s_time)
    assert b_stats == s_stats
    assert b_res == s_res


def test_view_array_batch_flag_forces_scalar_charge():
    """The constructor flag reaches ``view_array``: a ``batch=False``
    accessor charges the window per line, for the same time and stats."""
    data = np.arange(8192, dtype=np.uint64)
    obs = []
    for batch in (True, False):
        acc = _accessor(batch=batch)
        _fill(acc, 0, data)
        acc.view_array(0, data.size, np.uint64)
        st_ = acc.cache.stats
        obs.append((acc.time_ns, (st_.hits, st_.misses, st_.writebacks)))
    assert obs[0][0] == pytest.approx(obs[1][0])
    assert obs[0][1] == obs[1][1]


# -- zero-copy legality -------------------------------------------------
def test_fast_tier_view_is_zero_copy_within_chunk():
    acc = _accessor("local")
    data = np.arange(512, dtype=np.uint64)
    _fill(acc, 0, data)
    win = acc.view_array(0, 512, np.uint64)
    assert not win.flags.writeable
    assert win.base is not None
    _fill(acc, 0, np.zeros(1, dtype=np.uint64))
    assert int(win[0]) == 0  # aliases live backing storage


def test_fast_tier_view_falls_back_across_chunks():
    acc = _accessor("local")
    chunk = acc.backing.chunk_bytes
    data = np.arange(1024, dtype=np.uint64)
    addr = chunk - 4096
    _fill(acc, addr, data)
    win = acc.view_array(addr, 1024, np.uint64)  # straddles the chunk
    assert win.flags.writeable  # a fresh copy, not a view
    assert np.array_equal(win, data)


def test_scan_works_without_view_array():
    class CopyOnly:
        """An accessor exposing only the copying read_array."""

        def __init__(self, inner):
            self._inner = inner

        def read_array(self, addr, count, dtype):
            return self._inner.read_array(addr, count, dtype)

    acc = _accessor("local")
    data = np.arange(1000, dtype=np.uint64)
    _fill(acc, 0, data)
    scan = ColumnScan(CopyOnly(acc))
    assert scan.sum(Column(0, 1000, "uint64")) == int(data.sum())


def test_trace_recorder_records_view_array():
    acc = _accessor("local")
    data = np.arange(64, dtype=np.uint64)
    _fill(acc, 0, data)
    rec = TraceRecorder(acc)
    win = rec.view_array(0, 64, np.uint64)
    assert np.array_equal(win, data)
    assert rec.trace[-1].addr == 0
    assert rec.trace[-1].size == 64 * 8
    assert not rec.trace[-1].is_write


# -- validation ---------------------------------------------------------
def test_column_validation():
    with pytest.raises(ConfigError):
        Column(0, 10, "int32")  # not a 8-byte uint/float
    with pytest.raises(ConfigError):
        Column(0, 10, "uint64", stride=12)  # not a multiple of 8
    with pytest.raises(ConfigError):
        Column(0, -1, "uint64")
    with pytest.raises(ConfigError):
        Column(0, 10, "uint64").slice(4, 11)
    with pytest.raises(ConfigError):
        ColumnScan(_accessor("local"), window_bytes=12)


def test_column_slice():
    col = Column(1000, 100, "uint64", stride=32)
    sub = col.slice(10, 40)
    assert sub.addr == 1000 + 10 * 32
    assert sub.count == 30
    assert sub.stride == 32


# -- hypothesis differential vs the per-element reference ---------------
@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        min_size=1,
        max_size=300,
    ),
    stride=st.sampled_from([0, 8, 24, 64]),
    window=st.sampled_from([64, 256, 4096]),
    bounds=st.tuples(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.integers(min_value=0, max_value=(1 << 64) - 1),
    ),
)
def test_differential_vs_per_element_reference(values, stride, window, bounds):
    data = np.array(values, dtype=np.uint64)
    acc = _accessor("local", cap=1 << 21)
    step = (stride or 8) // 8
    table = np.zeros(data.size * step, dtype=np.uint64)
    table[::step] = data
    _fill(acc, 64, table)
    col = Column(64, data.size, "uint64", stride=stride)
    scan = ColumnScan(acc, window_bytes=window)
    lo, hi = min(bounds), max(bounds)

    assert scan.sum(col) == scan_sum_ref(acc, col)
    assert scan.min_max(col) == scan_min_max_ref(acc, col)
    assert scan.count_where(col, lo, hi) == count_where_ref(acc, col, lo, hi)
    assert np.array_equal(
        scan.select(col, lo, hi), select_ref(acc, col, lo, hi)
    )
