"""The columnar data plane on the packet tier.

Three properties pin the design of ``Session.view_array`` /
``read_array`` and of ``ColumnScan`` windows over a ``SessionAccessor``
(DESIGN.md §13):

* **equivalence** — the batched span path must be observably identical
  to the scalar per-line reference of a ``Cluster(config, batch=False)``
  twin: same simulated time per operation, same counters everywhere,
  same values;
* **zero-copy legality** — views are read-only windows over the
  owner's chunk storage exactly when the range is one contiguous
  physical run inside one chunk with no damaged pages; anything else
  falls back to a fresh writable copy with identical timing;
* **O(bursts) accounting** — a whole-column remote scan schedules
  O(bursts) simulated events and O(bursts) fabric packets, not
  O(elements), while moving exactly the same lines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.access import SessionAccessor
from repro.apps.columnar import Column, ColumnScan, scan_sum_ref
from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.config import ClusterConfig, NetworkConfig
from repro.errors import RemoteAccessError
from repro.units import PAGE_SIZE, kib, mib

CHUNK = 64 * 1024  # BackingStore default chunk


def _make_cluster(batch: bool = True) -> Cluster:
    cfg = ClusterConfig(network=NetworkConfig(topology="line", dims=(4, 1)))
    return Cluster(cfg, batch=batch)


def _snapshot(cluster: Cluster) -> dict:
    """Every counter a scalar transaction would have bumped."""
    snap: dict = {}
    for nid, node in cluster.nodes.items():
        for core in node.cores:
            snap[f"n{nid}.loads"] = snap.get(f"n{nid}.loads", 0) + core.loads.value
            st = core.cache.stats
            snap[f"{core.name}.cache"] = (
                st.hits, st.misses, st.evictions, st.writebacks, st.flushes
            )
        snap[f"n{nid}.mc.reads"] = sum(mc.reads.value for mc in node.mcs)
        snap[f"n{nid}.xbar.routed"] = node.crossbar.routed
        rmc = node.rmc
        snap[f"n{nid}.rmc"] = (
            rmc.client_requests.value,
            rmc.server_requests.value,
            rmc.retransmissions.value,
        )
    for edge, link in cluster.network.links.items():
        snap[f"link{edge}"] = (link.packets.value, link.bytes.value)
    return snap


def _session_with_column(count=8192, placement=Placement.REMOTE, batch=True):
    cluster = _make_cluster(batch)
    app = cluster.session(1)
    app.borrow_remote(2, mib(16))
    ptr = app.malloc(max(count * 8, PAGE_SIZE), placement)
    vals = np.arange(1, count + 1, dtype=np.uint64)
    app.bulk_write(ptr, vals.tobytes())
    return cluster, app, ptr, vals


# -- zero-copy legality and fallbacks -----------------------------------
def test_view_array_is_readonly_zero_copy():
    _cluster, app, ptr, vals = _session_with_column(
        count=512, placement=Placement.LOCAL
    )
    view = app.view_array(ptr, 512, np.uint64)
    assert np.array_equal(view, vals)
    assert not view.flags.writeable
    assert view.base is not None  # a window, not an owning copy
    # views alias live memory: a later write is observable through them
    app.bulk_write(ptr, np.zeros(512, dtype=np.uint64).tobytes())
    assert int(view[0]) == 0


def test_read_array_is_fresh_and_writable():
    _cluster, app, ptr, vals = _session_with_column(count=512)
    arr = app.read_array(ptr, 512, np.uint64)
    assert np.array_equal(arr, vals)
    assert arr.flags.writeable
    arr[:] = 0  # mutating the copy must not touch simulated memory
    again = app.read_array(ptr, 512, np.uint64)
    assert np.array_equal(again, vals)


def test_view_array_chunk_crossing_falls_back_to_copy():
    cluster, app, ptr, _vals = _session_with_column(
        count=(CHUNK * 2) // 8, placement=Placement.LOCAL
    )
    # find where the physical range crosses a backing-chunk boundary
    phys = app.aspace.translate(ptr).phys_addr
    to_boundary = (-phys) % CHUNK or CHUNK
    vaddr = ptr + to_boundary - kib(4)
    count = kib(8) // 8  # 4 KiB each side of the boundary
    win = app.view_array(vaddr, count, np.uint64)
    assert win.flags.writeable  # the copy fallback, not a view
    assert np.array_equal(win, app.read_array(vaddr, count, np.uint64))


def test_view_array_damaged_page_falls_back_to_copy():
    _cluster, app, ptr, vals = _session_with_column(
        count=PAGE_SIZE // 8, placement=Placement.REMOTE
    )
    pte = app.aspace.page_table.lookup(ptr // PAGE_SIZE)
    lost = ptr + PAGE_SIZE - 64  # only the page's last line is lost
    app.aspace.repoint_page(ptr, pte.phys_page, lost_lines=(lost,), donor=2)
    count = (PAGE_SIZE - 64) // 8
    win = app.view_array(ptr, count, np.uint64)
    assert win.flags.writeable  # damaged run: never a live view
    assert np.array_equal(win, vals[:count])
    with pytest.raises(RemoteAccessError):
        app.view_array(ptr, PAGE_SIZE // 8, np.uint64)  # touches the lost line


def test_empty_and_generator_forms():
    cluster, app, ptr, vals = _session_with_column(count=1024)
    assert app.read_array(ptr, 0, np.uint64).size == 0
    assert app.view_array(ptr, 0, np.uint64).size == 0
    cluster, app, ptr, vals = _session_with_column(count=1024, batch=False)
    got = cluster.sim.run_process(app.g_read_array(ptr, 1024, np.uint64))
    assert np.array_equal(got, vals)
    got = cluster.sim.run_process(app.g_view_array(ptr, 1024, np.uint64))
    assert np.array_equal(got, vals)


def test_column_windows_cover_the_column():
    """``ColumnScan`` windows over a ``SessionAccessor``: a column that
    crosses a 64 KiB chunk streams as 16 KiB windows whose offsets and
    values tile it exactly, on both twins."""
    count = (CHUNK + 4096) // 8
    for batch in (True, False):
        _cluster, app, _ptr, vals = _session_with_column(count=count,
                                                         batch=batch)
        acc = SessionAccessor(app, count * 8, placement=Placement.REMOTE)
        acc.bulk_write(0, vals.tobytes())
        parts = []
        for off, win in ColumnScan(acc, window_bytes=kib(16)).windows(
            Column(0, count, "uint64")
        ):
            assert off == sum(p.size for p in parts)
            parts.append(win)
        assert len(parts) == -(-count * 8 // kib(16))
        assert np.array_equal(np.concatenate(parts), vals)


def test_cached_touch_charges_like_cached_read():
    """``Core.cached_touch`` is the timing half of ``cached_read``:
    identical simulated time, cache stats, and load counts for the
    same span — batched, scalar, or with the data actually read."""
    obs = []
    for mode in ("touch-batch", "touch-scalar", "read"):
        cluster, app, ptr, _vals = _session_with_column(
            count=1024, batch=mode != "touch-scalar"
        )
        core = cluster.nodes[1].cores[0]
        phys = app.aspace.translate(ptr).phys_addr
        t0 = cluster.sim.now
        if mode == "read":
            cluster.sim.run_process(core.cached_read(phys, PAGE_SIZE))
        else:
            cluster.sim.run_process(core.cached_touch(phys, PAGE_SIZE))
        st = core.cache.stats
        obs.append(
            (cluster.sim.now - t0, (st.hits, st.misses, st.writebacks),
             core.loads.value)
        )
    assert obs[0] == obs[1] == obs[2]


# -- batch vs scalar twin-cluster equivalence ---------------------------
def _run_columnar_trace(trace):
    out = []
    for batch in (True, False):
        cluster, app, ptr, _vals = _session_with_column(count=8192,
                                                        batch=batch)
        acc = SessionAccessor(app, 64 * 1024, placement=Placement.LOCAL)
        rng = np.random.default_rng(3)
        acc.bulk_write(
            0, rng.integers(0, 1000, size=8192, dtype=np.uint64).tobytes()
        )
        scan = ColumnScan(acc, window_bytes=kib(16))
        col = Column(0, 8192, "uint64")
        scol = Column(0, 512, "uint64", stride=128)
        elapsed, results = [], []
        for op in trace:
            t0 = cluster.sim.now
            if op == "view":
                results.append(app.view_array(ptr, 8192, np.uint64).copy())
            elif op == "read":
                results.append(app.read_array(ptr, 8192, np.uint64))
            elif op == "sum":
                results.append(scan.sum(col))
            elif op == "min_max":
                results.append(scan.min_max(col))
            elif op == "count":
                results.append(scan.count_where(col, 100, 700))
            elif op == "select":
                results.append(scan.select(col, 100, 700))
            elif op == "strided_sum":
                results.append(scan.sum(scol))
            else:  # pragma: no cover - trace typo guard
                raise AssertionError(op)
            elapsed.append(cluster.sim.now - t0)
        out.append((elapsed, _snapshot(cluster), results))
    return out


def test_columnar_batch_scalar_equivalence():
    trace = [
        "view", "read", "sum", "min_max", "count", "select",
        "strided_sum", "view", "sum",
    ]
    (b_t, b_snap, b_res), (s_t, s_snap, s_res) = _run_columnar_trace(trace)
    assert b_t == pytest.approx(s_t), "sim time diverged"
    assert b_snap == s_snap, "stats diverged"
    for b, s in zip(b_res, s_res):
        if isinstance(b, np.ndarray):
            assert np.array_equal(b, s)
        else:
            assert b == s


# -- O(bursts) accounting ----------------------------------------------
def test_whole_column_scan_is_o_bursts():
    """A cold 64 KiB remote column costs O(bursts) events and packets
    on the columnar path but O(elements) events per-element, while both
    move exactly the same cache lines."""
    count = 8192  # 64 KiB, 1024 lines
    lines = count * 8 // 64

    def fabric_lines(cluster):
        """Line-weighted fabric traffic (all counters count lines, so
        burst grouping cannot hide or invent traffic)."""
        return sum(l.packets.value for l in cluster.network.links.values())

    cluster, app, ptr, vals = _session_with_column(count=count)
    acc = SessionAccessor(app, count * 8, placement=Placement.REMOTE)
    acc.bulk_write(0, vals.tobytes())
    col = Column(0, count, "uint64")
    seq0 = cluster.sim.events_scheduled
    total = ColumnScan(acc).sum(col)
    col_events = cluster.sim.events_scheduled - seq0
    col_fabric = fabric_lines(cluster)
    col_lines = cluster.nodes[1].rmc.client_requests.value
    assert total == int(vals.sum(dtype=np.uint64))

    cluster2, app2, _ptr2, _ = _session_with_column(count=count)
    acc2 = SessionAccessor(app2, count * 8, placement=Placement.REMOTE)
    acc2.bulk_write(0, vals.tobytes())
    seq0 = cluster2.sim.events_scheduled
    total2 = scan_sum_ref(acc2, col)
    ref_events = cluster2.sim.events_scheduled - seq0
    ref_lines = cluster2.nodes[1].rmc.client_requests.value
    assert total2 == total

    # same lines crossed the fabric either way (request + response per
    # line over one hop)
    assert col_lines == lines
    assert ref_lines == lines
    assert col_fabric == fabric_lines(cluster2)
    # the columnar path schedules O(bursts) events — far fewer than one
    # per line, let alone per element; the per-element loop is
    # O(elements) events. (Fabric counters are line-weighted, so the
    # event count is where burst coalescing shows.)
    assert col_events < lines // 8
    assert ref_events > count
    assert col_events * 100 < ref_events
