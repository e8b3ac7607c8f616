"""Batch vs scalar equivalence for the packet-tier data path.

A default cluster's batched data paths must be *observably identical*
to the per-line reference paths of a ``Cluster(config, batch=False)``:
same simulated time for every operation, same counters everywhere a
scalar transaction would have been counted, same bytes returned. These
tests drive twin clusters through identical traces — one batched, one
scalar — and diff everything.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.cluster.api import Session
from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.config import ClusterConfig, NetworkConfig
from repro.units import kib, mib


def _make_cluster(batch: bool = True) -> Cluster:
    cfg = ClusterConfig(network=NetworkConfig(topology="line", dims=(4, 1)))
    return Cluster(cfg, batch=batch)


def _snapshot(cluster: Cluster) -> dict:
    """Every counter a scalar transaction would have bumped."""
    snap: dict = {}
    for nid, node in cluster.nodes.items():
        for core in node.cores:
            snap[f"n{nid}.loads"] = snap.get(f"n{nid}.loads", 0) + core.loads.value
            snap[f"n{nid}.stores"] = (
                snap.get(f"n{nid}.stores", 0) + core.stores.value
            )
            st = core.cache.stats
            snap[f"{core.name}.cache"] = (
                st.hits, st.misses, st.evictions, st.writebacks, st.flushes
            )
        snap[f"n{nid}.mc.reads"] = sum(mc.reads.value for mc in node.mcs)
        snap[f"n{nid}.mc.writes"] = sum(mc.writes.value for mc in node.mcs)
        snap[f"n{nid}.xbar.routed"] = node.crossbar.routed
        rmc = node.rmc
        snap[f"n{nid}.rmc"] = (
            rmc.client_requests.value,
            rmc.server_requests.value,
            rmc.client_nacks.value,
            rmc.server_nacks.value,
            rmc.retransmissions.value,
        )
        dom = node.coherence.stats
        snap[f"n{nid}.dom"] = (
            dom.read_requests, dom.write_requests, dom.probes_sent,
            dom.invalidations, dom.interventions,
        )
    for edge, link in cluster.network.links.items():
        snap[f"link{edge}"] = (link.packets.value, link.bytes.value)
    for nid, sw in cluster.network.switches.items():
        snap[f"sw{nid}"] = (sw.forwarded.value, sw.delivered.value)
    return snap


def _run_once(trace, batch: bool):
    """Run *trace* on one cluster; return its observations.

    Each trace step is ``(op, args...)`` executed against a session on
    node 1 with 16 MiB borrowed from node 2. Returns per-step elapsed
    sim times, the final counter snapshot, collected read data and the
    events scheduled.
    """
    cluster = _make_cluster(batch)
    app = cluster.session(1)
    app.borrow_remote(2, mib(16))
    ptrs = {
        "local": app.malloc(mib(4), Placement.LOCAL),
        "remote": app.malloc(mib(4), Placement.REMOTE),
    }
    elapsed, data = [], []
    for step in trace:
        op, region, offset, size = step[:4]
        addr = ptrs[region] + offset
        t0 = cluster.sim.now
        if op == "read":
            data.append(app.read(addr, size))
        elif op == "write":
            app.write(addr, bytes([step[4]]) * size)
        elif op == "coh_read":
            data.append(app.coherent_read(addr, size, core=step[4]))
        elif op == "coh_write":
            app.coherent_write(addr, bytes([step[5]]) * size, core=step[4])
        elif op == "flush":
            cluster.sim.run_process(app.g_flush())
        else:  # pragma: no cover - trace typo guard
            raise AssertionError(op)
        elapsed.append(cluster.sim.now - t0)
    return elapsed, _snapshot(cluster), data, cluster.sim.events_scheduled


def _run_trace(trace):
    """Run *trace* twice (batched / scalar); return both observations
    (elapsed times, counter snapshot, read data)."""
    return [_run_once(trace, batch)[:3] for batch in (True, False)]


def _assert_equivalent(trace):
    (b_elapsed, b_snap, b_data), (s_elapsed, s_snap, s_data) = _run_trace(trace)
    assert b_elapsed == pytest.approx(s_elapsed), "sim time diverged"
    assert b_snap == s_snap, "stats diverged"
    assert b_data == s_data, "data diverged"


def test_cold_local_read_4k():
    _assert_equivalent([("read", "local", 0, kib(4))])


def test_cold_remote_read_4k():
    """A 4 KiB cold remote read crosses the fabric as burst packets and
    must cost exactly what 64 scalar line round-trips cost."""
    _assert_equivalent([("read", "remote", 0, kib(4))])


def test_warm_hits_after_cold_pass():
    _assert_equivalent(
        [("read", "local", 0, kib(4)), ("read", "local", 0, kib(4))]
    )


def test_partially_warm_span():
    """Second read overlaps the first: hits and misses mix in one span."""
    _assert_equivalent(
        [("read", "local", 0, kib(2)), ("read", "local", kib(1), kib(2))]
    )


def test_dirty_streaming_writebacks():
    """Streaming writes over more data than one set holds force dirty
    evictions interleaved with the demand fetches."""
    cache = ClusterConfig().node.cache
    stride = cache.num_sets * cache.line_bytes
    trace = [
        ("write", "local", way * stride, kib(4), way)
        for way in range(cache.associativity + 2)
    ]
    _assert_equivalent(trace)


def test_flush_after_dirty_writes():
    _assert_equivalent(
        [
            ("write", "local", 0, kib(4), 7),
            ("write", "local", kib(64), kib(2), 9),
            ("flush", "local", 0, 0),
        ]
    )


def test_remote_write_with_writebacks_and_reads():
    _assert_equivalent(
        [
            ("write", "remote", 0, kib(4), 3),
            ("read", "remote", 0, kib(4)),
            ("write", "remote", kib(8), kib(1), 5),
            ("flush", "remote", 0, 0),
            ("read", "remote", kib(8), kib(1)),
        ]
    )


def test_coherent_span_cold_and_shared():
    _assert_equivalent(
        [
            ("coh_write", "local", 0, kib(4), 0, 11),
            ("coh_read", "local", 0, kib(4), 1),
            ("coh_read", "local", 0, kib(4), 0),
        ]
    )


def test_coherent_interventions_match():
    """Reader pulls lines a peer holds Modified: every miss is served
    cache-to-cache, batched and scalar alike."""
    trace = [
        ("coh_write", "local", 0, kib(2), 0, 21),
        ("coh_read", "local", 0, kib(2), 1),
        ("coh_write", "local", 0, kib(2), 1, 22),
        ("coh_read", "local", kib(1), kib(2), 0),
    ]
    _assert_equivalent(trace)


@pytest.mark.slow
def test_randomized_mixed_trace():
    rng = random.Random(1234)
    line = ClusterConfig().node.cache.line_bytes
    trace = []
    for _ in range(60):
        region = rng.choice(["local", "remote"])
        offset = rng.randrange(0, mib(1), line)
        size = rng.choice([64, 256, kib(1), kib(4), kib(7)])
        if rng.random() < 0.05:
            trace.append(("flush", "local", 0, 0))
        elif region == "local" and rng.random() < 0.3:
            if rng.random() < 0.5:
                trace.append(
                    ("coh_write", "local", offset, size, rng.randrange(2),
                     rng.randrange(256))
                )
            else:
                trace.append(("coh_read", "local", offset, size, rng.randrange(2)))
        elif rng.random() < 0.5:
            trace.append(("write", region, offset, size, rng.randrange(256)))
        else:
            trace.append(("read", region, offset, size))
    _assert_equivalent(trace)


def _drive_every_accessor(batch: bool):
    """Run each public timed ``Session`` accessor, then
    ``Core.cached_touch`` and ``Core.flush_cache``, on one cluster.

    Returns the step names, per-step elapsed sim times, the final
    counter snapshot and the data every reading step returned.
    """
    cluster = _make_cluster(batch)
    sim = cluster.sim
    app = cluster.session(1)
    app.borrow_remote(2, mib(16))
    local = app.malloc(mib(1), Placement.LOCAL)
    remote = app.malloc(mib(1), Placement.REMOTE)
    core0, core1 = app.node.cores[0], app.node.cores[1]
    touch_paddr = app.aspace.translate(local + kib(64)).phys_addr
    payload = bytes(range(256)) * 24  # 6 KiB: spans cross a page
    steps = [
        ("g_write", lambda: app.g_write(remote + 100, payload)),
        ("g_read", lambda: app.g_read(remote + 100, len(payload))),
        ("g_coherent_write",
         lambda: app.g_coherent_write(local, payload, core=1)),
        ("g_coherent_read",
         lambda: app.g_coherent_read(local + 64, len(payload))),
        # TLB-cold pages: the column touch charges its walks too
        ("g_read_array", lambda: app.g_read_array(remote, 2048, np.uint64)),
        ("g_view_array",
         lambda: app.g_view_array(remote + kib(32), 2048, np.uint64)),
        ("cached_touch",
         lambda: core0.cached_touch(touch_paddr, kib(6), is_write=True)),
        ("g_flush", lambda: app.g_flush()),
        ("flush_cache", lambda: core1.flush_cache()),
    ]
    elapsed, data = [], []
    for _name, make in steps:
        t0 = sim.now
        value = sim.run_process(make())
        elapsed.append(sim.now - t0)
        if isinstance(value, np.ndarray):
            value = value.tobytes()
        if value is not None:
            data.append(value)
    assert all(
        c.batch is batch and node.rmc.batch is batch
        for node in cluster.nodes.values()
        for c in node.cores
    ), "the cluster's batch switch did not reach every core and RMC"
    return [name for name, _ in steps], elapsed, _snapshot(cluster), data


def test_every_timed_accessor_matches_its_scalar_twin():
    """One twin-cluster pass over the whole timed surface. Listing
    ``Session``'s public ``g_*`` methods makes a new accessor that this
    test does not drive fail here instead of going unguarded."""
    names, b_elapsed, b_snap, b_data = _drive_every_accessor(True)
    _, s_elapsed, s_snap, s_data = _drive_every_accessor(False)
    public_g = {n for n in vars(Session) if n.startswith("g_")}
    assert public_g == {n for n in names if n.startswith("g_")}
    assert b_elapsed == pytest.approx(s_elapsed), "sim time diverged"
    assert b_snap == s_snap, "stats diverged"
    assert b_data == s_data, "data diverged"
    payload = bytes(range(256)) * 24
    assert b_data[0] == payload  # the remote round trip
    assert b_data[1] == payload[64:] + bytes(64)  # shifted by one line


def test_loads_counted_once_per_cached_read():
    """Regression: a cold cached read used to route every demand fetch
    through ``Core.read``, counting one load per missing line and
    polluting the load-latency tally with fetch round-trips."""
    for batch in (True, False):  # the scalar path accounts identically
        cluster = _make_cluster(batch)
        app = cluster.session(1)
        ptr = app.malloc(mib(1), Placement.LOCAL)
        core = app.node.cores[0]
        loads0 = core.loads.value
        app.read(ptr, kib(4))  # cold: 64 line misses
        assert core.loads.value == loads0 + 1
        assert core.load_latency_ns.count == 0
        app.read(ptr, kib(4))  # warm: 64 line hits
        assert core.loads.value == loads0 + 2
        assert core.load_latency_ns.count == 0


def test_timing_write_payload_is_cached():
    """Timing-only writes reuse one zero buffer per size instead of
    allocating a fresh ``bytes`` per eviction/flush."""
    cluster = _make_cluster()
    core = cluster.node(1).cores[0]
    assert core._zero_payload(64) is core._zero_payload(64)
    assert core._zero_payload(64) == bytes(64)


def test_burst_never_crosses_controller_slice():
    """Bursts split at the per-socket slice boundary: a span straddling
    two controllers' slices must reach both, batched or not."""
    cluster = _make_cluster()
    node = cluster.node(1)
    if len(node.mcs) < 2:
        pytest.skip("single-controller node; no boundary to cross")
    boundary = node.mcs[0].config.capacity_bytes
    app = cluster.session(1)
    core = node.cores[0]
    r0 = [mc.reads.value for mc in node.mcs]
    cluster.sim.run_process(
        core.cached_read(boundary - kib(2), kib(4))
    )
    r1 = [mc.reads.value for mc in node.mcs]
    assert r1[0] - r0[0] > 0 and r1[1] - r0[1] > 0
