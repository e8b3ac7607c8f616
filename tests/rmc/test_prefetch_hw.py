"""Tests for the packet-level RMC hardware prefetcher (Section VI)."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.config import ClusterConfig, NetworkConfig, RMCConfig
from repro.errors import ConfigError
from repro.units import CACHE_LINE, mib


def _cluster(batch=True, **rmc_kw):
    return Cluster(
        ClusterConfig(
            network=NetworkConfig(topology="line", dims=(2, 1)),
            rmc=RMCConfig(**rmc_kw),
        ),
        batch=batch,
    )


def _setup(cluster):
    app = cluster.session(1)
    app.borrow_remote(2, mib(8))
    ptr = app.malloc(mib(4), Placement.REMOTE)
    for v in range(ptr, ptr + mib(4), 4096):
        app.aspace.translate(v)
    return app, ptr


def test_sequential_reads_hit_the_prefetch_buffer():
    cluster = _cluster(prefetch_depth=4)
    app, ptr = _setup(cluster)
    for i in range(16):
        app.read(ptr + i * CACHE_LINE, CACHE_LINE, cached=False)
    rmc = cluster.node(1).rmc
    assert rmc.prefetch_issued.value > 0
    assert rmc.prefetch_hits.value >= 12  # most of the stream covered


def test_prefetch_hits_are_much_faster():
    cluster = _cluster(prefetch_depth=4)
    app, ptr = _setup(cluster)
    sim = cluster.sim

    def timed_read(addr: int) -> float:
        done: list[float] = []

        def proc():
            yield from app.g_read(addr, CACHE_LINE, cached=False)
            done.append(sim.now)

        t0 = sim.now
        sim.process(proc())
        sim.run()  # trailing prefetch traffic drains AFTER `done`
        return done[0] - t0

    timed_read(ptr)                            # launches prefetches
    hit_t = timed_read(ptr + CACHE_LINE)       # covered
    miss_t = timed_read(ptr + mib(1))          # far away: miss
    assert hit_t < miss_t / 2


def test_prefetched_data_is_correct():
    cluster = _cluster(prefetch_depth=4)
    app, ptr = _setup(cluster)
    for i in range(8):
        app.write(ptr + i * CACHE_LINE, bytes([i]) * CACHE_LINE,
                  cached=False)
    out = [
        app.read(ptr + i * CACHE_LINE, CACHE_LINE, cached=False)
        for i in range(8)
    ]
    assert out == [bytes([i]) * CACHE_LINE for i in range(8)]


def test_write_invalidates_buffered_line():
    cluster = _cluster(prefetch_depth=4)
    app, ptr = _setup(cluster)
    sim = cluster.sim
    app.read(ptr, CACHE_LINE, cached=False)
    sim.run()  # line ptr+64 is now buffered with old (zero) data
    app.write(ptr + CACHE_LINE, b"\xEE" * CACHE_LINE, cached=False)
    data = app.read(ptr + CACHE_LINE, CACHE_LINE, cached=False)
    assert data == b"\xEE" * CACHE_LINE  # no stale buffer serve


def test_random_reads_gain_little_and_cost_little():
    def time_for(depth):
        cluster = _cluster(prefetch_depth=depth)
        app, ptr = _setup(cluster)
        sim = cluster.sim
        finish = []

        def reader():
            for i in range(24):
                yield from app.g_read(
                    ptr + (i * 37 % 512) * 4096, CACHE_LINE, cached=False
                )
            finish.append(sim.now)

        t0 = sim.now
        sim.process(reader())
        sim.run()
        return finish[0] - t0

    base = time_for(0)
    with_pf = time_for(4)
    # useless prefetches contend for the client pipe but overlap the
    # demand round trips; random access must stay within ~30%
    assert with_pf < base * 1.3


def test_prefetch_never_crosses_owner_window():
    cluster = _cluster(prefetch_depth=8)
    app, ptr = _setup(cluster)
    window_end = cluster.amap.window_range(2)[1]
    # read the very last line of the donor's window: prefetch must stop
    last_line_local = cluster.amap.window_bytes - CACHE_LINE
    core = app.node.cores[0]
    addr = cluster.amap.encode(2, last_line_local)
    cluster.sim.run_process(core.read(addr, CACHE_LINE))
    cluster.sim.run()
    rmc = cluster.node(1).rmc
    for line in rmc._prefetch_data:
        assert line < window_end
    for line in rmc._prefetch_inflight:
        assert line < window_end


def test_prototype_default_has_no_prefetch():
    cluster = _cluster()
    app, ptr = _setup(cluster)
    for i in range(8):
        app.read(ptr + i * CACHE_LINE, CACHE_LINE, cached=False)
    rmc = cluster.node(1).rmc
    assert rmc.prefetch_issued.value == 0
    assert rmc.prefetch_hits.value == 0


def test_prefetch_traffic_reaches_the_fabric():
    """The bandwidth cost is real: prefetching multiplies fabric load."""
    from repro.noc.fabricstats import collect

    def packets(depth):
        cluster = _cluster(prefetch_depth=depth)
        app, ptr = _setup(cluster)
        for i in range(12):
            app.read(ptr + i * 4096, CACHE_LINE, cached=False)  # random-ish
        cluster.sim.run()
        return collect(cluster.network).total_packets

    assert packets(4) > 2 * packets(0)


def test_config_validation():
    with pytest.raises(ConfigError):
        RMCConfig(prefetch_depth=-1)
    with pytest.raises(ConfigError):
        RMCConfig(prefetch_buffer_lines=0)


# -- batched fills vs the scalar reference twin ------------------------------


def _prefetch_scenario(batch: bool):
    """Mixed traffic with the fabric drained to quiescence after every
    operation, so hit/issued/wasted depend only on *which* lines the
    prefetcher fetched — not on in-flight timing, which batching is
    allowed to change."""
    cluster = _cluster(batch, prefetch_depth=4)
    app, ptr = _setup(cluster)
    sim = cluster.sim
    out = []

    def op(fn, *args, **kw):
        result = fn(*args, **kw)
        sim.run()  # let trailing prefetch fills land
        return result

    for i in range(12):
        op(app.write, ptr + i * CACHE_LINE, bytes([i + 1]) * CACHE_LINE,
           cached=False)
    # sequential sweep: stream confirms, fills hit
    for i in range(12):
        out.append(op(app.read, ptr + i * CACHE_LINE, CACHE_LINE,
                      cached=False))
    # a second stream at a distance
    for i in range(6):
        out.append(op(app.read, ptr + mib(1) + i * CACHE_LINE, CACHE_LINE,
                      cached=False))
    # writes invalidate buffered-but-unreferenced lines -> wasted
    op(app.write, ptr + 13 * CACHE_LINE, b"\xEE" * CACHE_LINE, cached=False)
    op(app.write, ptr + mib(1) + 7 * CACHE_LINE, b"\xDD" * CACHE_LINE,
       cached=False)
    rmc = cluster.node(1).rmc
    counters = (
        rmc.prefetch_issued.value,
        rmc.prefetch_hits.value,
        rmc.prefetch_wasted.value,
    )
    return out, counters


def test_batched_fills_match_scalar_twin():
    """A ``batch=False`` cluster's RMC is the executable scalar spec: burst
    fills must fetch the same lines, serve the same hits, waste the
    same fetches, and return the same bytes."""
    out_batch, counters_batch = _prefetch_scenario(batch=True)
    out_scalar, counters_scalar = _prefetch_scenario(batch=False)
    assert out_batch == out_scalar
    assert counters_batch == counters_scalar
    issued, hits, wasted = counters_batch
    assert issued > 0 and hits > 0 and wasted > 0  # scenario exercises all


def test_batched_fills_are_whole_bursts_on_the_fabric():
    """With batching on, depth-N fills travel as coalesced bursts: the
    per-line traffic counters still see N lines, but strictly fewer
    packet *events* hit the prefetch pipe than in scalar mode."""

    def pipe_requests(batch):
        cluster = _cluster(batch, prefetch_depth=4)
        app, ptr = _setup(cluster)
        app.read(ptr, CACHE_LINE, cached=False)
        app.read(ptr + CACHE_LINE, CACHE_LINE, cached=False)
        cluster.sim.run()
        rmc = cluster.node(1).rmc
        return rmc.prefetch_issued.value, rmc._prefetch_pipe.total_requests

    issued_b, pipe_b = pipe_requests(True)
    issued_s, pipe_s = pipe_requests(False)
    assert issued_b == issued_s > 0  # same lines fetched...
    assert pipe_b < pipe_s  # ...in fewer issue events
