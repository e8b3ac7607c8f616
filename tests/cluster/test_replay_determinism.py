"""Replay determinism through a full cluster scenario.

The engine rework (bucketed event queue, inlined hot paths) must be
invisible to the model: the same scenario replays bit-for-bit

* across two identical runs (baseline determinism),
* with ``REPRO_SANITIZE=1`` (sanitizers observe, never perturb),
* on the heapq reference queue (the bucketed queue's executable spec).

It also pins the exact event count and simulated time of the Fig. 6
uncached remote read, so a host-side speed-up of the engine or the
packet path cannot move the schedule unnoticed.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.config import ClusterConfig, NetworkConfig, RMCConfig
from repro.units import CACHE_LINE, mib


def _scenario(queue: str = "bucket") -> list:
    """Borrow + mixed remote traffic with prefetch and NACK pressure.

    Returns the full observable trace: every datum read, the clock
    after every operation, and the final counter values.
    """
    cluster = Cluster(
        ClusterConfig(
            network=NetworkConfig(topology="line", dims=(3, 1)),
            rmc=RMCConfig(prefetch_depth=2, buffer_entries=4),
        ),
        queue=queue,
    )
    sim = cluster.sim
    app = cluster.session(1)
    app.borrow_remote(2, mib(8))
    ptr = app.malloc(mib(2), Placement.REMOTE)
    trace: list = [sim.now]

    for i in range(6):
        app.write(ptr + i * CACHE_LINE, bytes([i + 1]) * CACHE_LINE,
                  cached=False)
        trace.append(sim.now)
    # a sequential sweep (prefetch engages) then strided jumps
    for i in range(6):
        trace.append(app.read(ptr + i * CACHE_LINE, CACHE_LINE,
                              cached=False))
        trace.append(sim.now)
    for i in range(4):
        trace.append(app.read(ptr + (i * 37 % 256) * 4096, CACHE_LINE,
                              cached=False))
        trace.append(sim.now)
    # multi-core burst contention through the shared client buffer
    phys = app.aspace.translate(ptr).phys_addr
    done: list = []

    def reader(core):
        data = yield from core.cached_read(phys, 4096)
        done.append(data)

    for core in app.node.cores[:2]:
        sim.process(reader(core))
    sim.run()
    trace.append(done)
    trace.append(sim.now)

    rmc = cluster.node(1).rmc
    trace.append(
        (
            rmc.client_requests.value,
            rmc.client_nacks.value,
            rmc.prefetch_issued.value,
            rmc.prefetch_hits.value,
            rmc.prefetch_wasted.value,
        )
    )
    return trace


def test_two_runs_replay_bit_identical():
    assert _scenario() == _scenario()


def test_sanitized_run_replays_bit_identical(monkeypatch):
    base = _scenario()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert _scenario() == base


def test_heapq_reference_replays_bit_identical():
    assert _scenario(queue="heapq") == _scenario(queue="bucket")


#: events scheduled and simulated ns of `_fig06_reads` on the default
#: cluster; a change that moves either changes the simulated schedule
#: and must say why
FIG06_READS = 64
FIG06_EVENTS = 5_248  # 82 per read
FIG06_SIM_NS = 76_160.0


def _fig06_reads(**cluster_kw) -> tuple[int, float]:
    """Uncached 64 B reads from node 6 of a buffer borrowed from node 12
    (3 hops on the default 4x4 mesh); returns the events-scheduled and
    ``sim.now`` deltas over the reads."""
    cluster = Cluster(**cluster_kw)
    assert cluster.hops(6, 12) == 3
    sim = cluster.sim
    app = cluster.session(6)
    app.borrow_remote(12, mib(2))
    ptr = app.malloc(mib(1), Placement.REMOTE)
    events, now = sim.events_scheduled, sim.now
    for i in range(FIG06_READS):
        app.read(ptr + (i * 37 % 256) * 4096 + i * CACHE_LINE, CACHE_LINE,
                 cached=False)
    return sim.events_scheduled - events, sim.now - now


def test_fig06_read_schedule_is_pinned():
    assert _fig06_reads() == (FIG06_EVENTS, FIG06_SIM_NS)


@pytest.mark.parametrize(
    "cluster_kw", [{"queue": "heapq"}, {"debug": True}], ids=["heapq", "debug"]
)
def test_fig06_read_schedule_same_on_reference_paths(cluster_kw):
    assert _fig06_reads(**cluster_kw) == (FIG06_EVENTS, FIG06_SIM_NS)
