"""Batch/scalar equivalence re-run with every sanitizer armed.

The point of the sanitizer layer is that it can ride along under the
heaviest correctness suite without changing a single observable: the
twin-cluster traces from ``tests/cluster/test_core_batch`` must still
agree on time, counters and data when the engine asserts, the MESI
legality table and the byte-conservation audit are all active.

Also serves as the SIM005 twin-coverage anchor: the one public
constructor defaulting ``batch=True`` on the packet tier, ``Cluster``,
is built here with ``batch=False`` and driven through every ``g_*``
accessor and the core-level cached accessors.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.config import ClusterConfig, NetworkConfig
from repro.units import kib, mib

from tests.cluster.test_core_batch import _assert_equivalent


@pytest.mark.slow
def test_mixed_trace_equivalent_under_sanitizers(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    _assert_equivalent(
        [
            ("read", "remote", 0, kib(4)),
            ("write", "remote", 0, kib(4), 3),
            ("write", "local", 0, kib(4), 7),
            ("read", "local", kib(1), kib(2)),
            ("coh_write", "local", 0, kib(2), 0, 11),
            ("coh_read", "local", 0, kib(2), 1),
            ("flush", "local", 0, 0),
            ("read", "remote", kib(8), kib(1)),
        ]
    )


@pytest.mark.slow
def test_generator_accessors_scalar_twins_under_sanitizers(monkeypatch):
    """Drive each ``g_*`` accessor and the core-level cached accessors
    down the scalar reference path of a ``batch=False`` cluster with
    sanitizers on, asserting the data matches the batched run bit for
    bit."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    payload = bytes(range(256)) * 16  # 4 KiB pattern
    results = []
    for batch in (True, False):
        cfg = ClusterConfig(
            network=NetworkConfig(topology="line", dims=(4, 1))
        )
        cluster = Cluster(cfg, batch=batch)
        assert cluster.sim.audit is not None
        app = cluster.session(1)
        app.borrow_remote(2, mib(4))
        local = app.malloc(mib(1), Placement.LOCAL)
        remote = app.malloc(mib(1), Placement.REMOTE)
        sim = cluster.sim

        sim.run_process(app.g_write(remote, payload))
        got_remote = sim.run_process(app.g_read(remote, len(payload)))
        sim.run_process(app.g_coherent_write(local, payload))
        got_local = sim.run_process(
            app.g_coherent_read(local, len(payload), core=1)
        )
        sim.run_process(app.g_flush())

        # core-level twins, below the session layer
        core = cluster.node(1).cores[0]
        paddr = app.aspace.translate(local).phys_addr
        sim.run_process(core.cached_write(paddr, payload))
        got_core = sim.run_process(core.cached_read(paddr, len(payload)))
        sim.run_process(core.flush_cache())

        assert cluster.sim.audit.mismatches == 0
        results.append((got_remote, got_local, got_core, sim.now))

    batched, scalar = results
    assert batched[0] == scalar[0] == payload
    assert batched[1] == scalar[1] == payload
    assert batched[2] == scalar[2] == payload
    assert batched[3] == pytest.approx(scalar[3]), "sim time diverged"
