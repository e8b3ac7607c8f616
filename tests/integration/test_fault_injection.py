"""Failure-injection and adversarial-condition tests.

The paper's correctness argument rests on invariants (pinned grants,
non-overlap, prefix discipline); these tests drive the system into the
corners where those invariants do the work.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.cluster.reservation import LeaseState
from repro.config import ClusterConfig, NetworkConfig, RMCConfig
from repro.errors import (
    AllocationError,
    RemoteAccessError,
    ReservationError,
)
from repro.ht.packet import PacketType
from repro.sim.faults import FaultPlan, collect_faults
from repro.units import mib


def _line(n=3, **kw):
    return Cluster(
        ClusterConfig(network=NetworkConfig(topology="line", dims=(n, 1)), **kw)
    )


def test_donor_exhaustion_is_clean(small_cluster):
    """Draining a donor fails the *next* reservation, corrupts nothing."""
    cluster = small_cluster
    app = cluster.session(1)
    donated = cluster.config.node.donated_memory_bytes
    app.borrow_remote(2, donated)  # take everything
    with pytest.raises(ReservationError, match="declined"):
        app.borrow_remote(2, mib(1))
    # the donor still functions for other borrowers after a release
    res = next(iter(cluster.node(1).reservations.held.values()))
    cluster.give_back(1, res)
    app3 = cluster.session(3)
    app3.borrow_remote(2, mib(4))
    ptr = app3.malloc(mib(1), Placement.REMOTE)
    app3.write_u64(ptr, 1)
    assert app3.read_u64(ptr) == 1


def test_failed_reservation_leaves_no_partial_state(small_cluster):
    cluster = small_cluster
    regions_before = cluster.regions.region_of(1).total_bytes
    donated_before = cluster.node(2).os.donated_free_bytes
    with pytest.raises(ReservationError):
        cluster.borrow(1, 2, cluster.config.node.donated_memory_bytes * 2)
    assert cluster.regions.region_of(1).total_bytes == regions_before
    assert cluster.node(2).os.donated_free_bytes == donated_before
    cluster.regions.check_invariants()


@pytest.mark.slow
def test_local_exhaustion_spills_then_fails_loudly(small_cluster):
    app = small_cluster.session(1)
    private = small_cluster.config.node.private_memory_bytes
    app.malloc(private, Placement.LOCAL)
    # AUTO with no remote arena: clean failure, no partial mappings
    mapped_before = len(app.aspace.page_table)
    with pytest.raises(AllocationError):
        app.malloc(mib(1), Placement.AUTO)
    assert len(app.aspace.page_table) == mapped_before
    # grow the region: AUTO now succeeds remotely
    app.borrow_remote(2, mib(8))
    ptr = app.malloc(mib(1), Placement.AUTO)
    assert app.allocator.allocation_at(ptr).remote


def test_interrupted_thread_releases_core_slots(small_cluster):
    """Interrupting a thread mid-access must not leak the core's
    outstanding-request slot."""
    cluster = small_cluster
    app = cluster.session(1)
    app.borrow_remote(2, mib(8))
    ptr = app.malloc(mib(1), Placement.REMOTE)
    app.read(ptr, 8, cached=False)  # warm paths
    core = app.node.cores[0]
    sim = cluster.sim

    def victim():
        while True:
            yield from app.g_read(ptr, 64, core=0, cached=False)

    def killer(target):
        yield sim.timeout(100.0)  # mid-flight
        target.interrupt("stop")

    v = sim.process(victim())
    sim.process(killer(v))
    with pytest.raises(Exception):
        # Interrupt escapes the victim; the engine surfaces it
        sim.run()
    # the slot must be free again: a fresh read works
    assert core._remote_slots.count in (0, 1)
    app.read(ptr, 64, cached=False)


def test_nack_storm_converges():
    """Pathologically tiny RMC buffers: heavy retries, but every access
    eventually completes and no transaction is lost."""
    cluster = _line(
        3,
        rmc=RMCConfig(buffer_entries=1, server_buffer_entries=1,
                      retry_backoff_ns=200.0),
    )
    sim = cluster.sim
    apps = []
    for client in (1, 3):
        app = cluster.session(client)
        app.borrow_remote(2, mib(4))
        ptr = app.malloc(mib(1), Placement.REMOTE)
        apps.append((app, ptr))

    def hammer(app, ptr, n):
        for i in range(n):
            yield from app.g_read(ptr + (i % 16) * 4096, 64, cached=False)

    procs = []
    for app, ptr in apps:
        for core in range(3):
            procs.append(sim.process(hammer(app, ptr, 25)))
    sim.run()
    assert all(p.ok for p in procs)
    for node_id in (1, 2, 3):
        rmc = cluster.node(node_id).rmc
        assert len(rmc.outstanding) == 0  # nothing stuck in flight
    total_nacks = sum(
        cluster.node(n).rmc.client_nacks.value
        + cluster.node(n).rmc.server_nacks.value
        for n in (1, 2, 3)
    )
    assert total_nacks > 0  # the storm actually happened


def test_single_node_cluster_has_no_donors():
    cluster = Cluster(
        ClusterConfig(network=NetworkConfig(topology="line", dims=(1, 1)))
    )
    app = cluster.session(1)
    ptr = app.malloc(mib(1), Placement.LOCAL)
    app.write_u64(ptr, 5)
    assert app.read_u64(ptr) == 5
    with pytest.raises(AllocationError):
        app.malloc(mib(1), Placement.REMOTE)


def test_deterministic_replay_bit_identical():
    """Same seed, same config -> identical simulated timelines, even
    through NACK storms and contention."""

    def run():
        from repro.apps.randbench import RandomAccessBenchmark

        cluster = _line(4, rmc=RMCConfig(buffer_entries=2))
        bench = RandomAccessBenchmark(cluster, seed=77, buffer_bytes=mib(2))
        rr = bench.run_client(1, [2, 3], threads=4, accesses_per_thread=40)
        return rr.elapsed_ns, rr.thread_times_ns, rr.retransmissions

    assert run() == run()


# -- planned faults (sim/faults.py) ---------------------------------------


def test_armed_empty_plan_is_bit_identical():
    """Arming the fault hooks with an empty plan must not move a single
    event: same final clock, same counters, through a NACK storm."""

    def run(armed):
        cluster = _line(
            3, rmc=RMCConfig(buffer_entries=2, retry_backoff_ns=200.0)
        )
        if armed:
            cluster.arm_faults()
        app = cluster.session(1)
        app.borrow_remote(2, mib(4))
        ptr = app.malloc(mib(1), Placement.REMOTE)
        sim = cluster.sim

        def hammer(n):
            for i in range(n):
                yield from app.g_read(ptr + (i % 16) * 4096, 64, cached=False)

        procs = [sim.process(hammer(30)) for _ in range(3)]
        sim.run()
        assert all(p.ok for p in procs)
        return (
            sim.now,
            cluster.node(1).rmc.retransmissions.value,
            cluster.node(1).rmc.client_nacks.value,
            cluster.node(2).rmc.server_nacks.value,
        )

    assert run(armed=False) == run(armed=True)


def test_donor_crash_mid_workload_fails_fast_and_spares_survivors():
    """Kill a donor under load: the borrower gets RemoteAccessError
    within the watchdog bound, the bookkeeping degrades cleanly, and an
    unrelated session keeps running to completion."""
    cluster = _line(
        4, rmc=RMCConfig(request_timeout_ns=4_000.0, max_retries=3)
    )
    sim = cluster.sim
    victim = cluster.session(1)
    victim.borrow_remote(2, mib(4))
    vptr = victim.malloc(mib(1), Placement.REMOTE)
    survivor = cluster.session(4)
    survivor.borrow_remote(3, mib(4))
    sptr = survivor.malloc(mib(1), Placement.REMOTE)
    outcome = {}

    def victim_proc():
        i = 0
        try:
            while True:
                yield from victim.g_read(
                    vptr + (i % 16) * 64, 64, cached=False
                )
                i += 1
        except RemoteAccessError:
            outcome["err_at"] = sim.now
            outcome["reads"] = i

    def survivor_proc():
        for i in range(100):
            yield from survivor.g_read(
                sptr + (i % 16) * 64, 64, cached=False
            )

    vp = sim.process(victim_proc())
    sp = sim.process(survivor_proc())
    kill_at = sim.now + 50_000
    cluster.arm_faults(FaultPlan().kill_node(2, at_ns=kill_at))
    sim.run()

    assert vp.ok and sp.ok
    assert outcome["reads"] > 0  # made progress before the crash
    cfg = cluster.config.rmc
    bound = cfg.request_timeout_ns * (cfg.max_retries + 2)
    assert outcome["err_at"] - kill_at <= bound
    # bookkeeping degraded, not corrupted
    cluster.regions.check_invariants()
    assert cluster.regions.region_of(1).remote_bytes == 0
    assert cluster.node(1).reservations.held == {}
    assert list(cluster.node(1).reservations.leases.values()) == [
        LeaseState.REVOKED
    ]
    stats = collect_faults(cluster)
    assert stats.dead_nodes == (2,)
    assert stats.revoked_leases == {1: 1}
    # detection came through the watchdog (request was mid-fabric) or
    # the poisoned page table (it was between requests) — either way it
    # was detected, not hung
    assert stats.total_detected > 0 or victim.aspace.poison_faults > 0
    # the dead donor fails fast for new borrowers, survivors still work
    with pytest.raises(RemoteAccessError):
        cluster.borrow(3, 2, mib(1))
    assert len(cluster.node(1).rmc.outstanding) == 0


def test_link_flap_under_load_recovers_every_request():
    """A transient link outage: the watchdog retransmits (unbounded by
    default) until the lane returns; nothing is lost, nothing raises."""
    cluster = _line(3, rmc=RMCConfig(request_timeout_ns=4_000.0))
    sim = cluster.sim
    app = cluster.session(1)
    app.borrow_remote(2, mib(4))
    ptr = app.malloc(mib(1), Placement.REMOTE)

    def hammer(n):
        for i in range(n):
            yield from app.g_read(ptr + (i % 16) * 64, 64, cached=False)

    procs = [sim.process(hammer(80)) for _ in range(2)]
    down_at = sim.now + 3_000
    inj = cluster.arm_faults(
        FaultPlan().fail_link(1, 2, at_ns=down_at, until_ns=down_at + 30_000)
    )
    sim.run()
    assert all(p.ok for p in procs)
    rmc = cluster.node(1).rmc
    assert rmc.timeouts.value > 0  # the outage was noticed
    assert inj.dropped.value > 0  # packets really vanished
    assert rmc.retries_exhausted.value == 0  # and every one was recovered
    assert len(rmc.outstanding) == 0


def test_corrupt_request_is_nacked_and_retried():
    """A poisoned packet fails the decapsulation check at the server,
    is NACKed, and the ordinary retry path recovers — no watchdog or
    special config needed."""
    cluster = _line(3)
    app = cluster.session(1)
    app.borrow_remote(2, mib(4))
    ptr = app.malloc(mib(1), Placement.REMOTE)
    app.write(ptr, b"\xbe" * 64, cached=False)
    inj = cluster.arm_faults(
        FaultPlan().corrupt_packets(
            site="link", ptype=PacketType.READ_REQ, count=1
        )
    )
    assert app.read(ptr, 64, cached=False) == b"\xbe" * 64
    assert inj.corrupted.value == 1
    assert cluster.node(2).rmc.bridge.corrupt_detected.value == 1
    assert cluster.node(2).rmc.server_nacks.value >= 1
    assert cluster.node(1).rmc.retransmissions.value >= 1
    assert len(cluster.node(1).rmc.outstanding) == 0


def test_retry_exhaustion_surfaces_remote_access_error():
    """Every request to the donor is dropped: after max_retries the RMC
    stops hammering and fails the access to the issuing core."""
    cluster = _line(
        3,
        rmc=RMCConfig(request_timeout_ns=2_000.0, max_retries=2),
    )
    app = cluster.session(1)
    app.borrow_remote(2, mib(4))
    ptr = app.malloc(mib(1), Placement.REMOTE)
    cluster.arm_faults(
        FaultPlan().drop_packets(
            site="link", edge=(1, 2), ptype=PacketType.READ_REQ
        )
    )
    with pytest.raises(RemoteAccessError) as ei:
        app.read(ptr, 64, cached=False)
    # the error is structured, not just a message: callers can tell
    # which peer failed, whose region it was, and what was spent
    assert ei.value.node == 2          # the unreachable donor
    assert ei.value.region == 1        # the issuing node's region
    assert isinstance(ei.value.tag, int)
    assert ei.value.retries == cluster.config.rmc.max_retries
    rmc = cluster.node(1).rmc
    assert rmc.retries_exhausted.value == 1
    assert rmc.timeouts.value == cluster.config.rmc.max_retries + 1
    assert len(rmc.outstanding) == 0
    # the core slot came back: a local access still works
    lptr = app.malloc(mib(1), Placement.LOCAL)
    app.write_u64(lptr, 3)
    assert app.read_u64(lptr) == 3


def test_fault_replay_is_deterministic():
    """Same seed + same plan + same workload => identical fault log,
    identical timings, identical stats — drops, kill and all."""

    def run():
        cluster = _line(
            3, rmc=RMCConfig(request_timeout_ns=3_000.0, max_retries=4)
        )
        sim = cluster.sim
        app = cluster.session(1)
        app.borrow_remote(2, mib(2))
        ptr = app.malloc(mib(1), Placement.REMOTE)
        outcome = {}

        def loop():
            i = 0
            try:
                while True:
                    yield from app.g_read(
                        ptr + (i % 8) * 64, 64, cached=False
                    )
                    i += 1
            except RemoteAccessError:
                outcome["err"] = (sim.now, i)

        sim.process(loop())
        plan = (
            FaultPlan(seed=42)
            .drop_packets(
                site="link", ptype=PacketType.READ_REQ, probability=0.3
            )
            .kill_node(2, at_ns=sim.now + 40_000)
        )
        inj = cluster.arm_faults(plan)
        sim.run()
        return (sim.now, outcome.get("err"), tuple(inj.log),
                collect_faults(cluster))

    assert run() == run()


def test_kill_node_is_idempotent():
    """A double kill (timeline entry racing a manual kill, or a health
    declaration on an already-killed node) must not re-run the death
    callbacks or duplicate the log."""
    cluster = _line(3)
    app = cluster.session(1)
    app.borrow_remote(2, mib(2))
    inj = cluster.arm_faults()
    cluster.kill_node(2)
    log_after_first = list(inj.log)
    assert inj.revoked_leases == {1: 1}
    cluster.kill_node(2)
    assert inj.log == log_after_first
    assert inj.dead_nodes == {2}
    # degradation ran exactly once: one revoked lease, counted once
    assert inj.revoked_leases == {1: 1}
    assert list(cluster.node(1).reservations.leases.values()) == [
        LeaseState.REVOKED
    ]
    cluster.regions.check_invariants()


def test_fail_and_restore_link_are_idempotent_and_order_safe():
    cluster = _line(3)
    inj = cluster.arm_faults()
    inj.restore_link(1, 2)  # restoring an up link: no-op, no log entry
    assert inj.log == []
    cluster.fail_link(1, 2)
    cluster.fail_link(1, 2)  # repeat: still one entry
    assert [k for _, k, _ in inj.log] == ["fail_link"]
    inj.restore_link(1, 2)
    inj.restore_link(1, 2)
    assert [k for _, k, _ in inj.log] == ["fail_link", "restore_link"]
    assert inj.down_links == set()
    # kill-then-fail interleavings: each state change logs exactly once
    cluster.kill_node(2)
    cluster.fail_link(1, 2)
    cluster.fail_link(2, 3)
    cluster.kill_node(2)
    cluster.fail_link(1, 2)
    kinds = [k for _, k, _ in inj.log]
    assert kinds.count("kill_node") == 1
    assert kinds.count("fail_link") == 3
    assert inj.down_links == {(1, 2), (2, 1), (2, 3), (3, 2)}
    cluster.regions.check_invariants()


def test_region_invariants_survive_churn(small_cluster):
    """Borrow/return churn across several borrowers never overlaps."""
    cluster = small_cluster
    import itertools

    leases = {}
    plan = [(1, 2), (3, 2), (4, 2), (1, 4), (3, 4)]
    for i, (borrower, donor) in enumerate(itertools.chain(plan, plan)):
        key = (borrower, donor, i % 2)
        if key in leases:
            cluster.give_back(borrower, leases.pop(key))
        else:
            leases[key] = cluster.borrow(borrower, donor, mib(2 + i))
        cluster.regions.check_invariants()
    for (borrower, _, _), lease in leases.items():
        cluster.give_back(borrower, lease)
    for n in range(1, 5):
        assert cluster.regions.region_of(n).remote_bytes == 0
