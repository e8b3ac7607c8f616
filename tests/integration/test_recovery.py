"""Automatic region recovery after donor death (cluster/rebalance.py).

Drives the full detect -> re-reserve -> re-materialize -> PTE-rewrite
loop and checks the contract at the tenant's level: recovery is
transparent for clean data, precise (per line) for dirty-and-lost data,
and degrades to PR-4 fail-fast poisoning when no healthy capacity is
reachable.
"""

from __future__ import annotations

import pytest

from repro.cluster import rebalance
from repro.cluster.cluster import Cluster
from repro.cluster.health import NodeState
from repro.cluster.malloc import Placement
from repro.config import ClusterConfig, HealthConfig, NetworkConfig
from repro.errors import RemoteAccessError
from repro.sim.faults import FaultPlan
from repro.units import PAGE_SIZE


def _ring(n=4, **kw):
    return Cluster(
        ClusterConfig(network=NetworkConfig(topology="ring", dims=(n, 1)), **kw)
    )


def _line(n=4, **kw):
    return Cluster(
        ClusterConfig(network=NetworkConfig(topology="line", dims=(n, 1)), **kw)
    )


def _run_and_drain(cluster, horizon_ns):
    cluster.sim.run(until=cluster.sim.now + horizon_ns)
    cluster.health.stop()
    cluster.sim.run()


def test_donor_death_recovery_is_transparent():
    """Kill the donor behind a checkpointed page: the page heals onto a
    healthy donor at the same virtual address, clean lines keep their
    data, and exactly the one line dirtied after the checkpoint is
    reported dirty-and-lost."""
    cluster = _ring(4)
    sim = cluster.sim
    app = cluster.session(1)
    app.borrow_remote(2, PAGE_SIZE)
    ptr = app.malloc(PAGE_SIZE, Placement.REMOTE)
    base = bytes(range(256)) * (PAGE_SIZE // 256)
    app.bulk_write(ptr, base)
    app.checkpoint(ptr)
    old_phys = app.allocator.allocation_at(ptr).phys_start
    # dirty exactly one line after the snapshot (timed, uncached, so it
    # reaches the donor's frames before the crash)
    app.write(ptr + 64, b"\xd1" * 64, cached=False)

    health = cluster.arm_health(HealthConfig())
    kill_at = sim.now + 10_000
    cluster.arm_faults(FaultPlan().kill_node(2, at_ns=kill_at))
    _run_and_drain(cluster, 400_000)

    assert cluster.membership.dead() == {2}
    (report,) = health.recoveries
    assert report.donor == 2
    assert report.sessions == 1
    assert report.allocations == 1
    assert report.unhealed == 0
    assert report.pages == 1
    assert report.lost_lines == 1
    assert report.new_donors and set(report.new_donors) <= {3, 4}
    assert report.detected_ns > kill_at
    assert report.mttr_ns > 0

    # the damage map pins the lost line to its old frame and to the
    # donor incarnation declared dead
    assert cluster.regions.damage_map(1) == {old_phys + 64: (2, 0)}
    assert app.aspace.lost_lines() == [(ptr + 64, 2)]

    # clean lines read back their checkpointed contents, same vaddr
    assert app.read(ptr + 128, 64, cached=False) == base[128:192]
    # the dirty-and-lost line raises, precisely and with structure
    with pytest.raises(RemoteAccessError) as ei:
        app.read(ptr + 64, 64, cached=False)
    assert ei.value.node == 2
    # a full-line overwrite heals it; reads flow again
    app.write(ptr + 64, b"\xd2" * 64, cached=False)
    assert app.read(ptr + 64, 64, cached=False) == b"\xd2" * 64
    assert app.aspace.lost_lines() == []
    assert (
        app.read(ptr, PAGE_SIZE, cached=False)
        == base[:64] + b"\xd2" * 64 + base[128:]
    )

    # no leaked control-plane or fabric state anywhere alive
    for n, node in cluster.nodes.items():
        if n != 2:
            assert node.os._pending_acks == {}
            assert len(node.rmc.outstanding) == 0
    cluster.regions.check_invariants()


def test_partition_leaves_pages_poisoned_but_accounted():
    """Killing node 2 on a line cuts node 1 off from every candidate:
    recovery must give up loudly, leave the pages poisoned, and leak
    nothing."""
    cluster = _line(4)
    app = cluster.session(1)
    app.borrow_remote(2, PAGE_SIZE)
    ptr = app.malloc(PAGE_SIZE, Placement.REMOTE)
    app.bulk_write(ptr, b"\x5a" * PAGE_SIZE)
    app.checkpoint(ptr)

    health = cluster.arm_health(HealthConfig())
    cluster.arm_faults(
        FaultPlan().kill_node(2, at_ns=cluster.sim.now + 10_000)
    )
    _run_and_drain(cluster, 500_000)

    assert cluster.membership.dead() == {2}
    (report,) = health.recoveries
    assert report.unhealed == 1
    assert report.allocations == 0
    assert report.pages == 0
    assert report.new_donors == ()
    assert "unrecoverable" in [k for _, k, _ in health.events]
    # fail-fast degradation: the page stays poisoned, not silently lost
    with pytest.raises(RemoteAccessError) as ei:
        app.read(ptr, 64, cached=False)
    assert ei.value.node == 2
    assert cluster.node(1).os._pending_acks == {}
    assert len(cluster.node(1).rmc.outstanding) == 0
    cluster.regions.check_invariants()


def test_poison_and_lost_line_blame_the_incarnation():
    """Both failure surfaces carry the structured blame ``(node, epoch)``.
    A touch of the page the fault layer poisoned, before any
    declaration, blames the donor's current incarnation (REVOKED, not
    yet declared); after declaration and recovery, a touch of the
    dirty-and-lost line blames the same incarnation, which the
    membership record reports as declared dead."""
    cluster = _ring(4)
    sim = cluster.sim
    app = cluster.session(1)
    app.borrow_remote(2, PAGE_SIZE)
    ptr = app.malloc(PAGE_SIZE, Placement.REMOTE)
    app.bulk_write(ptr, bytes(PAGE_SIZE))
    app.checkpoint(ptr)
    app.write(ptr + 64, b"\xd1" * 64, cached=False)

    cluster.arm_health(HealthConfig())
    cluster.arm_faults(FaultPlan().kill_node(2, at_ns=sim.now + 10_000))
    seen = {}

    def touch():
        yield sim.timeout(11_000)
        seen["state"] = cluster.membership.state(2)
        try:
            yield from app.g_read(ptr, 64, cached=False)
        except RemoteAccessError as exc:
            seen["blame"] = (exc.node, exc.epoch)

    sim.process(touch(), name="test.touch")
    _run_and_drain(cluster, 400_000)

    assert seen == {"state": NodeState.REVOKED, "blame": (2, 0)}
    assert cluster.membership.state(2) is NodeState.DEAD
    with pytest.raises(RemoteAccessError) as ei:
        app.read(ptr + 64, 64, cached=False)
    assert (ei.value.node, ei.value.epoch) == (2, 0)
    assert cluster.membership.declared(2, 0)


def test_re_reserve_times_out_and_falls_through():
    """A black-holed reservation exchange (dropped CTRL packets) must
    not hang recovery: the timed exchange gives up on it and the next
    candidate serves the request."""
    cluster = _ring(4)
    inj = cluster.arm_faults(
        FaultPlan().drop_packets(site="link", edge=(1, 2))
    )
    # candidate order from node 1 is (2, 4, 3): nearest first. Node 2
    # is unreachable through the drop rule, so the timeout fires and
    # the exchange falls through to node 4. The timeout must exceed
    # one full exchange (~30 us of daemon service) or nobody can win.
    res = cluster.sim.run_process(
        rebalance.re_reserve(cluster, 1, PAGE_SIZE, timeout_ns=60_000.0)
    )
    assert res.donor_node == 4
    assert inj.dropped.value >= 1
    # the abandoned exchange left nothing pinned and nothing pending
    assert cluster.node(2).os.grants == {}
    assert len(cluster.node(4).os.grants) == 1
    assert cluster.node(1).os._pending_acks == {}
    cluster.regions.check_invariants()


def test_recovered_page_survives_second_donor_death():
    """Chained recovery: the page heals onto a new donor, that donor
    dies too, and the page heals again. A full mesh keeps the borrower
    connected after both deaths (in a ring, losing both neighbors
    would partition it — that case is test_partition_* above)."""
    cluster = Cluster(
        ClusterConfig(
            network=NetworkConfig(topology="fullmesh", dims=(4, 1))
        )
    )
    sim = cluster.sim
    app = cluster.session(1)
    app.borrow_remote(2, PAGE_SIZE)
    ptr = app.malloc(PAGE_SIZE, Placement.REMOTE)
    app.bulk_write(ptr, b"\x11" * PAGE_SIZE)
    app.checkpoint(ptr)

    health = cluster.arm_health(HealthConfig())
    cluster.arm_faults(FaultPlan().kill_node(2, at_ns=sim.now + 10_000))
    sim.run(until=sim.now + 300_000)
    assert len(health.recoveries) == 1
    first_home = health.recoveries[0].new_donors[0]
    cluster.faults.kill_node(first_home)
    _run_and_drain(cluster, 400_000)

    assert len(health.recoveries) == 2
    second = health.recoveries[1]
    assert second.donor == first_home
    assert second.allocations == 1
    assert second.unhealed == 0
    # clean throughout: both heals restored from the same checkpoint
    assert app.read(ptr, 64, cached=False) == b"\x11" * 64
    assert app.aspace.lost_lines() == []
    cluster.regions.check_invariants()
