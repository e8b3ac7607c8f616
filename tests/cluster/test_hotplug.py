"""Tests for memory hot-remove/hot-add (Section III's kernel support)."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.cluster.reservation import LeaseState
from repro.config import ClusterConfig, HealthConfig, NetworkConfig
from repro.errors import AllocationError, ReservationError
from repro.sim.faults import FaultPlan
from repro.units import PAGE_SIZE, mib


@pytest.fixture
def os1(small_cluster):
    return small_cluster.node(1).os


def test_hot_remove_moves_capacity_to_local(os1):
    donated_before = os1.donated_free_bytes
    start = os1.hot_remove_donation(mib(64))
    assert os1.donated_free_bytes == donated_before - mib(64)
    assert os1.hot_removed_bytes == mib(64)
    assert start >= os1.private_pool.size  # range keeps donated addresses


def test_reclaimed_range_serves_local_allocations(small_cluster):
    os1 = small_cluster.node(1).os
    private = small_cluster.config.node.private_memory_bytes
    # exhaust the boot-time pool, then hot-remove and allocate again
    os1.alloc_local(private)
    with pytest.raises(AllocationError):
        os1.alloc_local(mib(1))
    os1.hot_remove_donation(mib(8))
    addr = os1.alloc_local(mib(1))
    assert addr >= private
    os1.free_local(addr, mib(1))


def test_hot_add_requires_idle_range(os1):
    start = os1.hot_remove_donation(mib(8))
    addr = os1.alloc_local(os1.private_pool.size)  # still fits private
    del addr
    taken = os1._reclaimed[start].alloc(mib(1))
    with pytest.raises(ReservationError, match="still has"):
        os1.hot_add_donation(start)
    os1._reclaimed[start].free(taken, mib(1))
    os1.hot_add_donation(start)
    assert os1.hot_removed_bytes == 0


def test_hot_add_restores_donation_capacity(os1):
    before = os1.donated_free_bytes
    start = os1.hot_remove_donation(mib(16))
    os1.hot_add_donation(start)
    assert os1.donated_free_bytes == before
    # and the range can be granted again
    os1.grant_reservation(2, before)


def test_hot_remove_cannot_take_granted_memory(os1):
    os1.grant_reservation(2, os1.donated_free_bytes)  # pin everything
    with pytest.raises(ReservationError, match="hot-remove"):
        os1.hot_remove_donation(mib(1))


def test_hot_add_of_unknown_range_rejected(os1):
    with pytest.raises(ReservationError, match="no hot-removed"):
        os1.hot_add_donation(0xDEAD000)


@pytest.mark.slow
def test_malloc_through_reclaimed_memory_end_to_end(small_cluster):
    """A process can actually use hot-removed memory via malloc."""
    app = small_cluster.session(1)
    os1 = small_cluster.node(1).os
    private = small_cluster.config.node.private_memory_bytes
    app.malloc(private, Placement.LOCAL)  # drain boot-time pool
    os1.hot_remove_donation(mib(8))
    ptr = app.malloc(mib(2), Placement.LOCAL)
    app.write_u64(ptr, 99)
    assert app.read_u64(ptr) == 99
    alloc = app.allocator.allocation_at(ptr)
    assert not alloc.remote
    assert alloc.phys_start >= private


def test_free_outside_every_pool_rejected(os1):
    with pytest.raises(AllocationError):
        os1.free_local(os1.config.total_memory_bytes - 4096, 4096)


# -- hot-plug under the failure model --------------------------------------


def test_hot_removed_capacity_is_excluded_from_recovery():
    """Recovery candidates are ranked by distance, but a donor whose
    donation pool was hot-removed for local use has nothing to give:
    re-reserve must skip it, not race its local processes for frames."""
    cluster = Cluster(
        ClusterConfig(network=NetworkConfig(topology="ring", dims=(4, 1)))
    )
    app = cluster.session(1)
    app.borrow_remote(2, PAGE_SIZE)
    app.malloc(PAGE_SIZE, Placement.REMOTE)
    # node 4 is the nearest surviving candidate (1 hop vs 2 to node 3)
    # — drain its donation pool into local use before the crash
    os4 = cluster.node(4).os
    os4.hot_remove_donation(os4.donated_free_bytes)
    assert os4.donated_free_bytes == 0
    health = cluster.arm_health(HealthConfig())
    cluster.arm_faults(
        FaultPlan().kill_node(2, at_ns=cluster.sim.now + 10_000)
    )
    cluster.sim.run(until=cluster.sim.now + 400_000)
    cluster.health.stop()
    cluster.sim.run()

    (report,) = health.recoveries
    assert report.unhealed == 0
    assert report.new_donors == (3,)
    cluster.regions.check_invariants()


def test_kill_of_node_with_hot_removed_memory_keeps_invariants(
    small_cluster,
):
    cluster = small_cluster
    app = cluster.session(1)
    app.borrow_remote(2, mib(4))
    os2 = cluster.node(2).os
    start = os2.hot_remove_donation(mib(8))
    os2.alloc_local(os2.private_pool.free_bytes)  # drain the boot pool
    local = os2.alloc_local(mib(1))  # spills into the reclaimed range
    assert local >= os2.private_pool.size
    cluster.kill_node(2)
    # the dead node's hot-plug state is inert, the survivors'
    # bookkeeping degraded cleanly
    assert os2.hot_removed_bytes == mib(8)
    assert start in os2._reclaimed
    assert list(cluster.node(1).reservations.leases.values()) == [
        LeaseState.REVOKED
    ]
    cluster.regions.check_invariants()


def test_lease_reclaim_returns_range_for_hot_remove(small_cluster):
    """Donor-side close of the lease loop: a borrower that stops
    renewing loses its grant at ttl + grace, and the reclaimed range
    is ordinary donation capacity again — hot-removable for local
    pressure."""
    cluster = small_cluster
    os2 = cluster.node(2).os
    donated_before = os2.donated_free_bytes
    cluster.borrow(1, 2, mib(4))
    # arm donor-side leases only: no borrower renewal daemon exists, so
    # the grant must lapse
    horizon = cluster.sim.now + 400_000
    os2.arm_leases(
        100_000.0, 50_000.0, stop=lambda: cluster.sim.now >= horizon
    )
    cluster.sim.run()

    assert len(os2.lease_reclaims) == 1
    _, borrower, _ = os2.lease_reclaims[0]
    assert borrower == 1
    assert os2.grants == {}
    assert os2.donated_free_bytes == donated_before
    # the whole pool, lapsed lease included, can leave the cluster
    start = os2.hot_remove_donation(donated_before)
    assert os2.donated_free_bytes == 0
    os2.hot_add_donation(start)
