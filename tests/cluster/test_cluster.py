"""Tests for cluster assembly and the control-plane verbs."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.cluster.reservation import LeaseState
from repro.config import ClusterConfig, NetworkConfig
from repro.errors import AddressError, AllocationError, ConfigError
from repro.units import gib, mib


def _line(n=3):
    return Cluster(
        ClusterConfig(network=NetworkConfig(topology="line", dims=(n, 1)))
    )


def test_paper_prototype_assembles():
    cluster = Cluster()  # default = the 16-node prototype
    assert cluster.num_nodes == 16
    assert len(cluster.nodes) == 16
    node = cluster.node(1)
    assert len(node.cores) == 16
    assert len(node.mcs) == 4
    assert cluster.config.shared_pool_bytes == 128 * gib(1)


def test_node_ids_start_at_one(small_cluster):
    assert 0 not in small_cluster.nodes
    with pytest.raises(ConfigError):
        small_cluster.node(0)


def test_address_window_fits_node_memory(small_cluster):
    assert (
        small_cluster.amap.window_bytes
        >= small_cluster.config.node.total_memory_bytes
    )


def test_borrow_grows_region_and_checks_invariants(small_cluster):
    res = small_cluster.borrow(1, 2, mib(8))
    region = small_cluster.regions.region_of(1)
    assert region.remote_bytes == mib(8)
    assert res.donor_node == 2


def test_give_back_shrinks_region(small_cluster):
    res = small_cluster.borrow(1, 2, mib(8))
    small_cluster.give_back(1, res)
    assert small_cluster.regions.region_of(1).remote_bytes == 0
    donor_os = small_cluster.node(2).os
    assert donor_os.donated_free_bytes == (
        small_cluster.config.node.donated_memory_bytes
    )


def test_given_back_lease_takes_no_allocation():
    """A returned range leaves the old borrower's allocator: the donor
    grants it to node 3 at the same start, and node 1 can neither
    place an allocation there nor reach node 3's bytes."""
    cluster = _line(3)
    app = cluster.session(1)
    res = app.borrow_remote(2, mib(2))
    cluster.give_back(1, res)
    assert app.allocator.remote_free_bytes == 0
    with pytest.raises(AllocationError):
        app.malloc(4096, Placement.REMOTE)

    tenant = cluster.session(3)
    res3 = tenant.borrow_remote(2, mib(2))
    assert res3.prefixed_start == res.prefixed_start
    ptr = tenant.malloc(4096, Placement.REMOTE)
    tenant.write_u64(ptr, 0xBEEF)
    with pytest.raises(AllocationError):
        app.malloc(4096, Placement.REMOTE)
    assert app.allocator.remote_bytes == 0
    assert tenant.read_u64(ptr) == 0xBEEF


def test_give_back_refuses_while_allocations_remain():
    cluster = _line(3)
    app = cluster.session(1)
    res = app.borrow_remote(2, mib(2))
    ptr = app.malloc(4096, Placement.REMOTE)
    events = cluster.sim.events_scheduled
    with pytest.raises(AllocationError, match="free them"):
        cluster.give_back(1, res)
    assert cluster.sim.events_scheduled == events  # nothing was sent
    local = cluster.amap.strip_node(res.prefixed_start)
    assert local in cluster.node(2).os.grants
    assert cluster.node(1).reservations.state_of(res) is LeaseState.ACTIVE
    assert cluster.regions.region_of(1).remote_bytes == res.size

    app.free(ptr)
    cluster.give_back(1, res)
    assert local not in cluster.node(2).os.grants
    assert cluster.node(1).reservations.state_of(res) is LeaseState.RELEASED
    assert cluster.regions.region_of(1).remote_bytes == 0


def test_give_back_of_ended_lease_is_noop():
    cluster = _line(3)
    res = cluster.borrow(1, 2, mib(2))
    cluster.kill_node(2)
    assert cluster.node(1).reservations.state_of(res) is LeaseState.REVOKED
    cluster.give_back(1, res)
    assert cluster.node(1).reservations.state_of(res) is LeaseState.REVOKED
    assert cluster.regions.region_of(1).remote_bytes == 0


def test_fn_read_write_resolves_prefix(small_cluster):
    amap = small_cluster.amap
    addr = amap.encode(3, 0x1000)
    small_cluster.fn_write(addr, b"xyz")
    assert small_cluster.fn_read(addr, 3) == b"xyz"
    # it landed in node 3's backing store
    assert small_cluster.node(3).backing.read(0x1000, 3) == b"xyz"


def test_fn_access_requires_prefix(small_cluster):
    with pytest.raises(AddressError):
        small_cluster.fn_read(0x1000, 4)


def test_hops_delegates_to_fabric(small_cluster):
    assert small_cluster.hops(1, 4) == 3  # line topology


def test_mc_for_lookup(small_cluster):
    node = small_cluster.node(1)
    cap = small_cluster.config.node.dram.capacity_bytes
    assert node.mc_for(0) is node.mcs[0]
    assert node.mc_for(cap) is node.mcs[1]
    with pytest.raises(LookupError):
        node.mc_for(cap * len(node.mcs))


def test_too_many_nodes_for_prefix_rejected():
    cfg = ClusterConfig(
        network=NetworkConfig(topology="mesh", dims=(128, 128))
    )
    with pytest.raises(ConfigError):
        Cluster(cfg)


def test_sessions_on_same_node_share_os(small_cluster):
    a = small_cluster.session(1)
    b = small_cluster.session(1)
    before = small_cluster.node(1).os.local_free_bytes
    from repro.cluster.malloc import Placement

    a.malloc(mib(1), Placement.LOCAL)
    b.malloc(mib(1), Placement.LOCAL)
    assert small_cluster.node(1).os.local_free_bytes == before - mib(2)
