"""Partition fault primitives and epoch-fenced leases.

Covers the :meth:`~repro.sim.faults.FaultPlan.partition` schedule (cut
exactness, heal exactness, coverage validation, flapping), the restore
callback chain that drives rejoin healing, and the epoch fence: after a
donor reclaims and re-grants a range, a stale borrower's access is
NACKed with ``RemoteAccessError(reason="fenced")`` instead of touching
the new tenant's memory.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.cluster.reservation import LeaseState
from repro.config import ClusterConfig, HealthConfig, NetworkConfig
from repro.errors import ConfigError, RemoteAccessError
from repro.sim.faults import FaultPlan, random_plan
from repro.units import mib


def _line(n=3, **kw):
    return Cluster(
        ClusterConfig(network=NetworkConfig(topology="line", dims=(n, 1)), **kw)
    )


def _ring(n=4, **kw):
    return Cluster(
        ClusterConfig(network=NetworkConfig(topology="ring", dims=(n, 1)), **kw)
    )


# -- plan validation -------------------------------------------------------


def test_partition_plan_rejects_bad_groups():
    plan = FaultPlan()
    with pytest.raises(ConfigError, match="two groups"):
        plan.partition(({1, 2},), at_ns=0)
    with pytest.raises(ConfigError, match="overlap"):
        plan.partition(({1, 2}, {2, 3}), at_ns=0)
    with pytest.raises(ConfigError, match="empty"):
        plan.partition(({1, 2}, set()), at_ns=0)
    with pytest.raises(ConfigError, match="until_ns"):
        plan.partition(({1}, {2}), at_ns=10, until_ns=10)
    with pytest.raises(ConfigError, match="cycle"):
        plan.flap_partition(({1}, {2}), at_ns=0, span_ns=10, cycles=0)
    with pytest.raises(ConfigError, match="span_ns"):
        plan.flap_partition(({1}, {2}), at_ns=0, span_ns=0)
    with pytest.raises(ConfigError, match="gap_ns"):
        plan.flap_partition(({1}, {2}), at_ns=0, span_ns=10, gap_ns=-1)
    assert plan.timeline == []  # nothing half-recorded


def test_partition_requires_full_node_coverage():
    cluster = _ring(4)
    cluster.arm_faults()
    with pytest.raises(ConfigError, match="node 3 is in no group"):
        cluster.faults.partition(({1, 2}, {4}))
    assert cluster.faults.down_links == set()


def test_partition_requires_attached_network():
    from repro.sim.engine import Simulator
    from repro.sim.faults import FaultInjector

    inj = FaultInjector(Simulator(), FaultPlan())
    with pytest.raises(ConfigError, match="attached network"):
        inj.partition(({1}, {2}))


# -- cut and heal exactness ------------------------------------------------


def test_partition_cuts_exactly_the_cross_group_links():
    """On a 4-ring, splitting {1,2}|{3,4} severs (2,3) and (1,4) and
    nothing else; the heal restores exactly those."""
    cluster = _ring(4)
    t0 = cluster.sim.now
    cluster.arm_faults(
        FaultPlan().partition(
            ({1, 2}, {3, 4}), at_ns=t0 + 10_000, until_ns=t0 + 50_000
        )
    )
    cluster.sim.run(until=t0 + 30_000)
    assert cluster.faults.down_links == {(2, 3), (3, 2), (1, 4), (4, 1)}
    cluster.sim.run(until=t0 + 60_000)
    assert cluster.faults.down_links == set()
    kinds = [k for _, k, _ in cluster.faults.log]
    assert "partition" in kinds and "heal_partition" in kinds


def test_heal_never_resurrects_an_independently_failed_link():
    """A link that failed on its own before the split stays down after
    the heal: the partition restores only the damage it did."""
    cluster = _ring(4)
    t0 = cluster.sim.now
    plan = (
        FaultPlan()
        .fail_link(2, 3, at_ns=t0 + 5_000)  # independent, no restore
        .partition(({1, 2}, {3, 4}), at_ns=t0 + 10_000, until_ns=t0 + 50_000)
    )
    cluster.arm_faults(plan)
    cluster.sim.run(until=t0 + 60_000)
    assert cluster.faults.down_links == {(2, 3), (3, 2)}


def test_flap_partition_schedules_every_cycle():
    plan = FaultPlan().flap_partition(
        ({1, 2}, {3, 4}), at_ns=100.0, span_ns=50.0, cycles=3, gap_ns=25.0
    )
    kinds = [(at, kind) for at, _seq, kind, _args in sorted(plan.timeline)]
    assert kinds == [
        (100.0, "partition"), (150.0, "heal_partition"),
        (175.0, "partition"), (225.0, "heal_partition"),
        (250.0, "partition"), (300.0, "heal_partition"),
    ]


def test_restore_callback_fires_once_per_actual_restore():
    cluster = _ring(4)
    seen: list[tuple[int, int]] = []
    t0 = cluster.sim.now
    cluster.arm_faults(
        FaultPlan().fail_link(1, 2, at_ns=t0 + 10_000, until_ns=t0 + 20_000)
    )
    cluster.faults.on_link_restore(lambda a, b: seen.append((a, b)))
    cluster.sim.run(until=t0 + 30_000)
    assert seen == [(1, 2)]
    cluster.faults.restore_link(1, 2)  # already up: no-op, no callback
    assert seen == [(1, 2)]


def test_random_plan_partitions_extend_without_perturbing_old_draws():
    """Adding partition draws must not shift any earlier draw: the same
    seed yields the same kills/flaps/rules, with the split appended."""
    kw = dict(
        nodes=[1, 2, 3, 4, 5, 6],
        edges=[(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)],
        duration_ns=600_000.0,
        protect=(1, 6),
    )
    base = random_plan(11, **kw)
    grown = random_plan(11, partitions=2, **kw)
    assert grown.timeline[: len(base.timeline)] == base.timeline
    assert [r for r in grown.rules] == [r for r in base.rules]
    extra = {k for _at, _s, k, _a in grown.timeline[len(base.timeline):]}
    assert extra <= {"partition", "heal_partition"}
    assert "partition" in extra
    # every drawn split covers all nodes and shields the protected set
    for _at, _s, kind, args in grown.timeline[len(base.timeline):]:
        if kind != "partition":
            continue
        groups = args[0]
        assert sorted(n for g in groups for n in g) == kw["nodes"]
        minority = set(groups[0])
        assert minority.isdisjoint({1, 6})


# -- epoch fencing ---------------------------------------------------------


def test_grants_carry_monotonic_epochs():
    cluster = _line(3)
    r1 = cluster.borrow(1, 2, mib(2))
    r2 = cluster.borrow(3, 2, mib(2))
    assert (r1.epoch, r2.epoch) == (1, 2)
    local = cluster.amap.strip_node(r1.prefixed_start)
    assert cluster.node(2).os.grants[local].epoch == 1
    # release + re-grant of the same range bumps the epoch
    cluster.give_back(1, r1)
    r3 = cluster.borrow(1, 2, mib(2))
    assert r3.prefixed_start == r1.prefixed_start
    assert r3.epoch == 3


def test_stale_epoch_access_is_fenced_not_applied():
    """The SWMR invariant across epochs: after the donor reclaims and
    re-grants a range, the old borrower's in-flight epoch no longer
    matches and the donor RMC refuses the access — the new tenant's
    bytes are untouched and the staleness is loud."""
    cluster = _line(3)
    app = cluster.session(1)
    res = app.borrow_remote(2, mib(2))
    ptr = app.malloc(4096, Placement.REMOTE)
    app.write_u64(ptr, 0xDEAD)
    cluster.arm_health(
        HealthConfig(watch_on_borrow=False, epoch_fencing=True)
    )
    assert app.read_u64(ptr) == 0xDEAD  # valid epoch still admitted

    # the donor reclaims out from under the (infinite) lease and
    # re-grants the very same range to node 3. The global region view
    # (ground truth) tracks the reclaim; the borrower's node-local
    # state — page tables, held leases, epoch — is what stays stale.
    local = cluster.amap.strip_node(res.prefixed_start)
    cluster.node(2).os.release_reservation(local)
    seg = next(
        s
        for s in cluster.regions.region_of(1).segments
        if s.start == res.prefixed_start
    )
    cluster.regions.remove_segment(1, seg)
    tenant = cluster.session(3)
    res3 = tenant.borrow_remote(2, mib(2))
    assert cluster.amap.strip_node(res3.prefixed_start) == local
    assert res3.epoch == res.epoch + 1
    tptr = tenant.malloc(4096, Placement.REMOTE)
    tenant.write_u64(tptr, 0xBEEF)

    with pytest.raises(RemoteAccessError) as exc:
        app.read(ptr, 8, cached=False)
    assert exc.value.reason == "fenced"
    with pytest.raises(RemoteAccessError) as exc:
        app.write(ptr, b"\x00" * 8, cached=False)
    assert exc.value.reason == "fenced"
    assert cluster.node(2).rmc.fenced.value >= 2
    assert tenant.read_u64(tptr) == 0xBEEF  # the new tenant is untouched


def test_fencing_disarmed_keeps_legacy_behaviour():
    """Without ``epoch_fencing`` the donor RMC performs no admission
    check — the hooks stay None and stale accesses fall through to the
    legacy path (whatever the backing store holds)."""
    cluster = _line(3)
    app = cluster.session(1)
    res = app.borrow_remote(2, mib(2))
    ptr = app.malloc(4096, Placement.REMOTE)
    app.write_u64(ptr, 7)
    assert cluster.node(1).rmc._lease_epochs is None
    assert cluster.node(2).rmc._fence is None
    local = cluster.amap.strip_node(res.prefixed_start)
    cluster.node(2).os.release_reservation(local)
    # no fence: the read still lands on the (reclaimed) range
    assert app.read_u64(ptr) == 7
    assert cluster.node(2).rmc.fenced.value == 0


def test_fenced_renewal_moves_lease_to_terminal_fenced_state():
    """A renewal carrying a stale epoch is the protocol-level tell that
    the donor re-granted: the borrower's lease jumps to FENCED (not
    GRACE — retrying cannot help) and its pages are torn down."""
    cluster = _line(3)
    app = cluster.session(1)
    res = app.borrow_remote(2, mib(2))
    ptr = app.malloc(4096, Placement.REMOTE)
    app.write_u64(ptr, 7)
    # donor-side reclaim + re-grant before the first renewal fires;
    # ground truth (the region view) follows the reclaim, the
    # borrower's node-local lease state is what goes stale
    local = cluster.amap.strip_node(res.prefixed_start)
    cluster.node(2).os.release_reservation(local)
    seg = next(
        s
        for s in cluster.regions.region_of(1).segments
        if s.start == res.prefixed_start
    )
    cluster.regions.remove_segment(1, seg)
    res3 = cluster.borrow(3, 2, mib(2))
    assert cluster.amap.strip_node(res3.prefixed_start) == local
    health = cluster.arm_health(
        HealthConfig(
            lease_ttl_ns=100_000.0,
            renew_margin_ns=40_000.0,
            lease_grace_ns=60_000.0,
            auto_recover=False,
            epoch_fencing=True,
        )
    )
    cluster.sim.run(until=cluster.sim.now + 200_000)
    health.stop()
    cluster.sim.run()

    client = cluster.node(1).reservations
    assert client.state_of(res) is LeaseState.FENCED
    assert res.prefixed_start not in client.held
    kinds = [k for _, k, _ in health.events]
    assert "lease_fenced" in kinds and "lease_expired" not in kinds
    with pytest.raises(RemoteAccessError):
        app.read(ptr, 8, cached=False)
    # node 3's lease is untouched by the teardown
    assert cluster.node(3).reservations.state_of(res3) is LeaseState.ACTIVE
    cluster.regions.check_invariants()
