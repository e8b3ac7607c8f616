"""Failure detection and lease lifecycle (cluster/health.py).

Covers the detector state machine (miss -> suspect-hop quarantine ->
declaration), the vouching rule that keeps one failure from becoming
two, the zero-cost-when-disarmed contract, and the borrower/donor lease
state machines including the GRACE window and expiry ordering.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.health import NodeState
from repro.cluster.malloc import Placement
from repro.cluster.reservation import LeaseState
from repro.config import ClusterConfig, HealthConfig, NetworkConfig, RMCConfig
from repro.errors import RemoteAccessError, ReservationError
from repro.sim.faults import FaultPlan
from repro.units import mib


def _line(n=3, **kw):
    return Cluster(
        ClusterConfig(network=NetworkConfig(topology="line", dims=(n, 1)), **kw)
    )


def _ring(n=4, **kw):
    return Cluster(
        ClusterConfig(network=NetworkConfig(topology="ring", dims=(n, 1)), **kw)
    )


def _kinds(monitor):
    return [kind for _, kind, _ in monitor.events]


def _run_and_drain(cluster, horizon_ns):
    cluster.sim.run(until=cluster.sim.now + horizon_ns)
    cluster.health.stop()
    cluster.sim.run()


# -- detection -------------------------------------------------------------


def test_probe_loop_declares_dead_donor():
    cluster = _line(3)
    cluster.borrow(1, 2, mib(2))
    health = cluster.arm_health(HealthConfig(auto_recover=False))
    kill_at = cluster.sim.now + 10_000
    cluster.arm_faults(FaultPlan().kill_node(2, at_ns=kill_at))
    _run_and_drain(cluster, 300_000)

    assert cluster.membership.dead() == {2}
    kinds = _kinds(health)
    assert "dead" in kinds
    # enough consecutive misses to cross the threshold, none cleared
    assert kinds.count("miss") >= health.cfg.miss_threshold
    assert "cleared" not in kinds
    # detection happened after the kill, through real probe timeouts
    dead_at = next(t for t, k, _ in health.events if k == "dead")
    assert dead_at > kill_at
    # degradation ran: the lease is revoked, the region shrank
    assert list(cluster.node(1).reservations.leases.values()) == [
        LeaseState.REVOKED
    ]
    assert cluster.regions.region_of(1).remote_bytes == 0
    cluster.regions.check_invariants()


def test_answered_probe_resets_suspicion():
    """A transient link flap earns a miss, not a death: the next
    answered probe clears the suspicion counter."""
    cluster = _line(3)
    cluster.borrow(1, 2, mib(2))
    health = cluster.arm_health(HealthConfig(auto_recover=False))
    t0 = cluster.sim.now
    cluster.arm_faults(
        FaultPlan().fail_link(1, 2, at_ns=t0 + 15_000, until_ns=t0 + 45_000)
    )
    _run_and_drain(cluster, 200_000)

    kinds = _kinds(health)
    assert "miss" in kinds          # the flap was noticed
    assert "cleared" in kinds       # and forgiven on the next answer
    assert "dead" not in kinds
    assert cluster.membership.dead() == set()
    assert health.suspicion.get((1, 2), 0) == 0


def test_quarantine_skips_edges_vouched_by_healthy_peers():
    """On a 6-ring the route 1->5 runs through 6. Node 6's answered
    probes are live evidence the 1-6 edge works, so when 5 dies the
    detector must quarantine the 5-6 hop, not sever the working 1-6
    edge (which would turn one failure into two)."""
    cluster = _ring(6)
    assert cluster.network.routing.path(1, 5) == [1, 6, 5]
    cluster.borrow(1, 6, mib(2))
    cluster.borrow(1, 5, mib(2))
    health = cluster.arm_health(HealthConfig(auto_recover=False))
    kill_at = cluster.sim.now + 10_000
    cluster.arm_faults(FaultPlan().kill_node(5, at_ns=kill_at))
    _run_and_drain(cluster, 300_000)

    assert cluster.membership.dead() == {5}
    assert cluster.network.routing.quarantined == {(5, 6)}
    assert health.suspicion.get((1, 6), 0) == 0  # the alibi held


def test_quarantine_refused_on_cut_edge():
    """A line topology has no alternate route: the detector must not
    sever the only path, and still escalates to a declaration."""
    cluster = _line(3)
    cluster.borrow(1, 2, mib(2))
    health = cluster.arm_health(HealthConfig(auto_recover=False))
    cluster.arm_faults(
        FaultPlan().kill_node(2, at_ns=cluster.sim.now + 10_000)
    )
    _run_and_drain(cluster, 300_000)

    assert "quarantine_refused" in _kinds(health)
    assert cluster.network.routing.quarantined == set()
    assert cluster.membership.dead() == {2}


def test_armed_idle_health_is_bit_identical():
    """An armed monitor with no watches and no lease TTL schedules
    nothing: same final clock, same counters as a disarmed run, through
    a NACK storm. Corroboration and epoch fencing are switched on for
    the armed run: an idle detector solicits no indirect probes, and
    the fencing hooks only stamp/verify epochs in already-travelling
    packets — neither may perturb timing."""

    def run(armed):
        cluster = _line(
            3, rmc=RMCConfig(buffer_entries=2, retry_backoff_ns=200.0)
        )
        if armed:
            cluster.arm_health(
                HealthConfig(
                    watch_on_borrow=False,
                    indirect_probes=2,
                    quorum_fraction=0.6,
                    epoch_fencing=True,
                )
            )
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
        if armed:
            assert cluster.health.probes_sent == 0
            assert cluster.health.events == []
        return (
            sim.now,
            cluster.node(1).rmc.retransmissions.value,
            cluster.node(1).rmc.client_nacks.value,
            cluster.node(2).rmc.server_nacks.value,
        )

    assert run(armed=False) == run(armed=True)


# -- corroboration, isolation, rejoin --------------------------------------


def test_probe_loop_exit_releases_watch_key():
    """Every probe-loop exit surrenders its (observer, peer) watch key;
    a leaked key would make ``watch()`` a silent no-op forever, so a
    readmitted peer could never be re-watched."""
    cluster = _line(3)
    cluster.borrow(1, 2, mib(2))
    health = cluster.arm_health(HealthConfig(auto_recover=False))
    cluster.arm_faults(
        FaultPlan().kill_node(2, at_ns=cluster.sim.now + 10_000)
    )
    _run_and_drain(cluster, 300_000)

    assert cluster.membership.dead() == {2}
    # the declare exit and the stop exit both ran their finally
    assert health._watches == set()
    # the stable quorum denominator survives the loop exits
    assert health.watch_set == {1: {2}}


def test_restore_clears_quarantine_back_to_native_route():
    """A link flap that got its edge quarantined must not detour
    traffic forever: the fault layer's restore callback clears the
    quarantine and the fabric returns to the native route."""
    cluster = _ring(6)
    assert cluster.network.routing.path(1, 5) == [1, 6, 5]
    cluster.borrow(1, 6, mib(2))
    cluster.borrow(1, 5, mib(2))
    health = cluster.arm_health(HealthConfig(auto_recover=False))
    t0 = cluster.sim.now
    cluster.arm_faults(
        FaultPlan().fail_link(5, 6, at_ns=t0 + 10_000, until_ns=t0 + 200_000)
    )
    _run_and_drain(cluster, 320_000)

    kinds = _kinds(health)
    assert "quarantine" in kinds      # the flap got the 5-6 hop rerouted
    assert "cleared" in kinds         # probes succeeded on the detour
    assert "unquarantined" in kinds   # the restore lifted the detour
    assert "dead" not in kinds
    assert cluster.network.routing.quarantined == set()
    assert cluster.network.routing.path(1, 5) == [1, 6, 5]


def test_indirect_probe_refutes_false_declaration():
    """A broken observer->suspect path is not a death: a solicited
    helper that still reaches the suspect refutes the verdict."""
    cluster = _ring(3)
    cluster.borrow(1, 2, mib(2))
    cluster.borrow(1, 3, mib(2))
    health = cluster.arm_health(
        HealthConfig(
            auto_recover=False,
            indirect_probes=2,
            # 3 == miss_threshold keeps the quarantine reroute from
            # silently repairing the path before corroboration fires
            quarantine_after=3,
        )
    )
    # only the direct 1->2 hop is broken; 1->3 and 3->2 still work
    cluster.arm_faults(FaultPlan().drop_packets(site="link", edge=(1, 2)))
    _run_and_drain(cluster, 400_000)

    kinds = _kinds(health)
    assert "refuted" in kinds
    assert "dead" not in kinds
    assert cluster.membership.dead() == set()


def test_corroborated_declaration_of_real_death():
    """When no helper can vouch either, the declaration proceeds on
    corroborated evidence — a real death is still detected."""
    cluster = _ring(6)
    cluster.borrow(1, 6, mib(2))
    cluster.borrow(1, 5, mib(2))
    health = cluster.arm_health(
        HealthConfig(auto_recover=False, indirect_probes=2)
    )
    cluster.arm_faults(
        FaultPlan().kill_node(5, at_ns=cluster.sim.now + 10_000)
    )
    _run_and_drain(cluster, 500_000)

    kinds = _kinds(health)
    assert cluster.membership.dead() == {5}
    assert "dead" in kinds
    assert "refuted" not in kinds     # helper 6 could not reach 5 either
    assert "isolated" not in kinds    # observer 1 still had quorum via 6
    assert list(cluster.node(1).reservations.leases.values()) == [
        LeaseState.ACTIVE, LeaseState.REVOKED
    ]


def test_isolated_observer_self_fences_and_rejoins():
    """An observer cut off from its whole watch set assumes *it* is the
    minority: no declarations, no new borrows, until probes reach
    quorum again after the heal."""
    cluster = _line(2)
    cluster.borrow(1, 2, mib(2))
    health = cluster.arm_health(
        HealthConfig(auto_recover=False, indirect_probes=2)
    )
    t0 = cluster.sim.now
    cluster.arm_faults(
        FaultPlan().fail_link(1, 2, at_ns=t0 + 10_000, until_ns=t0 + 220_000)
    )
    cluster.sim.run(until=t0 + 180_000)

    assert health.is_isolated(1)
    assert "isolated" in _kinds(health)
    assert cluster.membership.dead() == set()   # self-fenced, not declaring
    with pytest.raises(ReservationError, match="isolated"):
        cluster.borrow(1, 2, mib(1))

    _run_and_drain(cluster, 150_000)
    assert not health.is_isolated(1)
    assert "rejoined" in _kinds(health)
    assert cluster.membership.dead() == set()
    # back above quorum: borrowing works again
    res = cluster.borrow(1, 2, mib(1))
    assert res.size == mib(1)


def test_false_declaration_retracted_on_heal():
    """A flap long enough to cross miss_threshold gets the peer
    declared dead by its single observer; the link restore re-probes
    the declared peer and readmits it as its next incarnation —
    ALIVE again at epoch 1, donation working again."""
    cluster = _line(2)
    cluster.borrow(1, 2, mib(2))
    health = cluster.arm_health(HealthConfig(auto_recover=False))
    t0 = cluster.sim.now
    cluster.arm_faults(
        FaultPlan().fail_link(1, 2, at_ns=t0 + 10_000, until_ns=t0 + 250_000)
    )
    _run_and_drain(cluster, 400_000)

    kinds = _kinds(health)
    assert "dead" in kinds           # the single observer declared
    assert "readmitted" in kinds     # the heal retracted it
    assert cluster.membership.dead() == set()
    assert health.suspicion == {}    # the retraction voided the evidence
    assert cluster.membership.state(2) is NodeState.ALIVE
    assert cluster.membership.epoch(2) == 1
    assert cluster.membership.declared(2, 0)
    assert not cluster.membership.declared(2, 1)
    # the readmitted node donates again
    res = cluster.borrow(1, 2, mib(1))
    assert res.size == mib(1)


def test_symmetric_split_isolates_both_sides():
    """A 50/50 partition must not trigger mutual degrade_donor storms:
    with corroboration armed, both sides lose quorum and self-fence;
    the heal lets both rejoin with nobody ever declared dead."""
    cluster = _ring(4)
    cluster.borrow(1, 3, mib(2))
    cluster.borrow(1, 4, mib(2))
    cluster.borrow(3, 1, mib(2))
    cluster.borrow(3, 2, mib(2))
    health = cluster.arm_health(
        HealthConfig(auto_recover=False, indirect_probes=2)
    )
    t0 = cluster.sim.now
    cluster.arm_faults(
        FaultPlan().partition(
            ({1, 2}, {3, 4}), at_ns=t0 + 10_000, until_ns=t0 + 280_000
        )
    )
    cluster.sim.run(until=t0 + 250_000)

    assert health.isolated == {1, 3}
    assert cluster.membership.dead() == set()
    assert "dead" not in _kinds(health)

    _run_and_drain(cluster, 200_000)
    assert health.isolated == set()
    assert _kinds(health).count("rejoined") == 2
    assert cluster.membership.dead() == set()
    # no lease was revoked on either side: the split cost nothing
    for b in (1, 3):
        assert list(cluster.node(b).reservations.leases.values()) == [
            LeaseState.ACTIVE, LeaseState.ACTIVE
        ]


def test_symmetric_split_without_corroboration_is_a_storm():
    """The contrast case the corroboration layer exists for: single-
    observer verdicts turn a clean 50/50 split into four false death
    declarations that no one can retract (every candidate revalidation
    observer is itself declared dead)."""
    cluster = _ring(4)
    cluster.borrow(1, 3, mib(2))
    cluster.borrow(1, 4, mib(2))
    cluster.borrow(3, 1, mib(2))
    cluster.borrow(3, 2, mib(2))
    health = cluster.arm_health(
        HealthConfig(auto_recover=False, indirect_probes=0)
    )
    t0 = cluster.sim.now
    cluster.arm_faults(
        FaultPlan().partition(
            ({1, 2}, {3, 4}), at_ns=t0 + 10_000, until_ns=t0 + 280_000
        )
    )
    _run_and_drain(cluster, 450_000)

    assert cluster.membership.dead() == {1, 2, 3, 4}
    assert _kinds(health).count("dead") == 4
    assert "readmitted" not in _kinds(health)


# -- lease lifecycle -------------------------------------------------------


def test_lease_renewal_keeps_lease_active():
    cluster = _line(3)
    app = cluster.session(1)
    res = app.borrow_remote(2, mib(2))
    # arm after the synchronous setup: lease daemons are periodic, so a
    # run_process-based borrow would never drain once they exist
    cluster.arm_health(
        HealthConfig(
            lease_ttl_ns=100_000.0,
            renew_margin_ns=40_000.0,
            lease_grace_ns=90_000.0,
            auto_recover=False,
        )
    )
    _run_and_drain(cluster, 500_000)  # several renewal cycles

    client = cluster.node(1).reservations
    assert client.state_of(res) is LeaseState.ACTIVE
    assert res.prefixed_start in client.held
    # renewals landed: the donor never reclaimed (it would have within
    # ttl + grace + one daemon period had they stopped)
    assert cluster.node(2).os.lease_reclaims == []
    assert "lease_expired" not in _kinds(cluster.health)


def test_renew_nack_expires_lease_immediately():
    """A nacked renewal means the grant is gone — no GRACE window, the
    lease expires at once and the pages are poisoned."""
    cluster = _line(3)
    app = cluster.session(1)
    res = app.borrow_remote(2, mib(2))
    ptr = app.malloc(4096, Placement.REMOTE)
    app.write_u64(ptr, 7)
    # the donor's grant vanishes out from under the lease (the dual of
    # a borrower that stopped renewing: here the donor reclaimed first)
    local = cluster.amap.strip_node(res.prefixed_start)
    cluster.node(2).os.release_reservation(local)
    cluster.arm_health(
        HealthConfig(
            lease_ttl_ns=100_000.0,
            renew_margin_ns=40_000.0,
            lease_grace_ns=60_000.0,
            auto_recover=False,
        )
    )
    t0 = cluster.sim.now
    _run_and_drain(cluster, 300_000)

    client = cluster.node(1).reservations
    assert client.state_of(res) is LeaseState.EXPIRED
    assert res.prefixed_start not in client.held
    expired_at = next(
        t for t, k, _ in cluster.health.events if k == "lease_expired"
    )
    # the first renewal (ttl - margin after grant) got the nack; no
    # grace retries pushed expiry out
    assert expired_at - t0 < 100_000.0
    with pytest.raises(RemoteAccessError):
        app.read(ptr, 8, cached=False)
    cluster.regions.check_invariants()


def test_grace_spent_expires_before_donor_reclaims():
    """A partition the detector is blind to (miss_threshold too high):
    renewals time out into GRACE, the grace budget buys retries, and
    the borrower-side expiry lands *before* the donor-side reclaim —
    the borrower must never use frames the donor may have re-granted."""
    cluster = _line(2)
    app = cluster.session(1)
    res = app.borrow_remote(2, mib(2))
    ptr = app.malloc(4096, Placement.REMOTE)
    cluster.arm_health(
        HealthConfig(
            lease_ttl_ns=200_000.0,
            renew_margin_ns=60_000.0,
            lease_grace_ns=90_000.0,
            probe_timeout_ns=30_000.0,
            miss_threshold=100,
            quarantine_after=99,
            auto_recover=False,
        )
    )
    t0 = cluster.sim.now
    renew_start = t0 + 200_000.0 - 60_000.0
    cluster.arm_faults(FaultPlan().fail_link(1, 2, at_ns=t0 + 50_000))
    _run_and_drain(cluster, 450_000)

    health = cluster.health
    client = cluster.node(1).reservations
    assert client.state_of(res) is LeaseState.EXPIRED
    assert cluster.membership.dead() == set()  # detector stayed blind
    expired_at = next(
        t for t, k, _ in health.events if k == "lease_expired"
    )
    # expiry waited for the full grace budget (timeout + 3 retries at
    # 30k each), not a single missed renewal
    assert expired_at - renew_start >= 90_000.0
    # donor-side reclaim (ttl + grace after the grant) came later
    reclaims = cluster.node(2).os.lease_reclaims
    assert len(reclaims) == 1
    reclaimed_at, borrower, local = reclaims[0]
    assert borrower == 1
    assert local == cluster.amap.strip_node(res.prefixed_start)
    assert reclaimed_at > expired_at
    # the donor got its capacity back; the borrower's page is poisoned
    assert cluster.node(2).os.grants == {}
    with pytest.raises(RemoteAccessError):
        app.read(ptr, 8, cached=False)
    cluster.regions.check_invariants()


def test_stale_renewal_daemon_leaves_regranted_lease_alone():
    """Release r1 and borrow r2 at the same start while leases are
    armed. r1's renewal daemon still wakes up; it must find r1 ended
    and exit, not renew under r1's stale epoch and get r2 fenced."""
    cluster = _line(3)
    health = cluster.arm_health(
        HealthConfig(
            lease_ttl_ns=150_000.0,
            renew_margin_ns=50_000.0,
            lease_grace_ns=120_000.0,
            auto_recover=False,
        )
    )
    client = cluster.node(1).reservations
    leases = []

    def driver():
        r1 = yield from cluster.borrow_process(1, 2, mib(2))
        yield from client.release(r1)
        segment = next(
            s for s in cluster.regions.region_of(1).segments
            if s.start == r1.prefixed_start
        )
        cluster.regions.remove_segment(1, segment)
        r2 = yield from cluster.borrow_process(1, 2, mib(2))
        leases.extend((r1, r2))

    cluster.sim.process(driver())
    cluster.sim.run(until=400_000)
    # several renewal rounds of r2 ran; stopping lets one in flight land
    health.stop()
    cluster.sim.run()

    r1, r2 = leases
    assert r2.prefixed_start == r1.prefixed_start
    assert client.state_of(r1) is LeaseState.RELEASED
    assert client.state_of(r2) is LeaseState.ACTIVE
    kinds = _kinds(health)
    assert "lease_fenced" not in kinds
    assert "lease_expired" not in kinds
    local = cluster.amap.strip_node(r2.prefixed_start)
    assert cluster.node(2).os.grants[local].epoch == r2.epoch
