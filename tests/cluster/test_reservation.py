"""Tests for the Fig. 4 reservation protocol over the simulated fabric."""

from __future__ import annotations

import pytest

from repro.cluster.reservation import LeaseState
from repro.errors import ReservationError
from repro.units import gib, mib


def test_reserve_roundtrip(small_cluster):
    cluster = small_cluster
    node1 = cluster.node(1)
    res = cluster.sim.run_process(node1.reservations.reserve(2, mib(16)))
    assert res.donor_node == 2
    assert res.size == mib(16)
    assert cluster.amap.node_of(res.prefixed_start) == 2
    # donor actually pinned it
    donor_os = cluster.node(2).os
    assert donor_os.donated_free_bytes == (
        cluster.config.node.donated_memory_bytes - mib(16)
    )
    assert res.prefixed_start in node1.reservations.held


def test_reserve_takes_simulated_time(small_cluster):
    cluster = small_cluster
    t0 = cluster.sim.now
    cluster.sim.run_process(
        cluster.node(1).reservations.reserve(2, mib(1))
    )
    # two fabric crossings + OS service on both ends
    assert cluster.sim.now - t0 > 10_000


def test_release_roundtrip(small_cluster):
    cluster = small_cluster
    node1 = cluster.node(1)
    donor_os = cluster.node(2).os
    before = donor_os.donated_free_bytes
    res = cluster.sim.run_process(node1.reservations.reserve(2, mib(4)))
    cluster.sim.run_process(node1.reservations.release(res))
    assert donor_os.donated_free_bytes == before
    assert res.prefixed_start not in node1.reservations.held


def test_donor_decline_propagates(small_cluster):
    cluster = small_cluster
    node1 = cluster.node(1)
    huge = cluster.config.node.donated_memory_bytes + gib(1)
    with pytest.raises(ReservationError, match="declined"):
        cluster.sim.run_process(node1.reservations.reserve(2, huge))


def test_self_reservation_rejected(small_cluster):
    node1 = small_cluster.node(1)
    with pytest.raises(ReservationError):
        small_cluster.sim.run_process(node1.reservations.reserve(1, mib(1)))


def test_invalid_size_rejected(small_cluster):
    node1 = small_cluster.node(1)
    with pytest.raises(ReservationError):
        small_cluster.sim.run_process(node1.reservations.reserve(2, 0))


def test_release_of_unheld_lease_rejected(small_cluster):
    from repro.cluster.reservation import Reservation

    node1 = small_cluster.node(1)
    fake = Reservation(donor_node=2, prefixed_start=small_cluster.amap.encode(2, 0),
                       size=mib(1))
    with pytest.raises(ReservationError):
        small_cluster.sim.run_process(node1.reservations.release(fake))


def test_interrupted_reserve_leaves_no_leaked_ack_or_pin(small_cluster):
    """An interrupt mid-reserve must not leak the pending-ack tag or the
    donor's pinned range: the late ack is unwound by a stray release."""
    from repro.sim.engine import Interrupt

    cluster = small_cluster
    sim = cluster.sim
    node1 = cluster.node(1)
    donor_os = cluster.node(2).os
    before = donor_os.donated_free_bytes

    def borrower():
        yield from node1.reservations.reserve(2, mib(4))

    p = sim.process(borrower())

    def killer():
        yield sim.timeout(1_000.0)  # mid-exchange: ctrl or ack in flight
        p.interrupt("cancelled")

    sim.process(killer())
    with pytest.raises(Interrupt):
        sim.run()
    sim.run()  # drain: the donor's late ack arrives and is unwound
    assert node1.os._pending_acks == {}
    assert donor_os.grants == {}
    assert donor_os.donated_free_bytes == before
    assert node1.reservations.held == {}
    # the borrower is fully functional afterwards
    res = sim.run_process(node1.reservations.reserve(2, mib(4)))
    sim.run_process(node1.reservations.release(res))
    assert donor_os.donated_free_bytes == before


def test_interrupted_release_can_be_retried(small_cluster):
    """An interrupt mid-release leaves the lease retryable; the retry is
    a clean no-op on the donor (idempotent release handling)."""
    from repro.sim.engine import Interrupt

    cluster = small_cluster
    sim = cluster.sim
    node1 = cluster.node(1)
    donor_os = cluster.node(2).os
    before = donor_os.donated_free_bytes
    res = sim.run_process(node1.reservations.reserve(2, mib(4)))

    def releaser():
        yield from node1.reservations.release(res)

    p = sim.process(releaser())

    def killer():
        yield sim.timeout(1_000.0)
        p.interrupt("cancelled")

    sim.process(killer())
    with pytest.raises(Interrupt):
        sim.run()
    sim.run()  # drain the orphaned release ack
    assert node1.os._pending_acks == {}
    # the retry settles the lease no matter how far the first attempt got
    sim.run_process(node1.reservations.release(res))
    assert donor_os.grants == {}
    assert donor_os.donated_free_bytes == before
    assert node1.reservations.held == {}


def test_release_is_idempotent_after_success(small_cluster):
    cluster = small_cluster
    node1 = cluster.node(1)
    res = cluster.sim.run_process(node1.reservations.reserve(2, mib(4)))
    cluster.sim.run_process(node1.reservations.release(res))
    # a retry (e.g. after a suspected-lost ack) is a clean no-op
    assert cluster.sim.run_process(node1.reservations.release(res)) is None


def test_release_of_revoked_lease_is_noop(small_cluster):
    """After a donor crash the lease is revoked; releasing it must not
    try to talk to the dead node."""
    cluster = small_cluster
    node1 = cluster.node(1)
    res = cluster.sim.run_process(node1.reservations.reserve(2, mib(4)))
    lost = node1.reservations.revoke_donor(2)
    assert lost == [res]
    assert node1.reservations.held == {}
    assert node1.reservations.state_of(res) is LeaseState.REVOKED
    t0 = cluster.sim.now
    assert cluster.sim.run_process(node1.reservations.release(res)) is None
    assert cluster.sim.now == t0  # no fabric exchange happened


def test_concurrent_reservations_from_two_borrowers(small_cluster):
    """Nodes 1 and 3 borrow from node 2 at the same time; the donor's
    daemon serializes them onto disjoint ranges."""
    cluster = small_cluster
    sim = cluster.sim
    p1 = sim.process(cluster.node(1).reservations.reserve(2, mib(8)))
    p3 = sim.process(cluster.node(3).reservations.reserve(2, mib(8)))
    sim.run()
    r1, r3 = p1.value, p3.value
    lo1 = cluster.amap.strip_node(r1.prefixed_start)
    lo3 = cluster.amap.strip_node(r3.prefixed_start)
    assert lo1 + r1.size <= lo3 or lo3 + r3.size <= lo1


def test_regranted_range_is_released_again(small_cluster):
    """A donor that gets a range back may grant it again at the same
    prefixed start under a new epoch; that second lease is its own
    record, and releasing it returns the range to the donor."""
    cluster = small_cluster
    client = cluster.node(1).reservations
    donor_os = cluster.node(2).os
    r1 = cluster.borrow(1, 2, mib(2))
    cluster.give_back(1, r1)
    r2 = cluster.borrow(1, 2, mib(2))
    assert r2.prefixed_start == r1.prefixed_start
    assert r2.epoch > r1.epoch
    cluster.give_back(1, r2)
    assert donor_os.grants == {}
    assert client.held == {}
    assert client.state_of(r1) is LeaseState.RELEASED
    assert client.state_of(r2) is LeaseState.RELEASED
