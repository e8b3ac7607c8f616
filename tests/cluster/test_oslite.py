"""Tests for the OS-lite: free lists, pools, and the donor daemon."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.oslite import FreeList
from repro.errors import AllocationError, ReservationError
from repro.units import PAGE_SIZE, mib


class TestFreeList:
    def test_first_fit_allocation(self):
        fl = FreeList(0, mib(1))
        a = fl.alloc(PAGE_SIZE)
        b = fl.alloc(PAGE_SIZE)
        assert a == 0
        assert b == PAGE_SIZE

    def test_rounds_to_alignment(self):
        fl = FreeList(0, mib(1))
        fl.alloc(100)  # rounds to one page
        assert fl.allocated_bytes == PAGE_SIZE

    def test_free_coalesces(self):
        fl = FreeList(0, mib(1))
        a = fl.alloc(PAGE_SIZE)
        b = fl.alloc(PAGE_SIZE)
        c = fl.alloc(PAGE_SIZE)
        fl.free(a, PAGE_SIZE)
        fl.free(c, PAGE_SIZE)
        fl.free(b, PAGE_SIZE)  # middle: everything merges back
        assert fl.largest_extent == mib(1)

    def test_exhaustion_raises(self):
        fl = FreeList(0, 2 * PAGE_SIZE)
        fl.alloc(2 * PAGE_SIZE)
        with pytest.raises(AllocationError):
            fl.alloc(PAGE_SIZE)

    def test_fragmentation_blocks_contiguous_alloc(self):
        fl = FreeList(0, 4 * PAGE_SIZE)
        chunks = [fl.alloc(PAGE_SIZE) for _ in range(4)]
        fl.free(chunks[0], PAGE_SIZE)
        fl.free(chunks[2], PAGE_SIZE)
        # 2 pages free, but not adjacent
        assert fl.free_bytes == 2 * PAGE_SIZE
        with pytest.raises(AllocationError):
            fl.alloc(2 * PAGE_SIZE)

    def test_double_free_detected(self):
        fl = FreeList(0, mib(1))
        a = fl.alloc(PAGE_SIZE)
        fl.free(a, PAGE_SIZE)
        with pytest.raises(AllocationError):
            fl.free(a, PAGE_SIZE)

    def test_foreign_range_free_rejected(self):
        fl = FreeList(0, mib(1))
        with pytest.raises(AllocationError):
            fl.free(mib(2), PAGE_SIZE)

    def test_validation(self):
        with pytest.raises(AllocationError):
            FreeList(0, 0)
        with pytest.raises(AllocationError):
            FreeList(100, PAGE_SIZE)  # misaligned base
        with pytest.raises(AllocationError):
            FreeList(0, PAGE_SIZE, align=1000)
        fl = FreeList(0, mib(1))
        with pytest.raises(AllocationError):
            fl.alloc(0)

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(1, 16)),
            min_size=1,
            max_size=60,
        )
    )
    def test_conservation_property(self, ops):
        """Property: allocated + free == capacity, always; allocations
        never overlap."""
        fl = FreeList(0, 64 * PAGE_SIZE)
        live: list[tuple[int, int]] = []
        for is_alloc, pages in ops:
            size = pages * PAGE_SIZE
            if is_alloc:
                try:
                    start = fl.alloc(size)
                except AllocationError:
                    continue
                for s, sz in live:
                    assert start + size <= s or s + sz <= start
                live.append((start, size))
            elif live:
                start, size = live.pop()
                fl.free(start, size)
            assert fl.free_bytes + fl.allocated_bytes == 64 * PAGE_SIZE


class TestOSPools:
    def test_pools_split_per_config(self, small_cluster):
        os1 = small_cluster.node(1).os
        cfg = small_cluster.config.node
        assert os1.local_free_bytes == cfg.private_memory_bytes
        assert os1.donated_free_bytes == cfg.donated_memory_bytes

    def test_local_alloc_never_touches_donation_pool(self, small_cluster):
        os1 = small_cluster.node(1).os
        donated_before = os1.donated_free_bytes
        os1.alloc_local(mib(4))
        assert os1.donated_free_bytes == donated_before

    def test_grant_pins_donated_range(self, small_cluster):
        os1 = small_cluster.node(1).os
        grant = os1.grant_reservation(borrower_node=2, size=mib(2))
        assert grant.local_start >= small_cluster.config.node.private_memory_bytes
        assert small_cluster.amap.node_of(grant.prefixed_start) == 1
        assert grant.local_start in os1.grants

    def test_self_reservation_rejected(self, small_cluster):
        with pytest.raises(ReservationError):
            small_cluster.node(1).os.grant_reservation(1, mib(1))

    def test_release_returns_memory(self, small_cluster):
        os1 = small_cluster.node(1).os
        before = os1.donated_free_bytes
        grant = os1.grant_reservation(2, mib(2))
        os1.release_reservation(grant.local_start)
        assert os1.donated_free_bytes == before
        with pytest.raises(ReservationError):
            os1.release_reservation(grant.local_start)

    def test_over_donation_rejected(self, small_cluster):
        os1 = small_cluster.node(1).os
        with pytest.raises(ReservationError):
            os1.grant_reservation(2, os1.donated_free_bytes + PAGE_SIZE)

    def test_duplicate_ack_registration_rejected(self, small_cluster):
        os1 = small_cluster.node(1).os
        os1._expect(5)
        with pytest.raises(ReservationError):
            os1._expect(5)


class TestExchange:
    """``OSLite.ask``/``ask_each``: however an exchange ends, no pending
    ack survives it, and a late ack is unwound rather than raised."""

    def test_ask_each_reports_the_silent_helper_as_none(self, small_cluster):
        from repro.sim.faults import FaultPlan

        sim = small_cluster.sim
        os1 = small_cluster.node(1).os
        inj = small_cluster.arm_faults(FaultPlan().drop_packets(dst=3))
        acks = sim.run_process(
            os1.ask_each([2, 3], 50_000.0, kind="ping_req", target=4,
                         timeout_ns=10_000.0)
        )
        assert acks[0].meta["kind"] == "ping_req_ack"
        assert acks[0].meta["reachable"]
        assert acks[1] is None
        assert inj.dropped.value >= 1
        assert os1._pending_acks == {}
        sim.run()  # nothing late arrives, and nothing raises
        assert os1._pending_acks == {}

    def test_late_ack_is_discarded(self, small_cluster):
        sim = small_cluster.sim
        os1 = small_cluster.node(1).os
        ack = sim.run_process(os1.ask(4, 1.0, kind="probe", seq=1))
        assert ack is None
        assert os1._pending_acks == {}
        sim.run()  # the probe_ack lands after the timeout: no error
        assert os1._pending_acks == {} and os1._orphaned == set()

    def test_late_grant_is_released_again(self, small_cluster):
        sim = small_cluster.sim
        os1 = small_cluster.node(1).os
        donor = small_cluster.node(2).os
        before = donor.donated_free_bytes
        ack = sim.run_process(os1.ask(2, 1.0, kind="reserve", size=mib(1)))
        assert ack is None
        sim.run()  # the donor grants, and the stray grant is released
        assert donor.grants == {}
        assert donor.donated_free_bytes == before
        assert os1._pending_acks == {} and os1._orphaned == set()

    def test_interrupted_timed_probe_leaves_nothing_pending(
        self, small_cluster
    ):
        from repro.sim.engine import Interrupt

        sim = small_cluster.sim
        os1 = small_cluster.node(1).os
        log = []

        def prober():
            try:
                yield from os1.ask(3, 1_000_000.0, kind="probe", seq=1)
            except Interrupt:
                log.append((sim.now, len(os1._pending_acks)))

        proc = sim.process(prober())

        def killer():
            yield sim.timeout(100.0)
            proc.interrupt("stop")

        sim.process(killer())
        sim.run()
        assert log == [(100.0, 0)]
        assert os1._pending_acks == {} and os1._orphaned == set()
