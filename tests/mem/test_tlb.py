"""Tests for the TLB."""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.mem.tlb import TLB


def test_miss_then_hit():
    tlb = TLB(entries=4)
    assert tlb.lookup(5) is None
    tlb.insert(5, 0x5000)
    assert tlb.lookup(5) == 0x5000
    assert tlb.hits == 1
    assert tlb.misses == 1


def test_lru_replacement():
    tlb = TLB(entries=2)
    tlb.insert(1, 0x1000)
    tlb.insert(2, 0x2000)
    tlb.lookup(1)            # 1 becomes MRU
    tlb.insert(3, 0x3000)    # evicts 2
    assert tlb.lookup(1) == 0x1000
    assert tlb.lookup(2) is None
    assert tlb.lookup(3) == 0x3000


def test_reinsert_updates_translation():
    tlb = TLB(entries=4)
    tlb.insert(1, 0x1000)
    tlb.insert(1, 0x9000)
    assert tlb.lookup(1) == 0x9000
    assert len(tlb) == 1


def test_invalidate_single_entry():
    tlb = TLB()
    tlb.insert(7, 0x7000)
    tlb.invalidate(7)
    assert tlb.lookup(7) is None
    tlb.invalidate(99)  # idempotent on absent vpn


def test_flush_clears_everything():
    tlb = TLB()
    for vpn in range(8):
        tlb.insert(vpn, vpn << 12)
    tlb.flush()
    assert len(tlb) == 0
    assert tlb.flushes == 1


def test_hit_rate():
    tlb = TLB()
    tlb.lookup(0)
    tlb.insert(0, 0)
    tlb.lookup(0)
    assert tlb.hit_rate == pytest.approx(0.5)


def test_capacity_validated():
    with pytest.raises(ConfigError):
        TLB(entries=0)


def test_capacity_never_exceeded():
    tlb = TLB(entries=3)
    for vpn in range(10):
        tlb.insert(vpn, vpn << 12)
    assert len(tlb) == 3


class _RefTLB:
    """Exact LRU over vpns, the executable spec of :class:`TLB`."""

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self.map: OrderedDict[int, int] = OrderedDict()

    def lookup(self, vpn):
        if vpn not in self.map:
            return None
        self.map.move_to_end(vpn)
        return self.map[vpn]

    def insert(self, vpn, phys):
        self.map[vpn] = phys
        self.map.move_to_end(vpn)
        while len(self.map) > self.entries:
            self.map.popitem(last=False)

    def invalidate(self, vpn):
        self.map.pop(vpn, None)

    def flush(self):
        self.map.clear()


_TLB_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), st.integers(0, 11)),
        st.tuples(st.just("insert"), st.integers(0, 11)),
        st.tuples(st.just("invalidate"), st.integers(0, 11)),
        st.tuples(st.just("flush"), st.just(0)),
    ),
    max_size=120,
)


@settings(max_examples=300, deadline=None)
@given(entries=st.integers(1, 6), ops=_TLB_OPS)
def test_tlb_matches_reference_lru(entries, ops):
    """Lookups, re-inserts, invalidations and flushes over a few vpns
    (so lines are reused and evicted): the same hit/miss sequence,
    translations, residency and recency order as the reference."""
    tlb, ref = TLB(entries=entries), _RefTLB(entries)
    outcomes, ref_outcomes = [], []
    for i, (op, vpn) in enumerate(ops):
        if op == "lookup":
            outcomes.append(tlb.lookup(vpn))
            ref_outcomes.append(ref.lookup(vpn))
        elif op == "insert":
            # a fresh translation each time, so a re-insert must update it
            tlb.insert(vpn, i << 12)
            ref.insert(vpn, i << 12)
        elif op == "invalidate":
            tlb.invalidate(vpn)
            ref.invalidate(vpn)
        else:
            tlb.flush()
            ref.flush()
        assert len(tlb) == len(ref.map) <= entries
        assert list(tlb._map.items()) == list(ref.map.items())
    assert outcomes == ref_outcomes
    hits = sum(o is not None for o in ref_outcomes)
    assert (tlb.hits, tlb.misses) == (hits, len(ref_outcomes) - hits)
    assert tlb.flushes == sum(op == "flush" for op, _ in ops)
