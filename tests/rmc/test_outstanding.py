"""Tests for the outstanding-transaction table."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.ht.packet import make_read_req
from repro.rmc.outstanding import OutstandingTable, PendingOp
from repro.sim.engine import Resource, Simulator, Store


def _op(sim, tag):
    res = Resource(sim, 8)
    slot = res.request()
    return PendingOp(
        request=make_read_req(1, 2, 0x100, 64, tag),
        reply_to=Store(sim),
        slot=slot,
        issue_ns=sim.now,
    )


def test_add_and_complete(sim):
    table = OutstandingTable()
    op = _op(sim, 5)
    table.add(op)
    assert 5 in table
    assert len(table) == 1
    assert table.complete(5) is op
    assert 5 not in table


def test_duplicate_tag_rejected(sim):
    table = OutstandingTable()
    table.add(_op(sim, 1))
    with pytest.raises(ProtocolError):
        table.add(_op(sim, 1))


def test_unknown_tag_rejected(sim):
    table = OutstandingTable()
    with pytest.raises(ProtocolError):
        table.get(99)
    with pytest.raises(ProtocolError):
        table.complete(99)


def test_peak_tracking(sim):
    table = OutstandingTable()
    for tag in range(1, 5):
        table.add(_op(sim, tag))
    table.complete(1)
    table.add(_op(sim, 9))
    assert table.peak == 4


def test_retry_counting(sim):
    table = OutstandingTable()
    table.add(_op(sim, 3))
    assert table.note_retry(3) == 1
    assert table.note_retry(3) == 2
    assert table.total_retries == 2
    assert table.get(3).retries == 2
