"""Tests for HT packet formats."""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.ht.packet import (
    Packet,
    PacketType,
    TagAllocator,
    burst_runs,
    clone_packet,
    make_burst_read_req,
    make_burst_write_req,
    make_ctrl,
    make_nack,
    make_read_req,
    make_read_resp,
    make_write_ack,
    make_write_req,
)


def test_read_req_has_no_payload():
    req = make_read_req(src=1, dst=2, addr=0x1000, size=64, tag=7)
    assert req.ptype is PacketType.READ_REQ
    assert req.payload is None
    assert req.wire_bytes == 8  # header only


def test_read_resp_matches_request():
    req = make_read_req(1, 2, 0x1000, 4, tag=9)
    resp = make_read_resp(req, b"\x01\x02\x03\x04")
    assert resp.ptype is PacketType.READ_RESP
    assert (resp.src, resp.dst) == (2, 1)
    assert resp.tag == 9
    assert resp.payload == b"\x01\x02\x03\x04"
    assert resp.wire_bytes == 8 + 4


def test_read_resp_default_payload_zeroes():
    req = make_read_req(1, 2, 0, 8, tag=1)
    assert make_read_resp(req).payload == bytes(8)


def test_read_resp_requires_read_req():
    wr = make_write_req(1, 2, 0, b"x", tag=1)
    with pytest.raises(ProtocolError):
        make_read_resp(wr)


def test_write_req_carries_payload():
    wr = make_write_req(1, 2, 0x40, b"abcdef", tag=3)
    assert wr.size == 6
    assert wr.wire_bytes == 8 + 6


def test_write_ack_swaps_endpoints():
    wr = make_write_req(3, 5, 0x40, b"ab", tag=11)
    ack = make_write_ack(wr)
    assert ack.ptype is PacketType.WRITE_ACK
    assert (ack.src, ack.dst) == (5, 3)
    assert ack.size == 0
    assert ack.tag == 11


def test_write_ack_requires_write_req():
    rd = make_read_req(1, 2, 0, 8, tag=1)
    with pytest.raises(ProtocolError):
        make_write_ack(rd)


def test_payload_size_mismatch_rejected():
    with pytest.raises(ProtocolError):
        Packet(PacketType.WRITE_REQ, 1, 2, 0, 8, 1, payload=b"short")


def test_missing_payload_rejected():
    with pytest.raises(ProtocolError):
        Packet(PacketType.READ_RESP, 1, 2, 0, 8, 1, payload=None)


def test_negative_size_rejected():
    with pytest.raises(ProtocolError):
        Packet(PacketType.READ_REQ, 1, 2, 0, -1, 1)


def test_nack_points_back_to_requester():
    req = make_read_req(4, 9, 0x99, 64, tag=21)
    nack = make_nack(req, at_node=9)
    assert nack.ptype is PacketType.NACK
    assert nack.dst == 4
    assert nack.tag == 21
    assert nack.meta["nacked"] is PacketType.READ_REQ


def test_nack_only_for_requests():
    req = make_read_req(4, 9, 0x99, 64, tag=21)
    resp = make_read_resp(req)
    with pytest.raises(ProtocolError):
        make_nack(resp, at_node=9)


def test_nack_mirrors_burst_line_count():
    req = make_burst_read_req(4, 9, 0x1000, 64, 8, tag=33)
    nack = make_nack(req, at_node=9)
    assert nack.line_count == 8
    assert nack.size == 0
    # one header per rejected line: same wire cost as 8 scalar NACKs
    assert nack.wire_bytes == 8 * 8
    # a scalar request still yields a scalar NACK
    assert make_nack(make_read_req(4, 9, 0x99, 64, tag=1), 9).line_count == 1


def test_ctrl_carries_meta():
    ctrl = make_ctrl(1, 3, tag=5, kind="reserve", size=4096)
    assert ctrl.ptype is PacketType.CTRL
    assert ctrl.meta == {"kind": "reserve", "size": 4096}


def test_response_to_rejects_non_request():
    ack = make_write_ack(make_write_req(1, 2, 0, b"a", 1))
    with pytest.raises(ProtocolError):
        ack.response_to()


def test_type_predicates():
    assert PacketType.READ_REQ.is_request
    assert PacketType.WRITE_REQ.is_request
    assert PacketType.READ_RESP.is_response
    assert PacketType.WRITE_ACK.is_response
    assert PacketType.NACK.is_response
    assert not PacketType.CTRL.is_request
    assert not PacketType.CTRL.is_response


def test_tag_allocator_unique_and_positive():
    tags = TagAllocator()
    seen = [tags.next() for _ in range(100)]
    assert len(set(seen)) == 100
    assert min(seen) >= 1


# -- bursts -----------------------------------------------------------------


def test_burst_read_req_wire_bytes_match_scalar_packets():
    scalar = make_read_req(1, 2, 0x1000, 64, tag=5)
    burst = make_burst_read_req(1, 2, 0x1000, 64, 8, tag=5)
    assert burst.line_count == 8
    assert burst.size == 8 * 64
    assert burst.wire_bytes == 8 * scalar.wire_bytes


def test_burst_write_req_wire_bytes_match_scalar_packets():
    scalar = make_write_req(1, 2, 0x1000, bytes(64), tag=5)
    burst = make_burst_write_req(1, 2, 0x1000, bytes(8 * 64), 8, tag=5)
    assert burst.wire_bytes == 8 * scalar.wire_bytes


def test_burst_responses_propagate_line_count():
    read = make_burst_read_req(1, 2, 0x0, 64, 4, tag=9)
    resp = make_read_resp(read, bytes(256))
    assert resp.line_count == 4
    assert resp.wire_bytes == 4 * 8 + 256
    write = make_burst_write_req(1, 2, 0x0, bytes(256), 4, tag=10)
    ack = make_write_ack(write)
    assert ack.line_count == 4          # the return path charges x4 too
    assert ack.size == 0


def test_burst_validation():
    with pytest.raises(ProtocolError, match="line_count"):
        Packet(PacketType.READ_REQ, 1, 2, 0, 64, tag=1, line_count=0)
    with pytest.raises(ProtocolError, match="whole number"):
        Packet(PacketType.READ_REQ, 1, 2, 0, 100, tag=1, line_count=3)


def test_single_line_burst_is_scalar():
    assert make_burst_read_req(1, 2, 0x0, 64, 1, tag=3).line_count == 1
    assert "x" not in repr(make_burst_read_req(1, 2, 0x0, 64, 1, tag=3)).split("size")[1]


def _reference_runs(lines, align, cuts=()):
    """The per-line walk that :func:`burst_runs` must reproduce."""
    runs: list[tuple[int, int, int]] = []
    prev = None
    for i, line in enumerate(lines):
        if (
            runs
            and i not in cuts
            and line == prev + 1
            and (align == 0 or line % align)
        ):
            k, first, n = runs[-1]
            runs[-1] = (k, first, n + 1)
        else:
            runs.append((i, line, 1))
        prev = line
    return runs


def test_burst_runs_examples():
    assert burst_runs([], 4) == []
    assert burst_runs([7], 4) == [(0, 7, 1)]
    assert burst_runs([4, 5, 6, 8, 9], 0) == [(0, 4, 3), (3, 8, 2)]
    # a run never crosses an align-line window boundary
    assert burst_runs([2, 3, 4, 5], 4) == [(0, 2, 2), (2, 4, 2)]
    assert burst_runs(range(0, 10), 4) == [(0, 0, 4), (4, 4, 4), (8, 8, 2)]
    # cuts break before their index; a cut at 0 changes nothing
    assert burst_runs([10, 11, 12, 13], 0, cuts=[0, 2]) == [
        (0, 10, 2),
        (2, 12, 2),
    ]


@pytest.mark.parametrize("as_array", [False, True])
def test_burst_runs_match_the_per_line_walk(as_array):
    """Short lists (Python break search) and long ones (NumPy break
    search) both split exactly as the per-line walk does, steps back
    and repeated lines included."""
    rng = random.Random(7)
    for _ in range(300):
        n = rng.choice([2, 3, 5, 17, 63, 64, 65, 200, 700])
        lines, line = [], rng.randrange(1 << 20)
        for _ in range(n):
            lines.append(line)
            line += 1 if rng.random() < 0.85 else rng.choice([-3, 0, 2, 5, 9])
        align = rng.choice([0, 1, 4, 64, 4096])
        cuts = sorted(rng.sample(range(n), rng.randrange(min(n, 6))))
        arg = np.array(lines, dtype=np.int64) if as_array else lines
        got = burst_runs(arg, align, cuts)
        assert got == _reference_runs(lines, align, cuts)
        assert all(type(x) is int for run in got for x in run)


def _full_packet() -> Packet:
    """A packet with every field away from its default."""
    return Packet(
        PacketType.WRITE_REQ, src=3, dst=9, addr=0x4000, size=128, tag=11,
        payload=bytes(range(128)), hops=2, issue_ns=17.5,
        meta={"prefetch": True}, line_count=2,
    )


def test_clone_copies_every_field_with_independent_meta():
    pkt = _full_packet()
    # clone_packet lists the fields by name: a new field must be added
    # there too, or clones would silently reset it to its default
    assert [f.name for f in dataclasses.fields(Packet)] == [
        "ptype", "src", "dst", "addr", "size", "tag", "payload", "hops",
        "issue_ns", "meta", "line_count",
    ]
    twin = clone_packet(pkt)
    assert twin == pkt and twin is not pkt
    twin.meta["extra"] = 1
    assert "extra" not in pkt.meta


def test_clone_applies_overrides_and_revalidates():
    pkt = _full_packet()
    moved = clone_packet(pkt, src=5, dst=6, addr=0x8000)
    assert (moved.src, moved.dst, moved.addr) == (5, 6, 0x8000)
    assert (moved.tag, moved.payload, moved.line_count) == (
        pkt.tag, pkt.payload, pkt.line_count
    )
    meta = {"kind": "x"}
    assert clone_packet(pkt, meta=meta).meta is meta
    with pytest.raises(ProtocolError):
        clone_packet(pkt, size=64)  # payload no longer matches
    with pytest.raises(ProtocolError):
        clone_packet(pkt, line_count=3)  # 128 B is not 3 whole lines
    with pytest.raises(TypeError):
        clone_packet(pkt, colour="red")
