"""HT packet formats.

Four packet kinds cover the memory protocol the RMC forwards:

========== =============================== ======================
type       direction                        payload
========== =============================== ======================
READ_REQ   requester -> memory owner        none (address + size)
READ_RESP  memory owner -> requester        the data read
WRITE_REQ  requester -> memory owner        the data to write
WRITE_ACK  memory owner -> requester        none
========== =============================== ======================

plus NACK (flow-control reject emitted by a full RMC buffer) and CTRL
(OS-level reservation-protocol messages, Section III-B / Fig. 4, which
share the fabric with memory traffic).

Packets carry the *physical address including the 14-bit node prefix*;
the RMC rewrites the prefix when bridging (see :mod:`repro.rmc.rmc`).

**Bursts.** A packet with ``line_count`` = N > 1 is a *coalesced burst*:
it stands for N back-to-back line transactions to consecutive
addresses, carried as one simulator object. Every timed component
(crossbar, link, switch, RMC pipelines, memory controller) charges a
burst exactly N times its per-packet cost in a single event, so a burst
takes the same simulated time as the N scalar packets it replaces — the
win is host-side throughput, not modeled time. ``wire_bytes`` therefore
counts one header per line. A NACK rejects the whole burst at once
(one decode), and the retry re-sends the whole burst under its tag.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.errors import ProtocolError

__all__ = [
    "PacketType",
    "REQUEST_TYPES",
    "RESPONSE_TYPES",
    "DATA_TYPES",
    "Packet",
    "TagAllocator",
    "make_read_req",
    "make_read_resp",
    "make_write_req",
    "make_write_ack",
    "make_burst_read_req",
    "make_burst_write_req",
    "burst_runs",
    "make_nack",
    "make_ctrl",
    "make_fault",
    "clone_packet",
    "CORRUPT_KEY",
    "EPOCH_KEY",
]

#: meta key marking a packet whose payload was damaged in flight. Only
#: :mod:`repro.sim.faults` may write it (simcheck SIM007); the HNC
#: integrity check (:func:`repro.ht.hnc.packet_intact`) reads it. It
#: lives here, with the packet format, so the fault layer and the
#: bridge need not import each other.
CORRUPT_KEY = "corrupt"

#: meta key carrying the lease epoch of the reservation a remote
#: request is issued under. Stamped by the borrower RMC when epoch
#: fencing is armed (``HealthConfig.epoch_fencing``); the donor RMC
#: compares it against the current grant's epoch and NACKs a mismatch
#: with ``reason="fenced"``. Lives here, with the packet format, so
#: the client and server sides of the fence need not import each other.
EPOCH_KEY = "epoch"


class PacketType(enum.Enum):
    """Kind of an HT packet."""

    READ_REQ = "read_req"
    READ_RESP = "read_resp"
    WRITE_REQ = "write_req"
    WRITE_ACK = "write_ack"
    NACK = "nack"
    CTRL = "ctrl"
    #: machine-check completion: the RMC tells the issuing core that a
    #: remote access failed permanently (dead donor, retries exhausted).
    #: Never crosses the fabric — it is delivered locally, so it is
    #: deliberately neither a request nor a response for dispatch.
    FAULT = "fault"

    #: members are singletons compared by identity, so the identity hash
    #: is consistent with equality; unlike Enum's own ``__hash__`` (which
    #: hashes the name in a Python frame) it costs the frozenset lookups
    #: below no frame
    __hash__ = object.__hash__

    @property
    def is_request(self) -> bool:
        return self in REQUEST_TYPES

    @property
    def is_response(self) -> bool:
        return self in RESPONSE_TYPES


#: packet kinds a memory owner serves
REQUEST_TYPES = frozenset({PacketType.READ_REQ, PacketType.WRITE_REQ})
#: packet kinds that complete a request at its issuer
RESPONSE_TYPES = frozenset(
    {PacketType.READ_RESP, PacketType.WRITE_ACK, PacketType.NACK}
)
#: packet kinds whose ``size`` bytes of payload ride the wire
DATA_TYPES = frozenset({PacketType.READ_RESP, PacketType.WRITE_REQ})


#: HT command header size in bytes (one control doubleword + address).
_HEADER_BYTES = 8


@dataclass(slots=True)
class Packet:
    """A single HT transaction unit.

    ``src``/``dst`` are *fabric node ids* (1-based; see
    :mod:`repro.mem.addressmap`). Intra-node hops leave them equal.
    ``tag`` pairs responses with their requests. ``hops`` counts fabric
    switch traversals for instrumentation.
    """

    ptype: PacketType
    src: int
    dst: int
    addr: int
    size: int
    tag: int
    payload: Optional[bytes] = None
    hops: int = 0
    issue_ns: float = 0.0
    meta: dict[str, Any] = field(default_factory=dict)
    #: number of consecutive line transactions this packet coalesces;
    #: 1 == an ordinary scalar packet
    line_count: int = 1

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ProtocolError(f"negative packet size {self.size}")
        if self.line_count < 1:
            raise ProtocolError(f"line_count must be >= 1, got {self.line_count}")
        if self.line_count > 1 and self.size % self.line_count:
            raise ProtocolError(
                f"burst size {self.size} is not a whole number of "
                f"{self.line_count} lines"
            )
        if self.payload is not None and len(self.payload) != self.size:
            raise ProtocolError(
                f"payload length {len(self.payload)} != declared size {self.size}"
            )
        if self.ptype in DATA_TYPES:
            if self.payload is None and self.size > 0:
                raise ProtocolError(f"{self.ptype} of size {self.size} needs a payload")

    @property
    def wire_bytes(self) -> int:
        """Bytes this packet occupies on a link (headers + data).

        A burst carries one command header per coalesced line, so its
        wire footprint equals that of the scalar packets it replaces.
        """
        data = self.size if self.ptype in DATA_TYPES else 0
        return self.line_count * _HEADER_BYTES + data

    def response_to(self) -> "Packet":
        """Build the matching response packet (src/dst swapped, same tag).

        Responses to a burst are themselves bursts: every hop on the way
        back must charge the coalesced per-line costs too. A read
        response built here has no payload yet, so only
        :func:`make_read_resp` can build one of non-zero size.
        """
        ptype = self.ptype
        if ptype is PacketType.READ_REQ:
            return Packet(PacketType.READ_RESP, self.dst, self.src, self.addr,
                          self.size, self.tag, None, 0, 0.0, {},
                          self.line_count)
        if ptype is PacketType.WRITE_REQ:
            return Packet(PacketType.WRITE_ACK, self.dst, self.src, self.addr,
                          0, self.tag, None, 0, 0.0, {}, self.line_count)
        raise ProtocolError(f"{ptype} has no defined response")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        burst = f" x{self.line_count}" if self.line_count > 1 else ""
        return (
            f"<Pkt {self.ptype.value} tag={self.tag} {self.src}->{self.dst} "
            f"addr={self.addr:#x} size={self.size}{burst}>"
        )


class TagAllocator:
    """Monotonic transaction-tag source (unique within one simulator)."""

    def __init__(self) -> None:
        self._counter = itertools.count(1)

    def next(self) -> int:
        return next(self._counter)


def make_read_req(src: int, dst: int, addr: int, size: int, tag: int) -> Packet:
    """A sized read request (no payload)."""
    return Packet(PacketType.READ_REQ, src, dst, addr, size, tag)


def make_read_resp(req: Packet, payload: Optional[bytes] = None) -> Packet:
    """The data response to *req*."""
    if req.ptype is not PacketType.READ_REQ:
        raise ProtocolError(f"read response requires a READ_REQ, got {req.ptype}")
    if payload is None:
        payload = bytes(req.size)
    return Packet(PacketType.READ_RESP, req.dst, req.src, req.addr,
                  len(payload), req.tag, payload, 0, 0.0, {}, req.line_count)


def make_write_req(
    src: int, dst: int, addr: int, payload: bytes, tag: int
) -> Packet:
    """A posted-with-ack write carrying *payload*."""
    return Packet(
        PacketType.WRITE_REQ, src, dst, addr, len(payload), tag, payload=payload
    )


def make_write_ack(req: Packet) -> Packet:
    """The completion ack for a WRITE_REQ."""
    if req.ptype is not PacketType.WRITE_REQ:
        raise ProtocolError(f"write ack requires a WRITE_REQ, got {req.ptype}")
    return req.response_to()


def make_burst_read_req(
    src: int, dst: int, addr: int, line_bytes: int, line_count: int, tag: int
) -> Packet:
    """A read request coalescing *line_count* consecutive lines."""
    return Packet(
        PacketType.READ_REQ,
        src,
        dst,
        addr,
        line_bytes * line_count,
        tag,
        line_count=line_count,
    )


def make_burst_write_req(
    src: int, dst: int, addr: int, payload: bytes, line_count: int, tag: int
) -> Packet:
    """A write request coalescing *line_count* consecutive lines."""
    return Packet(
        PacketType.WRITE_REQ,
        src,
        dst,
        addr,
        len(payload),
        tag,
        payload=payload,
        line_count=line_count,
    )


#: line lists at least this long find their run breaks in one NumPy
#: pass; shorter ones in a Python loop, which costs less below it
_NUMPY_RUNS_MIN = 64


def burst_runs(
    lines: "Sequence[int] | np.ndarray", align: int, cuts: Sequence[int] = ()
) -> list[tuple[int, int, int]]:
    """Split line numbers into the bursts that carry them.

    A burst is a maximal run of consecutive lines that never crosses an
    *align*-line window boundary (0 = unbounded) and that also breaks
    before each index in *cuts*. Returns ``(index, first_line, count)``
    per burst, *index* being its first line's position in *lines*. The
    Python work beyond finding the breaks is O(bursts), not O(lines).
    """
    n = len(lines)
    if n < 2:
        return [(0, int(lines[0]), 1)] if n else []
    if n < _NUMPY_RUNS_MIN:
        seq = lines.tolist() if isinstance(lines, np.ndarray) else lines
        breaks = [i for i in range(1, n) if seq[i] - seq[i - 1] != 1]
    else:
        seq = np.asarray(lines, dtype=np.int64)
        breaks = (np.flatnonzero(seq[1:] - seq[:-1] != 1) + 1).tolist()
    if cuts:
        breaks = sorted(set(breaks).union(cuts).difference((0,)))
    starts = [0, *breaks]
    if isinstance(seq, np.ndarray):
        firsts = seq[starts].tolist()
    else:
        firsts = [seq[i] for i in starts]
    runs = []
    i = 0
    for first, end in zip(firsts, [*breaks, n]):
        count = end - i
        if align:
            # split at every window boundary inside the run
            head = align - first % align
            while count > head:
                runs.append((i, first, head))
                i += head
                first += head
                count -= head
                head = align
        runs.append((i, first, count))
        i = end
    return runs


def clone_packet(packet: Packet, **overrides: Any) -> Packet:
    """Rebuild *packet* with field *overrides* and an independent meta dict.

    This is the factory for every "same transaction, different framing"
    copy — bridging onto the fabric (new src/dst), prefix-stripping at
    the owner (new addr), re-stamping ``issue_ns``. Going through it
    re-runs ``__post_init__`` validation, so a clone can never smuggle
    an inconsistent size/payload/line_count combination past the
    checks a fresh construction would face. The fields are listed
    here rather than copied with :func:`dataclasses.replace`, which
    costs about twice as much on the per-hop bridging path; an unknown
    override still raises :class:`TypeError`.
    """
    fields: dict[str, Any] = {
        "ptype": packet.ptype,
        "src": packet.src,
        "dst": packet.dst,
        "addr": packet.addr,
        "size": packet.size,
        "tag": packet.tag,
        "payload": packet.payload,
        "hops": packet.hops,
        "issue_ns": packet.issue_ns,
        "line_count": packet.line_count,
    }
    fields.update(overrides)
    if "meta" not in overrides:
        fields["meta"] = dict(packet.meta)
    return Packet(**fields)


def make_nack(
    req: Packet, at_node: int, reason: Optional[str] = None
) -> Packet:
    """Flow-control reject for *req* emitted by a full buffer at *at_node*.

    A burst request is rejected whole: the NACK mirrors the request's
    ``line_count`` so every hop (and the decode at the requester)
    charges the same per-line costs as the scalar NACKs it replaces.
    *reason* distinguishes refusals a retransmission can never cure
    (``"fenced"``: stale lease epoch) from plain back-pressure.
    """
    if not req.ptype.is_request:
        raise ProtocolError("only requests can be NACKed")
    meta: dict[str, Any] = {"nacked": req.ptype}
    if reason is not None:
        meta["reason"] = reason
    return Packet(
        PacketType.NACK,
        src=at_node,
        dst=req.src,
        addr=req.addr,
        size=0,
        tag=req.tag,
        meta=meta,
        line_count=req.line_count,
    )


def make_ctrl(src: int, dst: int, tag: int, **meta: Any) -> Packet:
    """An OS-level control message (reservation protocol, Fig. 4)."""
    return Packet(
        PacketType.CTRL, src, dst, addr=0, size=0, tag=tag, meta=dict(meta)
    )


def make_fault(
    req: Packet,
    at_node: int,
    error: str,
    retries: Optional[int] = None,
    reason: Optional[str] = None,
) -> Packet:
    """Machine-check completion for *req* emitted by the RMC at *at_node*.

    Delivered straight to the issuing core's reply store (never onto
    the fabric) when a remote access fails permanently; the core raises
    :class:`~repro.errors.RemoteAccessError` with *error*. The meta
    carries structured context — the unreachable node (``fault_node``),
    the failed transaction's tag, and the retransmissions burned — so
    the raise site can populate the error's fields without parsing the
    message.
    """
    if not req.ptype.is_request:
        raise ProtocolError("only requests can fault")
    meta: dict[str, Any] = {
        "error": error,
        "faulted": req.ptype,
        "fault_node": req.dst,
        "fault_tag": req.tag,
    }
    if retries is not None:
        meta["retries"] = retries
    if reason is not None:
        meta["reason"] = reason
    return Packet(
        PacketType.FAULT,
        src=at_node,
        dst=req.src,
        addr=req.addr,
        size=0,
        tag=req.tag,
        meta=meta,
    )
