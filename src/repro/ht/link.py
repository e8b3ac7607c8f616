"""Point-to-point link model.

A :class:`Link` is unidirectional: packets are serialized one at a time
(FIFO, at the configured bandwidth), then fly for the propagation
delay, then land in the receiver's ingress store. Serializations cannot
overlap — this is where link contention arises — but propagation is
pipelined, so back-to-back packets overlap in flight like real wires.

:class:`DuplexLink` bundles two opposite :class:`Link` s, matching
HyperTransport's full-duplex lanes.
"""

from __future__ import annotations

from typing import Optional

from repro.config import LinkConfig
from repro.ht.packet import Packet
from repro.sim.engine import Event, Simulator, Store
from repro.sim.stats import Counter, TimeWeighted

__all__ = ["Link", "DuplexLink"]


class Link:
    """One direction of an HT lane.

    ``sink`` is the :class:`~repro.sim.engine.Store` the far end
    reads from. Use :meth:`send` from a process::

        yield link.send(packet)      # returns once serialization ends
    """

    def __init__(
        self,
        sim: Simulator,
        config: LinkConfig,
        name: str = "",
        sink: Optional[Store] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.name = name or "link"
        self.sink = sink if sink is not None else Store(sim, name=f"{self.name}.rx")
        #: serialization is exclusive: model as "wire busy until" time
        self._busy_until = 0.0
        #: low-priority virtual channel for prefetch traffic: prefetch
        #: serializes behind demand (and other prefetch), but never
        #: advances the demand lane's busy window, so a speculative
        #: burst cannot head-of-line block a demand packet
        self._pf_busy_until = 0.0
        #: fault-injection hook; armed only by sim/faults.py (SIM007)
        self._faults = None
        #: directed (src, dst) node pair, set by Network._wire
        self.edge: Optional[tuple[int, int]] = None
        self.packets = Counter(f"{self.name}.packets")
        self.bytes = Counter(f"{self.name}.bytes")
        self.occupancy = TimeWeighted(f"{self.name}.occupancy")

    def send(self, packet: Packet) -> Event:
        """Transmit *packet*; the returned event fires when the wire frees.

        Delivery into the far-end store happens one propagation delay
        after serialization completes (not awaited by the sender).
        """
        # A lost packet still occupies the wire for its serialization
        # window (the transmitter does not know the lane is dead), but
        # never reaches the far-end store — that is what the RMC
        # watchdog must detect.
        lost = (
            self._faults is not None
            and self.edge is not None
            and self._faults.filter_link(self.edge, packet)
        )
        sim = self.sim
        if not lost and sim.audit is not None:
            sim.audit.record("link", packet)
        now = sim.now
        # wire_bytes already includes the command header(s); for a burst
        # it covers one header per coalesced line, so serialization
        # equals that of the scalar packets the burst replaces
        wire = packet.wire_bytes
        ser = wire / self.config.bandwidth_Bpns
        if packet.meta.get("prefetch"):
            # low-priority VC: wait out demand and earlier prefetch,
            # claim only the prefetch lane
            start = max(now, self._busy_until, self._pf_busy_until)
            self._pf_busy_until = start + ser
        else:
            start = max(now, self._busy_until)
            self._busy_until = start + ser
        self.packets.value += packet.line_count
        self.bytes.value += wire
        self.occupancy.adjust(+1, now)

        done = sim.event()
        # the serialization timeout carries what its callback needs, so
        # no closure is built per packet
        sim.timeout(start - now + ser, (packet, done, lost)).add_callback(
            self._serialized
        )
        return done

    def _serialized(self, evt: Event) -> None:
        """Serialization ended: free the wire, launch the propagation."""
        packet, done, lost = evt.value
        sim = self.sim
        self.occupancy.adjust(-1, sim.now)
        if not lost:
            # the scalar packets a burst stands for fly strictly back to
            # back (the issuer waits out each response), so each one pays
            # propagation on the critical path — charge all of them
            sim.timeout(
                self.config.propagation_ns * packet.line_count, packet
            ).add_callback(self._deliver)
        done.succeed()

    def _deliver(self, evt: Event) -> None:
        """Propagation ended: the packet lands in the far-end store."""
        self.sink.put(evt.value)

    @property
    def busy(self) -> bool:
        """True while a packet is being serialized."""
        return self.sim.now < self._busy_until

    def utilization(self, now: Optional[float] = None) -> float:
        """Fraction of time the wire spent serializing (time-weighted)."""
        return self.occupancy.average(now if now is not None else self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link {self.name} pkts={self.packets.value}>"


class DuplexLink:
    """A full-duplex HT lane: independent TX in each direction."""

    def __init__(
        self,
        sim: Simulator,
        config: LinkConfig,
        name_a: str = "a",
        name_b: str = "b",
    ) -> None:
        self.forward = Link(sim, config, name=f"{name_a}->{name_b}")
        self.backward = Link(sim, config, name=f"{name_b}->{name_a}")

    def direction(self, reverse: bool) -> Link:
        return self.backward if reverse else self.forward
