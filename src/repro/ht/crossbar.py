"""On-board HT crossbar.

Inside a node, cores, memory controllers and the RMC exchange packets
over the motherboard's HyperTransport point-to-point links. We model
this as a crossbar with a fixed traversal latency and a bounded number
of simultaneous transfers (the board has a few independent links, not
infinite ones). Destination selection is by local physical address:
each attached device claims an address slice via ``owns``; the RMC is
the fallback for any address with a non-zero node prefix. A fallback
that names the lowest such address as ``prefix_floor`` takes every
address from there up without the slice owners being asked: none of
them can own one, since a node's memory lies inside its own window.
"""

from __future__ import annotations

import math
from typing import Generator, Protocol

from repro.errors import AddressError, ProtocolError
from repro.ht.device import HT_MAX_DEVICES, HTDevice
from repro.ht.packet import Packet
from repro.sim.engine import Event, Resource, Simulator

__all__ = ["Crossbar", "AddressedDevice", "CROSSBAR_LATENCY_NS"]

#: traversal latency of the default on-board crossbar; the fast tier's
#: analytic model (``LatencyModel.from_config``) charges the same value
CROSSBAR_LATENCY_NS = 24.0


class AddressedDevice(Protocol):
    """A device that can claim local physical addresses."""

    name: str

    def owns(self, local_addr: int) -> bool: ...
    def deliver(self, packet: Packet) -> None: ...


class Crossbar:
    """Route packets among on-board HT devices by physical address."""

    def __init__(
        self,
        sim: Simulator,
        latency_ns: float = CROSSBAR_LATENCY_NS,
        concurrent_transfers: int = 4,
        name: str = "xbar",
        node_id: int = 0,
    ) -> None:
        if latency_ns < 0:
            raise ProtocolError("crossbar latency cannot be negative")
        self.sim = sim
        self.latency_ns = latency_ns
        self.name = name
        self.node_id = node_id
        self._devices: list[AddressedDevice] = []
        self._fallback: AddressedDevice | None = None
        #: addresses at or above this go straight to the fallback
        self._fallback_floor: float = math.inf
        self._links = Resource(sim, concurrent_transfers, name=f"{name}.links")
        self.routed = 0
        #: fault-injection hook; armed only by sim/faults.py (SIM007)
        self._faults = None

    # -- wiring ----------------------------------------------------------
    def attach(self, device: AddressedDevice, fallback: bool = False) -> None:
        """Register a device. The *fallback* device (the RMC) receives
        every packet no address-slice owner claims."""
        if len(self._devices) + 1 > HT_MAX_DEVICES:
            raise ProtocolError(
                f"plain HT chains address at most {HT_MAX_DEVICES} devices"
            )
        self._devices.append(device)
        if fallback:
            if self._fallback is not None:
                raise ProtocolError("crossbar already has a fallback device")
            self._fallback = device
            self._fallback_floor = getattr(device, "prefix_floor", math.inf)

    def route_target(self, local_addr: int) -> AddressedDevice:
        """The device that will serve *local_addr*."""
        if local_addr >= self._fallback_floor:
            return self._fallback
        for dev in self._devices:
            if dev is not self._fallback and dev.owns(local_addr):
                return dev
        if self._fallback is not None:
            return self._fallback
        raise AddressError(
            f"{self.name}: no device owns address {local_addr:#x} "
            "and no fallback is attached"
        )

    # -- transfer ---------------------------------------------------------
    def send(self, packet: Packet) -> Event:
        """Route *packet* to its owner; fires after crossbar traversal."""
        addr = packet.addr
        if addr >= self._fallback_floor:
            return self.send_to(packet, self._fallback)
        return self.send_to(packet, self.route_target(addr))

    def send_to(self, packet: Packet, target: AddressedDevice) -> Event:
        """Route *packet* to an explicit device (e.g. a response path)."""
        done = self.sim.event()
        self.sim.process(self._transfer(packet, target, done),
                         name=f"{self.name}.xfer")
        return done

    def _transfer(
        self, packet: Packet, target: AddressedDevice, done: Event
    ) -> Generator:
        grant = self._links.request()
        yield grant
        try:
            if self.sim.audit is not None:
                self.sim.audit.record("crossbar", packet)
            # a coalesced burst pays one traversal per line it replaces
            yield self.sim.timeout(self.latency_ns * packet.line_count)
            if self._faults is None or not self._faults.filter_crossbar(
                self.node_id, packet
            ):
                target.deliver(packet)
            self.routed += packet.line_count
        finally:
            self._links.release(grant)
        done.succeed()
