"""HT device abstraction.

Everything that terminates HT packets — memory controllers, the RMC,
the OS-lite control daemon — is an :class:`HTDevice`: it owns an
ingress :class:`~repro.sim.engine.Store` and a dispatcher process
that hands each arriving packet to :meth:`handle`.

Plain HyperTransport can enumerate at most :data:`HT_MAX_DEVICES`
devices on one chain — the architectural limit (Section IV-A) that
forces the prototype to use High Node Count HT between nodes.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.errors import ProtocolError
from repro.ht.packet import Packet
from repro.sim.engine import Simulator, Store
from repro.sim.stats import Counter

__all__ = ["HTDevice", "HT_MAX_DEVICES"]

#: Plain HT UnitID space: at most 32 devices per chain.
HT_MAX_DEVICES: int = 32


class HTDevice:
    """Base class for packet-terminating components.

    Subclasses override :meth:`handle`, a generator that may yield
    simulation events (timeouts, resource grants) while servicing the
    packet. Each device processes its ingress serially unless
    ``parallelism`` > 1 — a memory controller with multiple banks sets
    this higher; the prototype RMC keeps it at 1.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        parallelism: int = 1,
        ingress: Optional[Store] = None,
    ) -> None:
        if parallelism < 1:
            raise ProtocolError(f"device parallelism must be >= 1, got {parallelism}")
        self.sim = sim
        self.name = name
        self.ingress = ingress if ingress is not None else Store(sim, name=f"{name}.in")
        self.received = Counter(f"{name}.received")
        self.parallelism = parallelism
        self._dispatchers = [
            sim.process(self._dispatch_loop(), name=f"{name}.dispatch{i}")
            for i in range(parallelism)
        ]

    # -- wiring ----------------------------------------------------------
    def deliver(self, packet: Packet) -> None:
        """Synchronously enqueue a packet (used by links and crossbars)."""
        self.ingress.put(packet)

    # -- behaviour ---------------------------------------------------------
    def handle(self, packet: Packet) -> Generator:
        """Service one packet. Override in subclasses."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for typing

    def _dispatch_loop(self) -> Generator:
        while True:
            packet = yield self.ingress.get()
            self.received.value += packet.line_count
            yield from self.handle(packet)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name}>"
