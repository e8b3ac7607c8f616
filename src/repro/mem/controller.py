"""Per-socket memory controller.

The controller is an :class:`~repro.ht.device.HTDevice` that terminates
READ_REQ/WRITE_REQ packets carrying *local* (prefix-stripped) physical
addresses inside its slice of the node window, performs the functional
access against the node's backing store, charges DRAM timing, and sends
the response to the ``reply_to`` store recorded in the packet metadata
(set by the issuing core's crossbar port or by the serving RMC).

Bank-level parallelism: up to ``banks`` requests are in flight at once,
with per-bank serialization — matching how an Opteron north bridge
overlaps independent accesses.
"""

from __future__ import annotations

from typing import Generator

from repro.config import DRAMConfig
from repro.errors import AddressError, ProtocolError
from repro.ht.device import HTDevice
from repro.ht.packet import Packet, PacketType, make_read_resp, make_write_ack
from repro.mem.backing import BackingStore
from repro.mem.dram import DRAMTiming
from repro.sim.engine import Resource, Simulator, Store
from repro.sim.stats import Counter, Tally

__all__ = ["MemoryController"]


class MemoryController(HTDevice):
    """One socket's DRAM controller.

    Two address-ownership modes mirror real Opteron BIOS options:

    * **contiguous** (default): the controller serves the block
      ``[base, base+capacity)`` — the per-socket BAR layout the paper's
      Fig. 2(a) walk-through describes;
    * **interleaved**: the node's space is striped across all sockets'
      controllers at a power-of-two granularity ("node interleaving"),
      passed as ``interleave=(granularity, index, num_controllers)``.
    """

    def __init__(
        self,
        sim: Simulator,
        config: DRAMConfig,
        backing: BackingStore,
        base: int,
        name: str = "mc",
        interleave: tuple[int, int, int] | None = None,
    ) -> None:
        if interleave is not None:
            granularity, idx, n = interleave
            if granularity <= 0 or granularity & (granularity - 1):
                raise AddressError(
                    f"interleave granularity must be a power of two, "
                    f"got {granularity}"
                )
            if not 0 <= idx < n:
                raise AddressError(
                    f"interleave index {idx} outside 0..{n - 1}"
                )
            if config.capacity_bytes * n > backing.capacity:
                raise AddressError(
                    "interleaved controllers exceed backing capacity"
                )
        elif base < 0 or base + config.capacity_bytes > backing.capacity:
            raise AddressError(
                f"controller slice [{base:#x}, {base + config.capacity_bytes:#x}) "
                f"exceeds backing capacity {backing.capacity:#x}"
            )
        self.interleave = interleave
        # Front-end queue bounded at queue_depth; excess injectors block,
        # which is exactly the back-pressure a full controller applies.
        ingress = Store(sim, capacity=config.queue_depth, name=f"{name}.q")
        super().__init__(sim, name, parallelism=config.banks, ingress=ingress)
        self.config = config
        self.backing = backing
        self.base = base
        self.timing = DRAMTiming(config)
        self._banks = [Resource(sim, 1, name=f"{name}.bank{i}")
                       for i in range(config.banks)]
        self.reads = Counter(f"{name}.reads")
        self.writes = Counter(f"{name}.writes")
        self.service_ns = Tally(f"{name}.service_ns")

    def owns(self, local_addr: int) -> bool:
        """True if this controller serves *local_addr*."""
        if self.interleave is not None:
            granularity, idx, n = self.interleave
            return (
                local_addr < self.config.capacity_bytes * n
                and (local_addr // granularity) % n == idx
            )
        return self.base <= local_addr < self.base + self.config.capacity_bytes

    def _local_offset(self, addr: int) -> int:
        """Controller-local offset used for bank/row mapping."""
        if self.interleave is not None:
            granularity, _, n = self.interleave
            return (addr // (granularity * n)) * granularity + addr % granularity
        return addr - self.base

    def _owns_burst(self, first: int, last: int) -> bool:
        """True if this controller owns every line of a burst whose
        first and last lines start at *first* and *last*; the lines'
        local offsets are then contiguous."""
        if not self.owns(last):
            return False
        if self.interleave is None:
            return True
        granularity, _, n = self.interleave
        # with n > 1 stripes, a burst that leaves its stripe enters
        # another controller's
        return n == 1 or first // granularity == last // granularity

    def _burst_ns(self, offset: int, line_bytes: int, n: int) -> float:
        """Service time of a burst of *n* back-to-back line transactions
        from local *offset* on.

        The lines are walked in address order one (bank, row) chunk at
        a time: the chunk's first line takes the real row-buffer
        transition, and its other lines are row hits by construction,
        counted with one ``add``. The per-line ``controller_ns +
        access_ns`` terms are still summed left to right, so the total
        is bit-identical to the per-line walk, fractional ns included.
        """
        cfg = self.config
        timing = self.timing
        controller_ns = cfg.controller_ns
        hit_term = controller_ns + cfg.row_hit_ns
        row_bytes = cfg.row_bytes
        terms: list[float] = []
        end = offset + n * line_bytes
        while offset < end:
            # the lines that start before the offset leaves its row
            lines = min(-(-(row_bytes - offset % row_bytes) // line_bytes),
                        (end - offset) // line_bytes)
            terms.append(controller_ns + timing.access_ns(offset))
            if lines > 1:
                terms += [hit_term] * (lines - 1)
                timing.row_hits.add(lines - 1)
            offset += lines * line_bytes
        return sum(terms)

    def handle(self, packet: Packet) -> Generator:
        if packet.ptype not in (PacketType.READ_REQ, PacketType.WRITE_REQ):
            raise ProtocolError(f"memory controller got {packet.ptype}")
        if not self.owns(packet.addr):
            raise AddressError(
                f"{self.name}: does not own address {packet.addr:#x}"
            )
        n = packet.line_count
        last = packet.addr + packet.size - packet.size // n
        if n > 1 and not self._owns_burst(packet.addr, last):
            raise AddressError(
                f"{self.name}: burst [{packet.addr:#x}, "
                f"{packet.addr + packet.size:#x}) crosses ownership boundary"
            )
        if self.sim.audit is not None:
            self.sim.audit.record("mc", packet)
        t0 = self.sim.now
        offset = self._local_offset(packet.addr)
        bank = self._banks[self.timing.bank_of(offset)]
        grant = bank.request()
        yield grant
        try:
            if n == 1:
                service = self.config.controller_ns + self.timing.access_ns(offset)
            else:
                service = self._burst_ns(offset, packet.size // n, n)
            yield self.sim.timeout(service)
            if packet.ptype is PacketType.READ_REQ:
                self.reads.value += n
                data = self.backing.read(packet.addr, packet.size)
                response = make_read_resp(packet, data)
            else:
                self.writes.value += n
                # ``timing_only`` writes (cache write-backs/flushes whose
                # data is already authoritative in the backing store)
                # charge full timing but move no bytes.
                if not packet.meta.get("timing_only"):
                    assert packet.payload is not None
                    self.backing.write(packet.addr, packet.payload)
                response = make_write_ack(packet)
        finally:
            bank.release(grant)
        self.service_ns.observe(self.sim.now - t0)
        reply_to: Store = packet.meta["reply_to"]
        response.meta.update(packet.meta)
        yield reply_to.put(response)
