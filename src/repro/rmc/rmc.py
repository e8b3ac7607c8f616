"""The Remote Memory Controller model.

One RMC per node, playing both protocol roles concurrently:

* **client** — local memory transactions addressed to other nodes
  enter through :attr:`RMC.ingress` (routed there by the on-board
  crossbar, which falls back to the RMC for every address with a
  non-zero prefix). The RMC acquires one of its scarce in-flight
  buffer slots, bridges the packet onto the HNC fabric, and later
  matches the returning response to the issuing core. A full buffer
  NACKs the core, which retries after a back-off.
* **server** — fabric requests for this node are admitted (or NACKed
  over the fabric when the server buffer is full), prefix-stripped,
  and replayed to the local memory controllers through the crossbar;
  the controllers' replies are encapsulated and sent back.

Both roles share nothing but the fabric port: the client pipeline is
the expensive side of the FPGA (request decode + tag matching), and is
where Fig. 7's bottleneck lives. Pipeline service time degrades with
queue length (``congestion_alpha``), modeling arbitration stalls of
the FPGA under bursty load — the mechanism behind the paper's
observation that moving memory servers *farther away* can slightly
improve a saturated client.

Control (CTRL) packets — the OS-level reservation protocol of Fig. 4 —
share the fabric and are surfaced on :attr:`RMC.ctrl_in` for the
OS-lite daemon.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator

from repro.config import RMCConfig
from repro.errors import ProtocolError
from repro.ht.crossbar import Crossbar
from repro.ht.hnc import HNCBridge
from repro.ht.packet import (
    EPOCH_KEY,
    REQUEST_TYPES,
    RESPONSE_TYPES,
    Packet,
    PacketType,
    TagAllocator,
    burst_runs,
    make_burst_read_req,
    make_ctrl,
    make_fault,
    make_nack,
    make_read_req,
    make_read_resp,
)
from repro.units import CACHE_LINE as _LINE
from repro.mem.addressmap import AddressMap
from repro.noc.network import Network
from repro.rmc.outstanding import OutstandingTable, PendingOp, RequestWatchdog
from repro.sim.engine import Event, Resource, Simulator, Store
from repro.sim.stats import Counter, Tally, TimeWeighted

__all__ = ["RMC"]

#: line-buffer write latency for a completed prefetch fill (one event
#: per fill packet; a burst fill writes all its lines in that event)
_FILL_NS = 10.0


class RMC:
    """Remote Memory Controller bound to one node."""

    def __init__(
        self,
        sim: Simulator,
        config: RMCConfig,
        amap: AddressMap,
        node_id: int,
        network: Network,
        crossbar: Crossbar,
        tags: TagAllocator,
        burst_align_bytes: int = 0,
        *,
        batch: bool,
    ) -> None:
        self.sim = sim
        self.config = config
        self.amap = amap
        self.node_id = node_id
        self.network = network
        self.crossbar = crossbar
        self.tags = tags
        self.name = f"rmc{node_id}"
        self.bridge = HNCBridge(amap, node_id)
        #: the lowest address with a non-zero node prefix: the crossbar
        #: hands every address from here up to the RMC without asking
        #: the memory controllers
        self.prefix_floor = amap.window_bytes
        # uncontended pipeline service per line (the config is frozen)
        self._client_ns = config.per_op_ns()
        self._server_ns = config.server_per_op_ns()
        #: prefetch bursts never cross this window (the destination
        #: memory controller's slice/stripe), mirroring Core's burst
        #: alignment discipline; 0 = unaligned
        self.burst_align_bytes = burst_align_bytes
        #: issue prefetch fills as coalesced bursts; False selects the
        #: scalar one-packet-per-line reference twin
        self.batch = batch

        # pipelines and buffers
        self._client_pipe = Resource(sim, 1, name=f"{self.name}.cpipe")
        self._server_pipe = Resource(sim, 1, name=f"{self.name}.spipe")
        #: dedicated low-priority prefetch engine (Section VI HW option)
        self._prefetch_pipe = Resource(sim, 1, name=f"{self.name}.pfpipe")
        self._slots = Resource(sim, config.buffer_entries,
                               name=f"{self.name}.slots")
        self._server_slots = Resource(sim, config.server_buffer_entries,
                                      name=f"{self.name}.sslots")

        # queues
        self.ingress: Store = Store(sim, name=f"{self.name}.local_in")
        self._fabric_in: Store = Store(sim, name=f"{self.name}.fabric_in")
        self._mc_resp: Store = Store(sim, name=f"{self.name}.mc_resp")
        self.ctrl_in: Store = Store(sim, name=f"{self.name}.ctrl_in")

        self.outstanding = OutstandingTable(name=f"{self.name}.out")

        #: hardware-prefetch line buffer: prefixed line addr -> payload
        #: (Section VI future work; empty when prefetch_depth == 0)
        self._prefetch_data: "OrderedDict[int, bytes]" = OrderedDict()
        self._prefetch_inflight: set[int] = set()

        # instrumentation
        self.prefetch_issued = Counter(f"{self.name}.pf_issued")
        self.prefetch_hits = Counter(f"{self.name}.pf_hits")
        #: fetched lines dropped unreferenced (LRU eviction or write
        #: invalidation) — the bandwidth the speculation burned for
        #: nothing
        self.prefetch_wasted = Counter(f"{self.name}.pf_wasted")
        self.client_requests = Counter(f"{self.name}.client_reqs")
        self.server_requests = Counter(f"{self.name}.server_reqs")
        self.client_nacks = Counter(f"{self.name}.client_nacks")
        self.server_nacks = Counter(f"{self.name}.server_nacks")
        self.retransmissions = Counter(f"{self.name}.retx")
        self.timeouts = Counter(f"{self.name}.timeouts")
        self.retries_exhausted = Counter(f"{self.name}.rexhausted")
        self.stale_responses = Counter(f"{self.name}.stale")
        #: server-side stale-epoch refusals (epoch fencing armed only)
        self.fenced = Counter(f"{self.name}.fenced")
        self.remote_latency_ns = Tally(f"{self.name}.remote_latency")
        self.inflight = TimeWeighted(f"{self.name}.inflight")

        #: fault-injection hook; armed only by sim/faults.py (SIM007)
        self._faults = None
        #: epoch-fencing hooks; armed only by Cluster.arm_health when
        #: HealthConfig.epoch_fencing is set. Client side stamps the
        #: issuing lease's epoch onto outgoing requests; server side
        #: validates epochs before admitting fabric requests. Disarmed
        #: (None) they cost one `is not None` check — the same
        #: zero-cost discipline as the fault hook (SIM010).
        self._lease_epochs = None
        self._fence = None
        self._watchdog = RequestWatchdog(
            sim,
            self.outstanding,
            config,
            retransmit=self._resend,
            fail=self._fail_op,
            timeouts=self.timeouts,
            exhausted=self.retries_exhausted,
        )

        network.attach(node_id, self._fabric_in.put)
        sim.process(self._local_loop(), name=f"{self.name}.local")
        sim.process(self._fabric_loop(), name=f"{self.name}.fabric")
        sim.process(self._mc_resp_loop(), name=f"{self.name}.mcresp")

    # -- crossbar device interface -----------------------------------------
    def owns(self, addr: int) -> bool:
        """The RMC serves every address with a non-zero node prefix.

        (In practice the crossbar routes to the RMC as its fallback;
        this predicate exists for symmetry and assertions.)
        """
        return self.amap.node_of(addr) != 0

    def deliver(self, packet: Packet) -> None:
        self.ingress.put(packet)

    # -- OS-level control-plane API ------------------------------------------
    def send_ctrl(self, dst_node: int, tag: int | None = None, **meta) -> Event:
        """Send a reservation-protocol message to *dst_node* (Fig. 4).

        *tag* may be supplied by the caller so it can pair the reply;
        otherwise a fresh tag is drawn.
        """
        if dst_node == self.node_id:
            raise ProtocolError("control message addressed to the local node")
        pkt = make_ctrl(
            self.node_id, dst_node, tag if tag is not None else self.tags.next(),
            **meta,
        )
        return self.network.inject(self.node_id, pkt)

    # -- shared pipeline helpers -----------------------------------------
    def _pipe_request(self, pipe: Resource, base_ns: float) -> tuple:
        """Ask for *pipe*; returns the grant and the queue-length-degraded
        service time to hold it for, from the load seen on arrival.

        The hot loops use it as::

            grant, service_ns = self._pipe_request(pipe, base_ns)
            yield grant
            try:
                yield self.sim.timeout(service_ns)
            finally:
                pipe.release(grant)

        which is :meth:`_pipe_service` without a sub-generator to resume.
        """
        cfg = self.config
        mult = 1.0 + cfg.congestion_alpha * (pipe.queued + pipe.count)
        if mult > cfg.congestion_cap:
            mult = cfg.congestion_cap
        return pipe.request(), base_ns * mult

    def _pipe_service(self, pipe: Resource, base_ns: float) -> Generator:
        """Hold *pipe* for a queue-length-degraded service time."""
        grant, service_ns = self._pipe_request(pipe, base_ns)
        yield grant
        try:
            yield self.sim.timeout(service_ns)
        finally:
            pipe.release(grant)

    # -- client role ---------------------------------------------------------
    def _local_loop(self) -> Generator:
        cfg = self.config
        sim = self.sim
        pipe = self._client_pipe
        while True:
            packet: Packet = yield self.ingress.get()
            if packet.ptype not in REQUEST_TYPES:
                raise ProtocolError(
                    f"{self.name}: unexpected local packet {packet!r}"
                )
            if self.amap.node_of(packet.addr) == self.node_id:
                raise ProtocolError(
                    f"{self.name}: loopback access to {packet.addr:#x} — the "
                    "reservation protocol must never map a node's own window"
                )
            reply_to: Store = packet.meta["reply_to"]

            # hardware prefetch: writes invalidate buffered lines; reads
            # fully covered by a buffered line complete without the fabric
            if self.config.prefetch_depth:
                line_addr = packet.addr & ~(_LINE - 1)
                if packet.ptype is PacketType.WRITE_REQ:
                    # a burst write dirties every line it covers
                    last_line = (packet.addr + packet.size - 1) & ~(_LINE - 1)
                    for la in range(line_addr, last_line + _LINE, _LINE):
                        if self._prefetch_data.pop(la, None) is not None:
                            self.prefetch_wasted.add()
                elif (
                    packet.ptype is PacketType.READ_REQ
                    and line_addr in self._prefetch_data
                    and packet.addr + packet.size <= line_addr + _LINE
                ):
                    self.prefetch_hits.add()
                    yield from self._pipe_service(
                        self._client_pipe, self._client_ns
                    )
                    data = self._prefetch_data.pop(line_addr)
                    offset = packet.addr - line_addr
                    response = make_read_resp(
                        packet, data[offset : offset + packet.size]
                    )
                    yield reply_to.put(response)
                    # keep the stream rolling: top the window back up
                    # (already-covered lines are skipped, so this nets
                    # one new fetch at the prefetch distance)
                    self.sim.process(
                        self._issue_prefetches(line_addr),
                        name=f"{self.name}.pf",
                    )
                    continue

            if self._slots.count >= self._slots.capacity:
                # Buffer full: decode + NACK through the client pipe. A
                # burst is rejected whole in one event, charged per line.
                self.client_nacks.add(packet.line_count)
                yield from self._pipe_service(
                    self._client_pipe, cfg.nack_ns * packet.line_count
                )
                yield reply_to.put(make_nack(packet, self.node_id))
                continue
            slot = self._slots.request()
            yield slot  # immediate: capacity was checked above
            self.client_requests.value += packet.line_count
            self.inflight.adjust(+1, sim.now)
            if sim.audit is not None:
                sim.audit.record(f"{self.name}.client", packet)
            # a burst pays the decode/tag-match pipeline once per
            # coalesced line, folded into a single service event
            grant, service_ns = self._pipe_request(
                pipe, self._client_ns * packet.line_count
            )
            yield grant
            try:
                yield sim.timeout(service_ns)
            finally:
                pipe.release(grant)
            fabric_meta = dict(packet.meta)
            fabric_meta.pop("reply_to", None)  # stores never cross nodes
            if self._lease_epochs is not None:
                epoch = self._lease_epochs.epoch_of(packet.addr)
                if epoch is not None:
                    fabric_meta[EPOCH_KEY] = epoch
            now = sim.now
            fabric_pkt = self.bridge.to_fabric(
                packet, issue_ns=now, meta=fabric_meta, hops=0
            )
            op = PendingOp(fabric_pkt, reply_to, slot, now)
            self.outstanding.add(op)
            if self._watchdog.enabled:
                sim.process(
                    self._watchdog.watch(op), name=f"{self.name}.wdog"
                )
            yield self.network.inject(self.node_id, fabric_pkt)
            if self.config.prefetch_depth and packet.ptype is PacketType.READ_REQ:
                # issued in the background: prefetch competes for the
                # pipe but never blocks demand decode (low priority)
                self.sim.process(
                    self._issue_prefetches(packet.addr),
                    name=f"{self.name}.pf",
                )

    # -- fabric side (both roles) ------------------------------------------
    def _fabric_loop(self) -> Generator:
        while True:
            packet: Packet = yield self._fabric_in.get()
            if self._faults is not None and not self.bridge.verify(packet):
                yield from self._quarantine(packet)
                continue
            ptype = packet.ptype
            if ptype is PacketType.CTRL:
                yield self.ctrl_in.put(packet)
            elif ptype in REQUEST_TYPES:
                yield from self._admit_server_request(packet)
            elif ptype is PacketType.NACK:
                self.sim.process(
                    self._retransmit(packet), name=f"{self.name}.retx"
                )
            elif ptype in RESPONSE_TYPES:
                if self._lossy() and packet.tag not in self.outstanding:
                    # the watchdog already failed (or retried and
                    # completed) this transaction; the late copy is noise
                    self.stale_responses.add()
                    continue
                if self.outstanding.get(packet.tag).is_prefetch:
                    # prefetch fills complete on their own engine and
                    # never block demand responses behind them
                    self.sim.process(
                        self._complete_prefetch(packet),
                        name=f"{self.name}.pfdone",
                    )
                else:
                    yield from self._complete_client_op(packet)
            else:  # pragma: no cover - enum is exhaustive
                raise ProtocolError(f"{self.name}: unroutable {packet!r}")

    def _lossy(self) -> bool:
        """True when packets can legitimately vanish or duplicate.

        Only with faults armed or the watchdog retransmitting can a
        response arrive for a tag no longer outstanding; everywhere
        else an unknown tag stays the hard protocol error it is.
        """
        return self._faults is not None or self._watchdog.enabled

    def _quarantine(self, packet: Packet) -> Generator:
        """Handle a packet that failed the decapsulation CRC check.

        A corrupt request is NACKed back whole, exactly like a full
        server buffer — the requester backs off, scrubs and re-sends.
        Corrupt responses and control messages are dropped; the
        requester's watchdog (or the reservation layer's own retry)
        recovers the transaction end to end.
        """
        if packet.ptype.is_request:
            self.server_nacks.add(packet.line_count)
            yield from self._pipe_service(
                self._server_pipe, self.config.nack_ns * packet.line_count
            )
            yield self.network.inject(
                self.node_id, make_nack(packet, self.node_id)
            )

    def _admit_server_request(self, packet: Packet) -> Generator:
        cfg = self.config
        if self._fence is not None and not self._fence.fence_admit(
            self.amap.strip_node(packet.addr),
            packet.size,
            packet.meta.get(EPOCH_KEY),
        ):
            # stale-epoch access: the grant behind this range was
            # reclaimed (and possibly re-granted) since the requester's
            # lease was issued. Refuse it before it can touch memory;
            # the structured reason tells the client not to retry.
            self.fenced.add(packet.line_count)
            self.server_nacks.add(packet.line_count)
            yield from self._pipe_service(
                self._server_pipe, cfg.nack_ns * packet.line_count
            )
            yield self.network.inject(
                self.node_id, make_nack(packet, self.node_id, reason="fenced")
            )
            return
        if self._server_slots.count >= self._server_slots.capacity:
            # whole-burst rejection: one decode event, per-line charge
            self.server_nacks.add(packet.line_count)
            yield from self._pipe_service(
                self._server_pipe, cfg.nack_ns * packet.line_count
            )
            yield self.network.inject(
                self.node_id, make_nack(packet, self.node_id)
            )
            return
        slot = self._server_slots.request()
        yield slot
        self.server_requests.value += packet.line_count
        self.sim.process(
            self._serve_request(packet, slot), name=f"{self.name}.serve"
        )

    def _serve_request(self, packet: Packet, slot) -> Generator:
        sim = self.sim
        if sim.audit is not None:
            sim.audit.record(f"{self.name}.server", packet)
        pipe = self._server_pipe
        grant, service_ns = self._pipe_request(
            pipe, self._server_ns * packet.line_count
        )
        yield grant
        try:
            yield sim.timeout(service_ns)
        finally:
            pipe.release(grant)
        local = self.bridge.from_fabric(packet)
        local.meta["reply_to"] = self._mc_resp
        local.meta["server_slot"] = slot
        yield self.crossbar.send(local)

    def _mc_resp_loop(self) -> Generator:
        sim = self.sim
        pipe = self._server_pipe
        while True:
            response: Packet = yield self._mc_resp.get()
            slot = response.meta.pop("server_slot")
            response.meta.pop("reply_to", None)
            if sim.audit is not None:
                sim.audit.record(f"{self.name}.server", response)
            grant, service_ns = self._pipe_request(
                pipe, self._server_ns * response.line_count
            )
            yield grant
            try:
                yield sim.timeout(service_ns)
            finally:
                pipe.release(grant)
            self._server_slots.release(slot)
            yield self.network.inject(self.node_id, response)

    def _complete_client_op(self, packet: Packet) -> Generator:
        sim = self.sim
        if sim.audit is not None:
            sim.audit.record(f"{self.name}.client", packet)
        pipe = self._client_pipe
        grant, service_ns = self._pipe_request(
            pipe, self._client_ns * packet.line_count
        )
        yield grant
        try:
            yield sim.timeout(service_ns)
        finally:
            pipe.release(grant)
        if self._lossy() and packet.tag not in self.outstanding:
            self.stale_responses.add()
            return  # failed by the watchdog while in the pipe
        op = self.outstanding.complete(packet.tag)
        assert op.slot is not None and op.reply_to is not None
        self._slots.release(op.slot)
        now = sim.now
        self.inflight.adjust(-1, now)
        self.remote_latency_ns.observe(now - op.issue_ns)
        yield op.reply_to.put(packet)

    def _complete_prefetch(self, packet: Packet) -> Generator:
        # a fill is just a line-buffer write: it must never queue
        # behind prefetch *issues* (or it loses the race against the
        # demand stream by one pipe service, forever). A burst fill
        # writes all its lines in this one event — the scalar twin's N
        # fill processes each pay the same latency in parallel, so the
        # lines land at the same instant either way.
        yield self.sim.timeout(_FILL_NS)
        if self._lossy() and packet.tag not in self.outstanding:
            self.stale_responses.add()
            return
        op = self.outstanding.complete(packet.tag)
        assert packet.payload is not None
        base = op.request.addr
        for i in range(packet.line_count):
            line_addr = base + i * _LINE
            self._prefetch_inflight.discard(line_addr)
            self._prefetch_data[line_addr] = packet.payload[
                i * _LINE : (i + 1) * _LINE
            ]
            self._prefetch_data.move_to_end(line_addr)
        while len(self._prefetch_data) > self.config.prefetch_buffer_lines:
            self._prefetch_data.popitem(last=False)
            self.prefetch_wasted.add()

    def _issue_prefetches(self, demand_addr: int) -> Generator:
        """Fetch the next ``prefetch_depth`` lines after a demand read.

        Prefetches bypass the scarce demand slots (they have their own
        small buffer) but pay the client pipe and the fabric like any
        transaction — the bandwidth cost of prefetching is real.

        On a batching RMC (the default) the missing lines go out as
        coalesced burst reads — one packet per run of consecutive
        lines, charged per line at every hop and filled in one event at
        completion. An RMC built with ``batch=False`` takes the scalar
        one-packet-per-line reference twin; issued/hit/wasted counters
        are identical either way.
        """
        owner = self.amap.node_of(demand_addr)
        line_addr = demand_addr & ~(_LINE - 1)
        if not self.batch:
            yield from self._issue_prefetches_scalar(owner, line_addr)
            return
        # collect the missing candidate lines upfront: fills only ever land
        # for in-flight lines, which are skipped here, so a candidate
        # cannot become buffered between this scan and its issue
        candidates: list[int] = []
        for d in range(1, self.config.prefetch_depth + 1):
            pf_addr = line_addr + d * _LINE
            if self.amap.node_of(pf_addr) != owner:
                break  # never cross the owner window
            if (
                pf_addr in self._prefetch_data
                or pf_addr in self._prefetch_inflight
            ):
                continue
            # reserve before the (slow) pipe service so concurrent
            # issuing processes never duplicate a fetch
            self._prefetch_inflight.add(pf_addr)
            candidates.append(pf_addr // _LINE)
        align = self.burst_align_bytes // _LINE
        for _, first, count in burst_runs(candidates, align):
            yield from self._pipe_service(
                self._prefetch_pipe, self._client_ns * count
            )
            pf_request = make_burst_read_req(
                self.node_id, owner, first * _LINE, _LINE, count, self.tags.next()
            )
            yield from self._launch_prefetch(pf_request, count)

    def _issue_prefetches_scalar(self, owner: int, line_addr: int) -> Generator:
        """One packet per line: the reference twin of the burst path."""
        for d in range(1, self.config.prefetch_depth + 1):
            pf_addr = line_addr + d * _LINE
            if self.amap.node_of(pf_addr) != owner:
                break  # never cross the owner window
            if (
                pf_addr in self._prefetch_data
                or pf_addr in self._prefetch_inflight
            ):
                continue
            self._prefetch_inflight.add(pf_addr)
            yield from self._pipe_service(
                self._prefetch_pipe, self._client_ns
            )
            pf_request = make_read_req(
                self.node_id, owner, pf_addr, _LINE, self.tags.next()
            )
            yield from self._launch_prefetch(pf_request, 1)

    def _launch_prefetch(self, pf_request: Packet, count: int) -> Generator:
        """Register *pf_request* as an outstanding prefetch and send it."""
        pf_request.issue_ns = self.sim.now
        pf_request.meta["prefetch"] = True
        if self._lease_epochs is not None:
            epoch = self._lease_epochs.epoch_of(pf_request.addr)
            if epoch is not None:
                pf_request.meta[EPOCH_KEY] = epoch
        self.prefetch_issued.add(count)
        pf_op = PendingOp(
            request=pf_request,
            reply_to=None,
            slot=None,
            issue_ns=self.sim.now,
            is_prefetch=True,
        )
        self.outstanding.add(pf_op)
        if self._watchdog.enabled:
            self.sim.process(
                self._watchdog.watch(pf_op), name=f"{self.name}.wdog"
            )
        yield self.network.inject(self.node_id, pf_request)

    def _retransmit(self, nack: Packet) -> Generator:
        """A remote server NACKed one of our requests: back off and resend.

        With ``max_retries`` set the NACK storm is bounded: once a
        request has been rejected that many times the transaction is
        abandoned with a machine-check FAULT instead of livelocking.
        Every back-off waits ``retry_backoff_ns``.
        """
        cfg = self.config
        if nack.tag not in self.outstanding:
            if self._lossy():
                self.stale_responses.add()
                return
            raise ProtocolError(
                f"{self.name}: NACK for unknown tag {nack.tag}"
            )
        if nack.meta.get("reason") == "fenced":
            # epoch fence: the lease behind this address was reclaimed
            # or re-granted — no number of retries can ever succeed, so
            # fail the transaction immediately with the structured
            # reason instead of burning the back-off budget
            self._fail_op(
                self.outstanding.get(nack.tag),
                f"node {nack.src} fenced stale-epoch access to "
                f"{nack.addr:#x}",
                reason="fenced",
            )
            return
        retries = self.outstanding.note_retry(nack.tag)
        if cfg.max_retries and retries > cfg.max_retries:
            self.retries_exhausted.add()
            self._fail_op(
                self.outstanding.get(nack.tag),
                f"node {nack.src} rejected tag {nack.tag} "
                f"{retries} times; retries exhausted",
            )
            return
        yield self.sim.timeout(cfg.retry_backoff_ns)
        if nack.tag not in self.outstanding:
            self.stale_responses.add()
            return  # completed or failed while backing off
        yield from self._resend(self.outstanding.get(nack.tag))

    def _resend(self, op: PendingOp) -> Generator:
        """Re-send *op*'s request whole, under its original tag."""
        if self._faults is not None:
            # the retransmission re-reads clean state: it must not
            # inherit an in-flight corruption mark from the last try
            self._faults.scrub(op.request)
        self.retransmissions.add(op.request.line_count)
        yield from self._pipe_service(
            self._client_pipe,
            self._client_ns * op.request.line_count,
        )
        yield self.network.inject(self.node_id, op.request)

    def _fail_op(
        self, op: PendingOp, message: str, reason: "str | None" = None
    ) -> None:
        """Abandon *op*: free its resources, deliver a FAULT completion.

        The issuing core receives a machine-check style FAULT packet
        and raises :class:`~repro.errors.RemoteAccessError` (carrying
        *reason* when the remote side gave a structured one); abandoned
        prefetches die silently (they were speculative).
        """
        tag = op.request.tag
        if tag in self.outstanding:
            self.outstanding.complete(tag)
        if op.is_prefetch:
            # a burst prefetch covers line_count lines; free them all
            base = op.request.addr
            for i in range(op.request.line_count):
                self._prefetch_inflight.discard(base + i * _LINE)
            return
        assert op.slot is not None and op.reply_to is not None
        self._slots.release(op.slot)
        self.inflight.adjust(-1, self.sim.now)
        op.reply_to.put(
            make_fault(
                op.request, self.node_id, message,
                retries=op.retries, reason=reason,
            )
        )
