"""Configuration dataclasses for every subsystem.

Defaults reproduce the paper's prototype (Section IV-B):

* 16 nodes, each a Supermicro-class board with four 2.1 GHz quad-core
  Opterons, 4 GB of DDR2-800 per socket (16 GB/node),
* each OS booted with 8 GB, the other 8 GB donated to a 128 GB
  cluster-wide shared pool,
* a 4x4 2D mesh of HyperTransport links between the FPGA-based RMCs,
* the RMC presented as an HT I/O unit, which limits each core to a
  single outstanding request to remote memory (vs. 8 to local).

All timing constants are stated in nanoseconds. They are calibrated to
the *relative* magnitudes the paper reports (local DRAM ~100 ns; remote
line fetch over the FPGA RMC ~1 us at one hop; remote-swap page fault
~tens of us), not to exact testbed numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.errors import ConfigError
from repro.units import CACHE_LINE, GIB, PAGE_SIZE, bandwidth_time, gib

__all__ = [
    "LinkConfig",
    "NetworkConfig",
    "DRAMConfig",
    "CacheConfig",
    "CoreConfig",
    "NodeConfig",
    "RMCConfig",
    "SwapConfig",
    "HealthConfig",
    "ClusterConfig",
]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


@dataclass(frozen=True)
class LinkConfig:
    """A point-to-point HT link between two fabric endpoints."""

    #: Payload bandwidth in bytes per nanosecond (== GB/s).
    bandwidth_Bpns: float = 1.6
    #: Wire propagation + SerDes latency per traversal.
    propagation_ns: float = 12.0
    #: Fixed per-packet header overhead in bytes (HT control doubleword).
    header_bytes: int = 8

    def __post_init__(self) -> None:
        _require(self.bandwidth_Bpns > 0, "link bandwidth must be positive")
        _require(self.propagation_ns >= 0, "propagation latency cannot be negative")
        _require(self.header_bytes >= 0, "header size cannot be negative")

    def serialization_ns(self, payload_bytes: int) -> float:
        """Time to clock a packet of *payload_bytes* onto the wire."""
        return bandwidth_time(
            payload_bytes + self.header_bytes, self.bandwidth_Bpns
        )


@dataclass(frozen=True)
class NetworkConfig:
    """The inter-node fabric (Section IV-B: a 4x4 2D mesh)."""

    topology: str = "mesh"
    #: Mesh/torus dimensions; for "ring"/"line" only dims[0] is used.
    dims: Tuple[int, int] = (4, 4)
    link: LinkConfig = field(default_factory=LinkConfig)
    #: Per-hop switch traversal latency (arbitration + crossbar).
    switch_latency_ns: float = 48.0
    #: Input-buffer depth of each switch port, in packets.
    switch_buffer_packets: int = 8

    def __post_init__(self) -> None:
        _require(
            self.topology in ("mesh", "torus", "ring", "line", "fullmesh"),
            f"unknown topology {self.topology!r}",
        )
        _require(
            all(d >= 1 for d in self.dims) and len(self.dims) == 2,
            f"dims must be two positive ints, got {self.dims!r}",
        )
        _require(self.switch_latency_ns >= 0, "switch latency cannot be negative")
        _require(self.switch_buffer_packets >= 1, "switch buffers must hold >= 1 packet")

    @property
    def num_nodes(self) -> int:
        if self.topology in ("ring", "line", "fullmesh"):
            return self.dims[0]
        return self.dims[0] * self.dims[1]


@dataclass(frozen=True)
class DRAMConfig:
    """Per-socket DDR2-800 memory controller + DIMM timing."""

    #: Capacity attached to one socket's memory controller.
    capacity_bytes: int = 4 * GIB
    #: Independent banks the controller can keep open.
    banks: int = 8
    #: Row-buffer hit access latency.
    row_hit_ns: float = 45.0
    #: Row-buffer miss (precharge + activate + CAS) latency.
    row_miss_ns: float = 90.0
    #: Bytes covered by one open row (used for hit/miss classification).
    row_bytes: int = 8192
    #: Controller front-end queue depth.
    queue_depth: int = 32
    #: Fixed controller pipeline overhead per request.
    controller_ns: float = 10.0

    def __post_init__(self) -> None:
        _require(self.capacity_bytes > 0, "DRAM capacity must be positive")
        _require(self.banks >= 1, "need at least one DRAM bank")
        _require(0 < self.row_hit_ns <= self.row_miss_ns,
                 "row hit latency must be positive and <= row miss latency")
        _require(self.row_bytes >= CACHE_LINE, "a DRAM row must hold >= one line")
        _require(self.queue_depth >= 1, "controller queue depth must be >= 1")


@dataclass(frozen=True)
class CacheConfig:
    """One level of a node's cache hierarchy (modeled at L2 granularity)."""

    size_bytes: int = 2 * 1024 * 1024
    associativity: int = 16
    line_bytes: int = CACHE_LINE
    hit_ns: float = 5.0
    #: write-back (True) or write-through (False)
    write_back: bool = True

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "cache size must be positive")
        _require(self.associativity >= 1, "associativity must be >= 1")
        _require(self.line_bytes >= 8 and self.line_bytes & (self.line_bytes - 1) == 0,
                 "line size must be a power of two >= 8")
        _require(self.size_bytes % (self.line_bytes * self.associativity) == 0,
                 "cache size must be a whole number of sets")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class CoreConfig:
    """An Opteron-class core's memory-issue behaviour."""

    #: Max outstanding requests to *local* (coherent) memory (Opteron: 8).
    local_outstanding: int = 8
    #: Max outstanding requests to the RMC-mapped I/O range (prototype: 1).
    remote_outstanding: int = 1
    #: Non-memory work per loop iteration of a pointer-chasing benchmark.
    compute_ns_per_access: float = 2.0
    #: On-board snoop broadcast window added to every coherent miss.
    snoop_ns: float = 14.0
    #: Cache-to-cache transfer when a peer holds the line Modified
    #: (faster than DRAM — the intervention path).
    cache2cache_ns: float = 42.0

    def __post_init__(self) -> None:
        _require(self.local_outstanding >= 1, "local_outstanding must be >= 1")
        _require(self.remote_outstanding >= 1, "remote_outstanding must be >= 1")
        _require(self.snoop_ns >= 0, "snoop window cannot be negative")
        _require(self.cache2cache_ns >= 0, "c2c latency cannot be negative")


@dataclass(frozen=True)
class NodeConfig:
    """One cluster node (Section IV-B: 4 sockets x 4 cores, 16 GB)."""

    sockets: int = 4
    cores_per_socket: int = 4
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    core: CoreConfig = field(default_factory=CoreConfig)
    #: Fraction of node memory the local OS keeps; the rest joins the
    #: cluster shared pool (prototype: 8 GB of 16 GB => 0.5).
    private_fraction: float = 0.5
    #: Stripe the node's physical space across the sockets' memory
    #: controllers at this granularity (Opteron "node interleaving").
    #: 0 = contiguous per-socket blocks (the BIOS default the paper's
    #: Fig. 2(a) BAR walk-through describes).
    interleave_bytes: int = 0

    def __post_init__(self) -> None:
        _require(self.sockets >= 1, "need at least one socket")
        _require(self.cores_per_socket >= 1, "need at least one core per socket")
        _require(0.0 < self.private_fraction <= 1.0,
                 "private_fraction must be in (0, 1]")
        if self.interleave_bytes:
            _require(
                self.interleave_bytes >= 4096
                and self.interleave_bytes & (self.interleave_bytes - 1) == 0,
                "interleave granularity must be a power of two >= 4096",
            )

    @property
    def num_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def total_memory_bytes(self) -> int:
        return self.sockets * self.dram.capacity_bytes

    @property
    def private_memory_bytes(self) -> int:
        return int(self.total_memory_bytes * self.private_fraction)

    @property
    def donated_memory_bytes(self) -> int:
        return self.total_memory_bytes - self.private_memory_bytes


@dataclass(frozen=True)
class RMCConfig:
    """The Remote Memory Controller (FPGA HTX card in the prototype).

    The client pipeline (terminating local core requests and matching
    returning responses) is the expensive side of the FPGA design —
    this is where the paper locates the bottleneck of Fig. 7. The
    server pipeline (stripping the prefix and replaying the request to
    a local memory controller) is a much simpler forwarding path.
    """

    #: Client-pipeline time per operation (request issue / response match).
    processing_ns: float = 140.0
    #: Server-pipeline time per operation (decapsulate-forward / reply).
    server_processing_ns: float = 48.0
    #: Client-side in-flight request slots (the prototype FPGA is shallow).
    buffer_entries: int = 4
    #: Server-side admission slots; overflowing them NACKs over the fabric.
    server_buffer_entries: int = 16
    #: Latency to emit a NACK when a buffer is full.
    nack_ns: float = 40.0
    #: Requester back-off before retrying a NACKed request.
    retry_backoff_ns: float = 600.0
    #: Per-outstanding-request watchdog timeout: a request with no
    #: response after this long is retransmitted (0 = watchdog off, the
    #: original fail-stop-free fabric where losses cannot happen).
    request_timeout_ns: float = 0.0
    #: Retransmission budget per request before the access fails with
    #: RemoteAccessError (0 = retry forever, the original behaviour).
    max_retries: int = 0
    #: Arbitration-overhead factor: pipeline service time scales by
    #: ``(1 + congestion_alpha * queue_length)`` up to ``congestion_cap``.
    #: Models the FPGA pipeline stalling under bursty load — the effect
    #: behind Fig. 7's counter-intuitive hop-distance result.
    congestion_alpha: float = 0.35
    congestion_cap: float = 4.0
    #: If True the RMC keeps a translation table (ablation of the
    #: paper's no-table prefix scheme) and pays table_lookup_ns per op.
    use_translation_table: bool = False
    table_lookup_ns: float = 60.0
    #: Hardware sequential prefetch: on each forwarded read the client
    #: RMC also fetches the next N lines into a small line buffer
    #: (Section VI future work; 0 = the built prototype).
    prefetch_depth: int = 0
    #: Line-buffer entries for prefetched data.
    prefetch_buffer_lines: int = 32

    def __post_init__(self) -> None:
        _require(self.prefetch_depth >= 0, "prefetch depth cannot be negative")
        _require(self.prefetch_buffer_lines >= 1,
                 "prefetch buffer needs >= 1 line")
        _require(self.processing_ns > 0, "RMC processing latency must be positive")
        _require(self.server_processing_ns > 0,
                 "RMC server processing latency must be positive")
        _require(self.buffer_entries >= 1, "RMC buffer must hold >= 1 entry")
        _require(self.server_buffer_entries >= 1,
                 "RMC server buffer must hold >= 1 entry")
        _require(self.nack_ns >= 0, "NACK latency cannot be negative")
        _require(self.retry_backoff_ns >= 0, "retry backoff cannot be negative")
        _require(self.request_timeout_ns >= 0,
                 "request timeout cannot be negative")
        _require(self.max_retries >= 0, "max_retries cannot be negative")
        _require(self.congestion_alpha >= 0, "congestion_alpha cannot be negative")
        _require(self.congestion_cap >= 1, "congestion_cap must be >= 1")
        _require(self.table_lookup_ns >= 0, "table lookup cost cannot be negative")

    def per_op_ns(self) -> float:
        """Uncontended client-pipeline latency per operation."""
        extra = self.table_lookup_ns if self.use_translation_table else 0.0
        return self.processing_ns + extra

    def server_per_op_ns(self) -> float:
        """Uncontended server-pipeline latency per operation."""
        extra = self.table_lookup_ns if self.use_translation_table else 0.0
        return self.server_processing_ns + extra


@dataclass(frozen=True)
class SwapConfig:
    """Cost model for the swap baselines (Section V-B comparison)."""

    page_bytes: int = PAGE_SIZE
    #: Kernel page-fault handling overhead (trap, VMA walk, I/O setup).
    os_fault_ns: float = 6_000.0
    #: Remote-swap page transfer setup (network stack, DMA programming).
    net_setup_ns: float = 12_000.0
    #: Remote-swap page transfer bandwidth (GbE-class: ~0.12 B/ns).
    net_bandwidth_Bpns: float = 0.125
    #: Disk-swap seek + rotational latency per page.
    disk_seek_ns: float = 6_000_000.0
    #: Disk sequential transfer bandwidth.
    disk_bandwidth_Bpns: float = 0.08

    def __post_init__(self) -> None:
        _require(self.page_bytes >= 512 and self.page_bytes % 512 == 0,
                 "page size must be a multiple of 512 bytes")
        _require(self.os_fault_ns >= 0, "OS fault overhead cannot be negative")
        _require(self.net_bandwidth_Bpns > 0, "network bandwidth must be positive")
        _require(self.disk_bandwidth_Bpns > 0, "disk bandwidth must be positive")

    def remote_page_ns(self) -> float:
        """End-to-end remote-swap fault service time for one page."""
        return (
            self.os_fault_ns
            + self.net_setup_ns
            + bandwidth_time(self.page_bytes, self.net_bandwidth_Bpns)
        )

    def disk_page_ns(self) -> float:
        """End-to-end disk-swap fault service time for one page."""
        return (
            self.os_fault_ns
            + self.disk_seek_ns
            + bandwidth_time(self.page_bytes, self.disk_bandwidth_Bpns)
        )


@dataclass(frozen=True)
class HealthConfig:
    """Failure detection and lease lifecycle (the self-healing layer).

    All machinery described here is dormant until
    :meth:`~repro.cluster.cluster.Cluster.arm_health` is called — an
    unarmed cluster schedules no probes, keeps no lease timers, and is
    bit-identical to a build without the health subsystem.
    """

    #: Period between liveness probes from a borrower to each donor it
    #: holds a lease from.
    heartbeat_period_ns: float = 20_000.0
    #: How long one probe waits for its ack before counting a miss.
    #: Must comfortably exceed the control daemon's worst service
    #: bubble: probes share one single-server daemon per node with the
    #: reservation protocol, whose reserve/release ops each cost
    #: ``RESERVATION_SERVICE_NS`` (15 us) — a timeout below that turns
    #: every probe that queues behind one reservation into a false
    #: miss, and a renewal-retry storm into control-plane collapse.
    probe_timeout_ns: float = 30_000.0
    #: Consecutive misses before the peer is declared dead.
    miss_threshold: int = 3
    #: Consecutive misses before the route to the peer is quarantined
    #: (rerouted around its first hop where the topology allows) — the
    #: link-flap escape hatch that fires *before* a death verdict.
    quarantine_after: int = 2
    #: Finite lease lifetime; 0 keeps the paper's infinite leases (no
    #: renewal traffic, no expiry daemon).
    lease_ttl_ns: float = 0.0
    #: How long before expiry the borrower starts renewing (should
    #: exceed ``probe_timeout_ns`` so one full renewal exchange fits
    #: before the nominal deadline).
    renew_margin_ns: float = 40_000.0
    #: Grace window after a renewal first times out: a slow donor can
    #: still answer a retry here; only when the grace budget is gone is
    #: the lease expired (the slow-vs-dead distinction). Sized for
    #: three retries at ``probe_timeout_ns`` so a transient link flap
    #: is not promoted into an (unrecoverable) lease expiry.
    lease_grace_ns: float = 90_000.0
    #: On a confirmed donor death, automatically re-reserve capacity
    #: from healthy donors and re-materialize recoverable pages.
    auto_recover: bool = True
    #: How long one replacement-reservation exchange may take before
    #: recovery abandons the candidate donor and tries the next one —
    #: the bound that keeps recovery live when the exchange itself is
    #: black-holed (partition, dropped CTRL packet).
    reserve_timeout_ns: float = 150_000.0
    #: Start watching a donor (and its lease timer) on every borrow.
    #: False arms the monitor without attaching anything — the empty
    #: plan of the bit-identical equivalence test.
    watch_on_borrow: bool = True
    #: SWIM-style corroboration: before declaring a peer dead at
    #: ``miss_threshold``, ask up to this many other watched peers to
    #: probe it indirectly; any success refutes the verdict. 0 keeps
    #: single-observer declarations (and schedules no extra traffic).
    indirect_probes: int = 0
    #: Minimum fraction of its watch set an observer must itself reach
    #: to declare deaths or issue new borrows. Below quorum the
    #: observer assumes *it* is the partitioned minority: it enters
    #: isolated mode and self-fences instead of degrading the
    #: majority. Only consulted when ``indirect_probes > 0``.
    quorum_fraction: float = 0.5
    #: How long a solicited helper waits for its indirect probe before
    #: reporting the suspect unreachable; the observer's corroboration
    #: round waits this plus one ``probe_timeout_ns``.
    ping_req_timeout_ns: float = 60_000.0
    #: Stamp lease epochs on remote requests and fence stale epochs at
    #: the donor RMC (armed by ``arm_health``): after a reclaim or
    #: re-grant, a healed minority borrower's write is NACKed with
    #: ``RemoteAccessError(reason="fenced")`` instead of corrupting
    #: the new tenant's memory.
    epoch_fencing: bool = False

    def __post_init__(self) -> None:
        _require(self.heartbeat_period_ns > 0, "heartbeat period must be positive")
        _require(self.probe_timeout_ns > 0, "probe timeout must be positive")
        _require(self.miss_threshold >= 1, "miss_threshold must be >= 1")
        _require(
            1 <= self.quarantine_after <= self.miss_threshold,
            "quarantine_after must be in [1, miss_threshold]",
        )
        _require(self.lease_ttl_ns >= 0, "lease TTL cannot be negative")
        _require(self.renew_margin_ns > 0, "renew margin must be positive")
        _require(self.lease_grace_ns >= 0, "lease grace cannot be negative")
        _require(
            self.reserve_timeout_ns > 0, "reserve timeout must be positive"
        )
        _require(
            self.indirect_probes >= 0, "indirect_probes cannot be negative"
        )
        _require(
            0 < self.quorum_fraction <= 1,
            "quorum_fraction must be in (0, 1]",
        )
        _require(
            self.ping_req_timeout_ns > 0, "ping-req timeout must be positive"
        )
        if self.lease_ttl_ns:
            _require(
                self.renew_margin_ns < self.lease_ttl_ns,
                "renew margin must be smaller than the lease TTL",
            )


@dataclass(frozen=True)
class ClusterConfig:
    """Top-level description of the whole prototype."""

    network: NetworkConfig = field(default_factory=NetworkConfig)
    node: NodeConfig = field(default_factory=NodeConfig)
    rmc: RMCConfig = field(default_factory=RMCConfig)
    swap: SwapConfig = field(default_factory=SwapConfig)
    health: HealthConfig = field(default_factory=HealthConfig)
    #: Root seed for all stochastic components.
    seed: int = 0xC1A5_7E12

    def __post_init__(self) -> None:
        _require(self.network.num_nodes >= 1, "cluster needs >= 1 node")

    @property
    def num_nodes(self) -> int:
        return self.network.num_nodes

    @property
    def shared_pool_bytes(self) -> int:
        """Total donated memory across the cluster (128 GiB by default)."""
        return self.num_nodes * self.node.donated_memory_bytes

    def with_nodes(self, n: int) -> "ClusterConfig":
        """Convenience: same config scaled to an *n*-node line topology."""
        _require(n >= 1, "cluster needs >= 1 node")
        net = replace(self.network, topology="line", dims=(n, 1))
        return replace(self, network=net)


def paper_prototype() -> ClusterConfig:
    """The 16-node, 4x4-mesh, 128 GB-pool configuration of Section IV-B."""
    return ClusterConfig()


def htoe_cluster(nodes: int = 16) -> ClusterConfig:
    """HyperTransport-over-Ethernet deployment (Section IV-B outlook).

    The paper notes the HT Consortium "is currently standardizing ...
    HyperTransport over Ethernet and HyperTransport over Infiniband,
    that will allow the use of standard Ethernet and Infiniband
    switches". Modeled as a non-blocking switched fabric (full mesh,
    one hop between any pair) whose links carry 10 GbE-class
    serialization and the switch+encapsulation latency of an
    Ethernet path.
    """
    return ClusterConfig(
        network=NetworkConfig(
            topology="fullmesh",
            dims=(nodes, 1),
            link=LinkConfig(
                bandwidth_Bpns=1.25,    # 10 GbE payload rate
                propagation_ns=450.0,   # encap + switch + decap
                header_bytes=26,        # Ethernet framing around HT
            ),
            switch_latency_ns=48.0,
        )
    )


__all__ += ["paper_prototype", "htoe_cluster"]
