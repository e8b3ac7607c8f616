"""The four end-to-end workloads of the benchmark.

Each workload owns its seeded inputs (made once, in the constructor,
from :func:`repro.sim.rng.stream`) and knows how to

* ``setup()`` a fresh simulated system and warm it up, returning the
  state the measured phase runs on;
* ``run(state, rec)`` its closed-loop measured phase, reporting every
  operation to the :class:`recorder.Recorder`, which decides when to stop;
* ``counters(state)`` read the exact, cumulative work counters of every
  layer, so the recorder can take deltas over a window of operations.

The op stream is infinite and seeded, so a run measures for as long as
the recorder asks while its first operations stay identical between
runs. Only public entry points of ``repro`` are driven.
"""

from __future__ import annotations

import contextlib
from time import perf_counter_ns
from types import SimpleNamespace

import numpy as np

from repro.apps.access import SessionAccessor
from repro.apps.btree import BTree
from repro.apps.database import MiniDB
from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.config import ClusterConfig
from repro.errors import RemoteAccessError
from repro.mem.backing import BackingStore
from repro.model.fastsim import SwapAccessor
from repro.model.latency import LatencyModel
from repro.sim.rng import stream
from repro.swap.remoteswap import RemoteSwap
from repro.units import CACHE_LINE, PAGE_SIZE, mib

__all__ = ["WORKLOADS", "COUNTERS"]

#: every cumulative counter a workload reports; a layer the workload
#: does not touch reads zero
COUNTERS = (
    "sim.now",
    "sim.events",
    "ht.link_packets",
    "ht.link_bytes",
    "noc.switch_forwards",
    "rmc.client_reqs",
    "rmc.server_reqs",
    "rmc.server_nacks",
    "rmc.retx",
    "mem.cache_hits",
    "mem.cache_misses",
    "mem.tlb_hits",
    "mem.tlb_misses",
    "mem.mc_accesses",
    "mem.dram_row_hits",
    "mem.dram_row_misses",
    "cluster.nack_retries",
    "model.cache_hits",
    "model.cache_misses",
    "apps.accessor_calls",
    "swap.faults",
    "swap.evictions",
)

#: operations a stream generates at a time (a multiple of every
#: workload's block)
_CHUNK = 4000

#: what a failed operation may raise: a machine-check-style remote
#: error, or one of the program's own internal consistency asserts
OP_ERRORS = (AssertionError, RemoteAccessError)


@contextlib.contextmanager
def span(spans: list, name: str):
    """Record a setup-phase span ``(name, start_ns, end_ns)``."""
    t0 = perf_counter_ns()
    try:
        yield
    finally:
        spans.append((name, t0, perf_counter_ns()))


class OpStream:
    """Per-op inputs drawn chunk by chunk from one seeded stream.

    ``make(rng, n)`` returns a tuple of length-``n`` sequences; op ``i``
    gets element ``i`` of each. Chunks are drawn in order, so the
    inputs of op ``i`` do not depend on how far a run got. Only the
    current chunk is kept, so host memory does not grow with the run
    (peak memory is a metric): ops must be read in increasing order.
    """

    def __init__(self, rng: np.random.Generator, make) -> None:
        self._rng = rng
        self._make = make
        self._index = -1
        self._chunk: list[tuple] = []

    def __getitem__(self, i: int) -> tuple:
        c, k = divmod(i, _CHUNK)
        if c < self._index:
            raise IndexError(f"op {i} lies in a chunk already dropped")
        while self._index < c:
            self._chunk = list(zip(*self._make(self._rng, _CHUNK)))
            self._index += 1
        return self._chunk[k]

    def __iter__(self):
        i = 0
        while True:
            yield self[i]
            i += 1


def _scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(n * scale)))


class Workload:
    """Common shape of a synchronous, single-thread closed-loop workload."""

    name = ""
    #: the public call one operation makes, used as its span name
    span_name = ""
    #: operations whose simulated latencies and counter deltas are
    #: digested (the exact, run-independent part of a run)
    check_ops = 0
    #: unmeasured operations run after setup, before the measured phase
    warmup_ops = 0
    #: ops per block of the input stream; a workload mixing operations of
    #: very different cost holds the exact mix in every block, and the
    #: measured phase starts and ends on a block boundary
    block = 1

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        self.check_ops = _scaled(type(self).check_ops, scale, 10)
        warm = _scaled(type(self).warmup_ops, scale, 0)
        # the measured phase starts on a block boundary
        self.warmup_ops = -(-warm // self.block) * self.block

    def rng(self, *path) -> np.random.Generator:
        return stream(self.seed, "e2e", self.name, *path)

    def op_names(self, start: int, count: int) -> list:
        """Span names of ops ``start .. start+count-1``."""
        ops = OpStream(self.rng("ops"), self.make_ops)
        return [self.op_name(*ops[i]) for i in range(start, start + count)]

    def op_name(self, *inputs) -> str:
        return self.span_name

    def setup(self, spans: list) -> SimpleNamespace:
        st = self.build(spans)
        st.ops = OpStream(self.rng("ops"), self.make_ops)
        with span(spans, "warmup"):
            st.warm_failed = sum(
                not self.safe_op(st, *st.ops[i]) for i in range(self.warmup_ops)
            )
        return st

    def safe_op(self, st, *inputs) -> bool:
        try:
            return self.op(st, *inputs)
        except OP_ERRORS:
            return False

    def run(self, st, rec) -> None:
        """The measured phase: op after op until the recorder stops it."""
        clock, op, inputs = st.clock, self.safe_op, st.ops
        i = self.warmup_ops
        while True:
            args = inputs[i]
            s0 = clock()
            t0 = perf_counter_ns()
            ok = op(st, *args)
            t1 = perf_counter_ns()
            if not rec.op(t0, t1, clock() - s0, ok):
                return
            i += 1

    # -- per workload ------------------------------------------------------
    def build(self, spans: list) -> SimpleNamespace:
        raise NotImplementedError

    def make_ops(self, rng: np.random.Generator, n: int) -> tuple:
        """The inputs of *n* consecutive ops, as a tuple of columns."""
        raise NotImplementedError

    def op(self, st, *inputs) -> bool:
        """Run one op on its inputs; returns whether its output checks out."""
        raise NotImplementedError

    def counters(self, st) -> dict:
        raise NotImplementedError


def _packet_counters(cluster: Cluster, sessions) -> dict:
    """Cumulative work counters of every packet-tier layer."""
    nodes = list(cluster.nodes.values())
    links = [link for _, link in sorted(cluster.network.links.items())]
    mcs = [mc for node in nodes for mc in node.mcs]
    caches = [cache.stats for node in nodes for cache in node.caches]
    now = cluster.sim.now
    out = dict.fromkeys(COUNTERS, 0)
    out.update({
        "sim.now": now,
        "sim.events": cluster.sim.events_scheduled,
        "ht.link_packets": sum(link.packets.value for link in links),
        "ht.link_bytes": sum(link.bytes.value for link in links),
        "noc.switch_forwards": sum(
            sw.forwarded.value for sw in cluster.network.switches.values()
        ),
        "rmc.client_reqs": sum(n.rmc.client_requests.value for n in nodes),
        "rmc.server_reqs": sum(n.rmc.server_requests.value for n in nodes),
        "rmc.server_nacks": sum(n.rmc.server_nacks.value for n in nodes),
        "rmc.retx": sum(n.rmc.retransmissions.value for n in nodes),
        "mem.cache_hits": sum(s.hits for s in caches),
        "mem.cache_misses": sum(s.misses for s in caches),
        "mem.tlb_hits": sum(s.aspace.tlb.hits for s in sessions),
        "mem.tlb_misses": sum(s.aspace.tlb.misses for s in sessions),
        "mem.mc_accesses": sum(mc.reads.value + mc.writes.value for mc in mcs),
        "mem.dram_row_hits": sum(mc.timing.row_hits.value for mc in mcs),
        "mem.dram_row_misses": sum(mc.timing.row_misses.value for mc in mcs),
        "cluster.nack_retries": sum(
            core.nack_retries.value for n in nodes for core in n.cores
        ),
    })
    # busy time of each directed link since t=0 (links are built at
    # t=0, so utilization x now is the time-weighted busy area); the
    # recorder turns two of these into the window's max utilization
    out["noc.link_busy"] = [link.utilization(now) * now for link in links]
    return out


def _borrow_buffer(sess, donor: int, size: int) -> int:
    """Borrow *size* bytes (plus allocator slack) from *donor* and map
    them; returns the buffer's virtual address."""
    sess.borrow_remote(donor, size + mib(1))
    return sess.malloc(size, Placement.REMOTE)


def _warm_tlb(sess, ptr: int, size: int) -> None:
    """Pre-walk every page once (zero simulated time), as randbench does,
    so page-table walks stay off the measurement."""
    for vaddr in range(ptr, ptr + size, sess.aspace.page_bytes):
        sess.aspace.translate(vaddr)


def _line_offsets(rng: np.random.Generator, n: int, buffer_bytes: int) -> tuple:
    """Random line-aligned offsets inside a buffer, as one input column."""
    lines = rng.integers(0, buffer_bytes // CACHE_LINE, size=n, dtype=np.int64)
    return ((lines * CACHE_LINE).tolist(),)


class RandRead(Workload):
    """Fig. 6 loop: uncached 64 B reads of a buffer 3 hops away."""

    name = "rand_read"
    span_name = "cluster.Session.read"
    check_ops = 4_000
    warmup_ops = 800
    CLIENT, DONOR = 6, 12
    BUFFER = mib(32)

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.pattern = self.rng("pattern").bytes(self.BUFFER)

    def make_ops(self, rng, n):
        return _line_offsets(rng, n, self.BUFFER)

    def build(self, spans):
        with span(spans, "Cluster"):
            cluster = Cluster()
        if cluster.hops(self.CLIENT, self.DONOR) != 3:
            raise RuntimeError("rand_read expects its donor 3 hops away")
        sess = cluster.session(self.CLIENT)
        with span(spans, "borrow_remote"):
            ptr = _borrow_buffer(sess, self.DONOR, self.BUFFER)
        with span(spans, "population"):
            sess.bulk_write(ptr, self.pattern)
            _warm_tlb(sess, ptr, self.BUFFER)
        sim = cluster.sim
        return SimpleNamespace(
            cluster=cluster, sess=sess, ptr=ptr, clock=lambda: sim.now
        )

    def op(self, st, off):
        data = st.sess.read(st.ptr + off, CACHE_LINE, cached=False)
        return data == self.pattern[off : off + CACHE_LINE]

    def counters(self, st):
        return _packet_counters(st.cluster, [st.sess])


class ServerStress(Workload):
    """Fig. 8 heavy point: a control thread plus 7 x 4 stressor threads,
    all reading uncached lines from one server node.

    Only the control thread's reads are recorded as operations (the
    paper's metric); every stressor read still counts as work done and
    is checked. Runs cold from the first simulated nanosecond after
    setup, like the paper's run, so there is no warm-up.
    """

    name = "server_stress"
    span_name = "cluster.Session.g_read"
    check_ops = 150
    warmup_ops = 0
    SERVER, CONTROL = 6, 2
    STRESSORS = (5, 7, 8, 9, 10, 11, 13)
    THREADS = 4
    #: per-client buffer: every line of it is patterned and checked,
    #: so eight 32 MiB buffers would cost 256 MiB of host memory;
    #: random lines miss the DRAM row buffer at either size
    BUFFER = mib(4)

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.pattern = self.rng("pattern").bytes(self.BUFFER)

    def build(self, spans):
        with span(spans, "Cluster"):
            cluster = Cluster()
        clients = []
        for node in (self.CONTROL, *self.STRESSORS):
            sess = cluster.session(node)
            with span(spans, "borrow_remote"):
                ptr = _borrow_buffer(sess, self.SERVER, self.BUFFER)
            with span(spans, "population"):
                sess.bulk_write(ptr, self.pattern)
                _warm_tlb(sess, ptr, self.BUFFER)
            clients.append((sess, ptr))
        return SimpleNamespace(cluster=cluster, clients=clients)

    def make_ops(self, rng, n):
        return _line_offsets(rng, n, self.BUFFER)

    def _read(self, sess, ptr, offsets, core):
        """One checked read of the thread's next random line."""
        (off,) = next(offsets)
        try:
            data = yield from sess.g_read(
                ptr + off, CACHE_LINE, core=core, cached=False
            )
        except RemoteAccessError:
            return False
        return data == self.pattern[off : off + CACHE_LINE]

    def _offsets(self, *path):
        return iter(OpStream(self.rng(*path), self.make_ops))

    def _stressor(self, st, rec, stop, si, tid):
        sess, ptr = st.clients[si]
        core = tid % len(sess.node.cores)
        offsets = self._offsets("stress", si, tid)
        while not stop[0]:
            rec.extra((yield from self._read(sess, ptr, offsets, core)))

    def _control(self, st, rec, stop):
        sess, ptr = st.clients[0]
        sim = st.cluster.sim
        offsets = self._offsets("control")
        last = perf_counter_ns()
        while True:
            s0 = sim.now
            ok = yield from self._read(sess, ptr, offsets, 0)
            if not rec.op(last, perf_counter_ns(), sim.now - s0, ok):
                stop[0] = True
                return
            # after the recorder's own work, so that stays off the clock
            last = perf_counter_ns()

    def run(self, st, rec):
        sim = st.cluster.sim
        stop = [False]
        for si in range(1, len(st.clients)):
            for tid in range(self.THREADS):
                sim.process(self._stressor(st, rec, stop, si, tid))
        sim.process(self._control(st, rec, stop))
        sim.run()

    def counters(self, st):
        return _packet_counters(st.cluster, [s for s, _ in st.clients])


class MiniDBMix(Workload):
    """MiniDB over remote memory 1 hop away: a point/update/range/scan mix."""

    name = "minidb_mix"
    check_ops = 1_000
    warmup_ops = 500
    KINDS = ("point_select", "update", "range_select", "full_scan")
    #: each block of 500 ops is a seeded shuffle of exactly 60% point
    #: selects, 20% updates, 19.8% range selects and 0.2% full scans: a
    #: scan costs ~500 point selects, so a drawn mix would make the
    #: throughput depend on how many scans the seed happened to draw
    block = 500
    BLOCK_KINDS = np.repeat(np.arange(4), (300, 100, 99, 1))
    CLIENT, DONOR = 6, 7
    ROWS = 20_000
    ROW_BYTES = 128
    CAPACITY = mib(16)
    RANGE_SPAN = 128

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.rows = _scaled(self.ROWS, scale, 1_000)
        # MiniDB fills every row with the same seeded payload after its
        # 8-byte key; the checks start from that payload
        self.initial = stream(seed, "minidb_rows").bytes(self.ROW_BYTES - 8)

    def make_ops(self, rng, n):
        kinds = np.concatenate(
            [rng.permutation(self.BLOCK_KINDS) for _ in range(n // self.block)]
        )
        keys = rng.integers(1, self.rows + 1, size=n)
        blob = rng.bytes(16 * n)
        payloads = [blob[16 * k : 16 * k + 16] for k in range(n)]
        return kinds.tolist(), keys.tolist(), payloads

    def op_name(self, kind, key, payload):
        return "apps.MiniDB." + self.KINDS[kind]

    def build(self, spans):
        with span(spans, "Cluster"):
            cluster = Cluster()
        sess = cluster.session(self.CLIENT)
        with span(spans, "borrow_remote"):
            sess.borrow_remote(self.DONOR, self.CAPACITY + mib(1))
            acc = SessionAccessor(sess, self.CAPACITY, Placement.REMOTE)
        with span(spans, "population"):
            db = MiniDB(acc, self.rows, self.ROW_BYTES, seed=self.seed)
        sim = cluster.sim
        return SimpleNamespace(
            cluster=cluster, sess=sess, acc=acc, db=db, updated={},
            clock=lambda: sim.now,
        )

    def op(self, st, kind, key, payload):
        db = st.db
        if kind == 0:  # the KINDS order
            row = db.point_select(key)
            return row == (
                key.to_bytes(8, "little")
                + st.updated.get(key, self.initial[:16])
                + self.initial[16:]
            )
        if kind == 1:
            st.updated[key] = payload
            return db.update(key, payload)
        if kind == 2:
            hi = key + self.RANGE_SPAN
            return db.range_select(key, hi) == min(hi, self.rows + 1) - key
        return db.full_scan() == self.rows

    def counters(self, st):
        out = _packet_counters(st.cluster, [st.sess])
        out["apps.accessor_calls"] = st.acc.accesses
        return out


class SwapBTree(Workload):
    """Fig. 9 at the optimum fanout: B-tree searches over remote swap."""

    name = "swap_btree"
    span_name = "apps.BTree.search"
    check_ops = 20_000
    warmup_ops = 4_500
    KEYS = 400_000
    CHILDREN = 168
    RESIDENT_PAGES = 256

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        n = self.nkeys = _scaled(self.KEYS, scale, 10_000)
        # n distinct keys out of 1 .. 8n, so about 1 query in 8 hits
        keys = self.rng("keys").choice(
            np.arange(1, n * 8, dtype=np.uint64), size=n, replace=False
        )
        keys.sort()
        self.keys = keys
        node_bytes = 16 + 8 * (2 * self.CHILDREN - 1)
        nodes = n // (self.CHILDREN - 1) + n // (self.CHILDREN - 1) ** 2 + 8
        # one page-aligned node per page, with room to spare
        self.arena_bytes = 2 * nodes * max(node_bytes, PAGE_SIZE)

    def build(self, spans):
        cfg = ClusterConfig()
        with span(spans, "SwapAccessor"):
            swap = RemoteSwap(cfg.swap, resident_pages=self.RESIDENT_PAGES)
            acc = SwapAccessor(
                LatencyModel.from_config(cfg), BackingStore(self.arena_bytes), swap
            )
        with span(spans, "population"):
            tree = BTree(acc, children=self.CHILDREN)
            tree.bulk_load(self.keys)
        return SimpleNamespace(
            acc=acc, swap=swap, tree=tree, clock=lambda: acc.time_ns
        )

    def make_ops(self, rng, n):
        q = rng.integers(1, self.nkeys * 8, size=n, dtype=np.uint64)
        # the lookup-table method: the default one sorts all the keys
        # again for every chunk
        return q.tolist(), np.isin(q, self.keys, kind="table").tolist()

    def op(self, st, key, expected):
        return st.tree.search(key) == expected

    def counters(self, st):
        out = dict.fromkeys(COUNTERS, 0)
        stats = st.acc.cache.stats
        out.update({
            "sim.now": st.acc.time_ns,
            "model.cache_hits": stats.hits,
            "model.cache_misses": stats.misses,
            "apps.accessor_calls": st.acc.accesses,
            "swap.faults": st.swap.stats.faults,
            "swap.evictions": st.swap.stats.evictions,
            "noc.link_busy": [],
        })
        return out


WORKLOADS = {
    w.name: w for w in (RandRead, ServerStress, MiniDBMix, SwapBTree)
}
