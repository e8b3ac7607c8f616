"""The random-access microbenchmark of Section V-A (Figs. 6-8).

Threads perform a fixed number of independent, uncached, line-sized
reads at random page-aligned offsets inside remote memory. Because a
core has a single outstanding request to the RMC range, each thread is
a closed loop: issue, wait, issue. The three experiment shapes:

* **distance sweep** (Fig. 6): one thread, the memory server moved
  1, 2, 3... hops away;
* **thread sweep** (Fig. 7): 1/2/4 threads against one or four memory
  servers, at several distances — exposing the client-RMC bottleneck;
* **server stress** (Fig. 8): a control thread on a private link
  measures a server while other nodes hammer it.

Runs on the packet-level tier; returns wall-clock *simulated* time.
(The fast tier's batched span path does not apply here: every timed
access is a single uncached line by design, and the untimed page-table
warm-up never touches the line cache.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional, Sequence

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.sim.rng import stream
from repro.units import CACHE_LINE, PAGE_SIZE, mib

__all__ = ["RandomAccessBenchmark", "RandResult", "StressResult"]


@dataclass
class RandResult:
    """Outcome of one client-side run."""

    client_node: int
    server_nodes: tuple[int, ...]
    threads: int
    accesses_per_thread: int
    elapsed_ns: float
    #: per-thread completion times
    thread_times_ns: list[float] = field(default_factory=list)
    client_rmc_requests: int = 0
    client_rmc_nacks: int = 0
    retransmissions: int = 0

    @property
    def total_accesses(self) -> int:
        return self.threads * self.accesses_per_thread

    @property
    def ns_per_access(self) -> float:
        return self.elapsed_ns / self.accesses_per_thread

    @property
    def throughput_mops(self) -> float:
        """Millions of completed accesses per second of simulated time."""
        return self.total_accesses / self.elapsed_ns * 1e3


@dataclass
class StressResult:
    """Outcome of one server-stress run (Fig. 8)."""

    server_node: int
    control_node: int
    stress_nodes: tuple[int, ...]
    threads_per_stressor: int
    control_elapsed_ns: float
    control_accesses: int
    server_requests: int
    server_nacks: int

    @property
    def control_ns_per_access(self) -> float:
        return self.control_elapsed_ns / self.control_accesses


class RandomAccessBenchmark:
    """Driver owning the buffers and thread processes of one cluster."""

    def __init__(self, cluster: Cluster, seed: int = 0, buffer_bytes: int = mib(32)) -> None:
        self.cluster = cluster
        self.seed = seed
        self.buffer_bytes = buffer_bytes

    # -- client-side experiments (Figs. 6 and 7) ------------------------------
    def run_client(
        self,
        client_node: int,
        server_nodes: Sequence[int],
        threads: int,
        accesses_per_thread: int,
        access_bytes: int = CACHE_LINE,
    ) -> RandResult:
        """Spawn *threads* on *client_node* reading from *server_nodes*."""
        sim = self.cluster.sim
        app = self.cluster.session(client_node)
        buffers = []
        for server in server_nodes:
            app.borrow_remote(server, self.buffer_bytes + mib(1))
            ptr = app.malloc(self.buffer_bytes, Placement.REMOTE)
            self._touch_pages(app, ptr)
            buffers.append(ptr)

        times: list[float] = []
        rmc = self.cluster.node(client_node).rmc
        reqs0, nacks0 = rmc.client_requests.value, rmc.client_nacks.value
        retx0 = rmc.retransmissions.value
        start = sim.now
        procs = [
            sim.process(
                self._thread(
                    app, tid, buffers, accesses_per_thread, access_bytes, times
                ),
                name=f"rand.t{tid}",
            )
            for tid in range(threads)
        ]
        sim.run()
        for p in procs:
            if not p.ok:  # pragma: no cover - surfacing thread crashes
                raise p.value
        return RandResult(
            client_node=client_node,
            server_nodes=tuple(server_nodes),
            threads=threads,
            accesses_per_thread=accesses_per_thread,
            elapsed_ns=max(times) - start,
            thread_times_ns=[t - start for t in times],
            client_rmc_requests=rmc.client_requests.value - reqs0,
            client_rmc_nacks=rmc.client_nacks.value - nacks0,
            retransmissions=rmc.retransmissions.value - retx0,
        )

    # -- server-stress experiment (Fig. 8) ---------------------------------
    def run_server_stress(
        self,
        server_node: int,
        control_node: int,
        stress_nodes: Sequence[int],
        threads_per_stressor: int,
        control_accesses: int,
        access_bytes: int = CACHE_LINE,
    ) -> StressResult:
        """Measure a control thread while stressors hammer the server.

        The stressor threads run until the control thread completes
        (they loop on a shared stop flag), mirroring the paper's setup
        where only the control thread's completion time is reported.
        """
        sim = self.cluster.sim
        control_app = self.cluster.session(control_node)
        control_app.borrow_remote(server_node, self.buffer_bytes + mib(1))
        control_buf = control_app.malloc(self.buffer_bytes, Placement.REMOTE)
        self._touch_pages(control_app, control_buf)

        stress_apps = []
        for node in stress_nodes:
            app = self.cluster.session(node)
            app.borrow_remote(server_node, self.buffer_bytes + mib(1))
            ptr = app.malloc(self.buffer_bytes, Placement.REMOTE)
            self._touch_pages(app, ptr)
            stress_apps.append((app, ptr))

        server_rmc = self.cluster.node(server_node).rmc
        reqs0 = server_rmc.server_requests.value
        nacks0 = server_rmc.server_nacks.value

        stop = {"flag": False}
        for si, (app, ptr) in enumerate(stress_apps):
            for tid in range(threads_per_stressor):
                sim.process(
                    self._stress_thread(app, si, tid, ptr, access_bytes, stop),
                    name=f"stress.n{si}t{tid}",
                )

        times: list[float] = []
        start = sim.now
        control = sim.process(
            self._thread(
                control_app, 0, [control_buf], control_accesses,
                access_bytes, times, rng_tag="control",
            ),
            name="rand.control",
        )
        control.add_callback(lambda _e: stop.__setitem__("flag", True))
        sim.run()
        if not control.ok:  # pragma: no cover
            raise control.value
        return StressResult(
            server_node=server_node,
            control_node=control_node,
            stress_nodes=tuple(stress_nodes),
            threads_per_stressor=threads_per_stressor,
            control_elapsed_ns=times[0] - start,
            control_accesses=control_accesses,
            server_requests=server_rmc.server_requests.value - reqs0,
            server_nacks=server_rmc.server_nacks.value - nacks0,
        )

    # -- thread bodies ------------------------------------------------------
    def _thread(
        self,
        app,
        tid: int,
        buffers: list[int],
        accesses: int,
        access_bytes: int,
        times: list[float],
        rng_tag: str = "client",
    ) -> Generator:
        rng = stream(self.seed, rng_tag, app.node_id, tid)
        offsets = self._offsets(rng, accesses)
        core = tid % len(app.node.cores)
        nbuf = len(buffers)
        for i in range(accesses):
            base = buffers[i % nbuf]
            yield from app.g_read(
                base + int(offsets[i]), access_bytes, core=core, cached=False
            )
            if app.node.config.core.compute_ns_per_access:
                yield app.sim.timeout(app.node.config.core.compute_ns_per_access)
        times.append(app.sim.now)

    def _stress_thread(
        self, app, si: int, tid: int, buffer: int, access_bytes: int, stop
    ) -> Generator:
        rng = stream(self.seed, "stress", si, tid)
        core = tid % len(app.node.cores)
        chunk = 256
        while not stop["flag"]:
            offsets = self._offsets(rng, chunk)
            for off in offsets:
                if stop["flag"]:
                    return
                yield from app.g_read(
                    buffer + int(off), access_bytes, core=core, cached=False
                )
                if app.node.config.core.compute_ns_per_access:
                    yield app.sim.timeout(
                        app.node.config.core.compute_ns_per_access
                    )

    # -- helpers ---------------------------------------------------------------
    def _offsets(self, rng: np.random.Generator, count: int) -> np.ndarray:
        pages = self.buffer_bytes // PAGE_SIZE
        return (
            rng.integers(0, pages, size=count, dtype=np.int64) * PAGE_SIZE
            + rng.integers(0, PAGE_SIZE // CACHE_LINE, size=count) * CACHE_LINE
        )

    @staticmethod
    def _touch_pages(app, ptr: int) -> None:
        """Warm the TLB/page tables so faults stay off the measurement.

        The allocator maps eagerly, so one translate per page suffices
        (zero simulated time)."""
        page = app.aspace.page_bytes
        alloc = app.allocator.allocation_at(ptr)
        for vaddr in range(ptr, ptr + alloc.size, page):
            app.aspace.translate(vaddr)
