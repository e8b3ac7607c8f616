"""Measured-phase bookkeeping: per-op timings, the stop rule, metrics.

A :class:`Recorder` watches one measured phase. The workload reports
each operation (host start/end in ns, simulated latency, whether its
output checked out) and the recorder answers whether to go on: until
``min_ops`` operations are done *and* ``budget_s`` of host time has
passed. At ``check_ops`` it snapshots the workload's counters, so the
counter deltas and simulated latencies of that prefix are exact and
identical in every run of the same seed, however long the run lasts.

Host times are scaled to the host's nominal speed with the reference
snippet of :mod:`hostspeed`, which the recorder runs between ops.
What it keeps per op is a fixed 8 bytes (16 with spans), so host
memory, itself a metric, barely depends on how far a run got.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from time import perf_counter_ns

import numpy as np

import hostspeed

__all__ = ["Recorder", "count_metrics"]

#: snippet runs averaged into the host speed an op is scaled by
SPEED_RUNS = 32


def _share(part: float, other: float) -> float:
    total = part + other
    return part / total if total else 0.0


def count_metrics(c0: dict, c1: dict, ops: int) -> dict:
    """Per-layer work per operation between two counter snapshots."""
    d = {k: c1[k] - c0[k] for k in c0 if k != "noc.link_busy"}
    span = d["sim.now"]
    busy = [b - a for a, b in zip(c0["noc.link_busy"], c1["noc.link_busy"])]
    return {
        "sim.events_per_op": d["sim.events"] / ops,
        "ht.link_packets_per_op": d["ht.link_packets"] / ops,
        "ht.link_bytes_per_op": d["ht.link_bytes"] / ops,
        "noc.switch_forwards_per_op": d["noc.switch_forwards"] / ops,
        "noc.max_link_util": max(busy) / span if busy and span > 0 else 0.0,
        "rmc.client_reqs_per_op": d["rmc.client_reqs"] / ops,
        "rmc.server_nack_ratio": (
            d["rmc.server_nacks"] / d["rmc.server_reqs"]
            if d["rmc.server_reqs"] else 0.0
        ),
        "rmc.retx_per_op": d["rmc.retx"] / ops,
        "mem.cache_miss_ratio": _share(d["mem.cache_misses"], d["mem.cache_hits"]),
        "mem.tlb_miss_ratio": _share(d["mem.tlb_misses"], d["mem.tlb_hits"]),
        "mem.mc_accesses_per_op": d["mem.mc_accesses"] / ops,
        "mem.dram_row_hit_ratio": _share(
            d["mem.dram_row_hits"], d["mem.dram_row_misses"]
        ),
        "cluster.nack_retries_per_op": d["cluster.nack_retries"] / ops,
        "model.cache_miss_ratio": _share(
            d["model.cache_misses"], d["model.cache_hits"]
        ),
        "apps.accessor_calls_per_op": d["apps.accessor_calls"] / ops,
        "swap.faults_per_op": d["swap.faults"] / ops,
        "swap.evictions_per_op": d["swap.evictions"] / ops,
    }


class Recorder:
    """Per-op record of one measured phase.

    ``spans`` keeps each op's start for the trace file; it also turns
    the speed snippet off, since a profiled phase would profile it too.
    """

    def __init__(
        self, wl, st, check_ops: int, min_ops: int, budget_s: float,
        spans: bool = False,
    ) -> None:
        self._counters = lambda: wl.counters(st)
        self.block = wl.block
        self.check_ops = check_ops
        self.min_ops = max(min_ops, check_ops)
        self.budget_ns = int(budget_s * 1e9)
        self.n = 0
        #: host ns of each op
        self.dur = array("q")
        #: host start of each op, kept only when spans are wanted
        self.starts = array("q") if spans else None
        #: simulated ns of each op of the check prefix
        self.sim = array("d")
        #: work units done (an op is one unit; server_stress adds every
        #: stressor read through :meth:`extra`), how many failed, and how
        #: many were done when the last op completed
        self.done = 0
        self.failed = 0
        self.op_done = 0
        #: snippet host ns, and the op count when each run was taken
        self.ref_ns = array("q")
        self.ref_at = array("q")
        self._ref_due = hostspeed.EVERY_NS if not spans else float("inf")

    # -- during the phase ----------------------------------------------------
    def begin(self) -> None:
        self.c_start = self._counters()
        self.start = perf_counter_ns()

    def op(self, t0: int, t1: int, sim_ns: float, ok: bool) -> bool:
        """Record one operation; returns whether the phase goes on. It
        stops on a whole input block, so a run holds the exact op mix."""
        self.n = n = self.n + 1
        self.dur.append(t1 - t0)
        if self.starts is not None:
            self.starts.append(t0)
        self.done += 1
        self.op_done = self.done
        if not ok:
            self.failed += 1
        if n <= self.check_ops:
            self.sim.append(sim_ns)
            if n == self.check_ops:
                self.check = self._counters()
                self.check_done = self.done
        self._ref_due -= t1 - t0
        if self._ref_due <= 0:
            self._ref_due = hostspeed.EVERY_NS
            self.ref_ns.append(hostspeed.timed_unit())
            self.ref_at.append(n)
        return (
            n < self.min_ops
            or t1 - self.start < self.budget_ns
            or n % self.block != 0
        )

    def extra(self, ok: bool) -> None:
        """Record a unit of checked work that is not a timed operation."""
        self.done += 1
        if not ok:
            self.failed += 1

    def end(self) -> None:
        self.stop = perf_counter_ns()
        self.c_end = self._counters()

    # -- results -------------------------------------------------------------
    @property
    def host_s(self) -> float:
        return (self.stop - self.start) / 1e9

    def speed(self) -> np.ndarray:
        """Host speed relative to nominal while each op ran: REF_NS over
        the mean of the SPEED_RUNS snippet runs up to the first one
        after the op (1.0 throughout when the snippet never ran).

        A mean, not a median: the host flips between fast and slow
        within a millisecond, so the op and the snippets around it both
        see a mix of the two, and only the mean weighs it the same way.
        """
        if not self.ref_ns:
            return np.ones(self.n)
        ref = np.frombuffer(self.ref_ns, dtype=np.int64).astype(np.float64)
        csum = np.concatenate(([0.0], np.cumsum(ref)))
        last = np.arange(len(ref))
        first = np.maximum(0, last - SPEED_RUNS + 1)
        recent = (csum[last + 1] - csum[first]) / (last + 1 - first)
        after = np.searchsorted(
            np.frombuffer(self.ref_at, dtype=np.int64), np.arange(1, self.n + 1)
        )
        return hostspeed.REF_NS / recent[np.minimum(after, len(ref) - 1)]

    def nominal_ns(self) -> np.ndarray:
        """Each op's host ns at the host's nominal speed."""
        return np.frombuffer(self.dur, dtype=np.int64) * self.speed()

    def end_to_end(self) -> dict:
        """Work done per nominal host second of op time, and percentiles
        of the per-op nominal host time."""
        ns = self.nominal_ns()
        p50, p99 = np.percentile(ns, (50, 99)) / 1e3
        return {
            "ops_per_s": self.op_done * 1e9 / float(ns.sum()),
            "host_us_p50": float(p50),
            "host_us_p99": float(p99),
            "host_speed": float(np.mean(self.speed())),
            "raw_ops_per_s": self.done / self.host_s,
        }

    def counts(self) -> dict:
        """Exact per-op work of every layer over the check prefix."""
        return count_metrics(self.c_start, self.check, self.check_done)

    def sim_latency(self) -> dict:
        sim = np.frombuffer(self.sim, dtype=np.float64)
        return {
            "sim_ns_p50": float(np.percentile(sim, 50)),
            "sim_ns_p99": float(np.percentile(sim, 99)),
        }

    def host_ns_per_event(self) -> float:
        """Nominal-speed host ns of the measured ops per event scheduled."""
        events = self.c_end["sim.events"] - self.c_start["sim.events"]
        return float(self.nominal_ns().sum()) / events if events else 0.0

    def digest(self) -> str:
        """sha256 of the check prefix's simulated latencies and counts."""
        h = hashlib.sha256(self.sim.tobytes())
        h.update(json.dumps(self.counts(), sort_keys=True).encode())
        return h.hexdigest()
