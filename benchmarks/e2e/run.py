#!/usr/bin/env python3
"""End-to-end benchmark of the simulator: four paper workloads.

Run from the repository root (the script finds ``src/`` itself)::

    python3 benchmarks/e2e/run.py                  # all four workloads
    python3 benchmarks/e2e/run.py --trace --out traces
    python3 benchmarks/e2e/run.py --json base.json # input for compare.py
    python3 benchmarks/e2e/run.py --workload rand_read --seed 3 \\
        --seconds 10 --trace 0                     # one workload

Without ``--workload`` each workload runs in a fresh subprocess, one
after another. Every metric is printed as ``workload metric value
unit``; a single-workload run ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and its metrics: the end-to-end
ones, or with ``--trace 1`` the per-layer ones. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np
from hostspeed import speed
from profiling import LAYERS, fold, write_chrome_trace
from recorder import Recorder

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
GOLDEN = HERE / "golden.json"

NAMES = ("rand_read", "server_stress", "minidb_mix", "swap_btree")

#: metric -> unit; what a run reports with --trace 0
END_TO_END = {
    "ops_per_s": "ops/s",
    "host_us_p50": "us",
    "host_us_p99": "us",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
#: metric -> unit; what a run reports with --trace 1
PER_LAYER = {
    "sim.events_per_op": "1/op",
    "sim.host_ns_per_event": "ns/event",
    "ht.link_packets_per_op": "1/op",
    "ht.link_bytes_per_op": "B/op",
    "noc.switch_forwards_per_op": "1/op",
    "noc.max_link_util": "ratio",
    "rmc.client_reqs_per_op": "1/op",
    "rmc.server_nack_ratio": "ratio",
    "rmc.retx_per_op": "1/op",
    "mem.cache_miss_ratio": "ratio",
    "mem.tlb_miss_ratio": "ratio",
    "mem.mc_accesses_per_op": "1/op",
    "mem.dram_row_hit_ratio": "ratio",
    "cluster.nack_retries_per_op": "1/op",
    "model.cache_miss_ratio": "ratio",
    "apps.accessor_calls_per_op": "1/op",
    "swap.faults_per_op": "1/op",
    "swap.evictions_per_op": "1/op",
    **{f"{layer}.self_us_per_op": "us/op" for layer in LAYERS},
    "trace.overhead_x": "x",
}
#: printed and saved, but not part of a single-workload run's last line
EXTRA = {
    # mean host speed relative to nominal over the measured phase, and
    # throughput and set-up time as the wall clock saw them (see
    # hostspeed.py)
    "host_speed": "ratio",
    "raw_ops_per_s": "ops/s",
    "raw_setup_s": "s",
    "sim_ns_p50": "ns",
    "sim_ns_p99": "ns",
    "fail_frac": "ratio",
    # share of the traced phase's host time the nine layers' self
    # times account for (the rest is the op loop and the profiler)
    "trace.layer_share": "ratio",
}

#: set-ups per untraced run: at least MIN, more while their total stays
#: under BUDGET seconds, at most MAX; setup_s is their median
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 2.0


def _fail(msg: str) -> int:
    print(f"run.py: {msg}", file=sys.stderr)
    return 2


def parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="host seconds each measured phase runs (default 10)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="scales op counts, data sizes and --seconds")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="per-layer run under cProfile")
    p.add_argument("--json", type=Path, help="write all results here")
    p.add_argument("--out", type=Path, help="directory for Chrome traces")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0 or args.scale <= 0:
        p.error("--seed and --seconds must be >= 0, --scale > 0")
    return args


# -- one workload, in this process -------------------------------------------
def _measure(wl, st, min_ops: int, budget_s: float, profiler=None) -> Recorder:
    gc.collect()
    rec = Recorder(
        wl, st, wl.check_ops, min_ops, budget_s, spans=profiler is not None
    )
    rec.begin()
    if profiler is not None:
        profiler.enable()
    wl.run(st, rec)
    if profiler is not None:
        profiler.disable()
    rec.end()
    return rec


def _setup(wl, spans: list):
    """A fresh set-up; returns it, its host s, and the host's speed
    relative to nominal around it."""
    gc.collect()
    before = speed()
    t = perf_counter()
    st = wl.setup(spans)
    t = perf_counter() - t
    return st, t, (before + speed()) / 2


def _traced(args, wl, rec: Recorder, metrics: dict) -> tuple[Recorder, int]:
    """Set up again and rerun a quarter of *rec*'s ops under cProfile;
    adds the per-layer host metrics and returns the traced record and
    its failed warm-up ops."""
    import cProfile

    spans: list = []
    st, _, _ = _setup(wl, spans)
    prof = cProfile.Profile()
    before = speed()
    traced = _measure(wl, st, max(wl.check_ops, rec.n // 4), 0.0, prof)
    factor = (before + speed()) / 2
    buckets, rows = fold(prof)
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_op"] = buckets[layer] * factor * 1e6 / traced.done
    metrics["trace.overhead_x"] = (rec.done / (rec.host_s * metrics["host_speed"])) / (
        traced.done / (traced.host_s * factor)
    )
    metrics["trace.layer_share"] = sum(buckets[layer] for layer in LAYERS) / traced.host_s
    if args.out is not None:
        names = wl.op_names(wl.warmup_ops, traced.n)
        ops = [
            (name, t0, t0 + dur, {"id": i})
            for i, (name, t0, dur) in enumerate(zip(names, traced.starts, traced.dur))
        ]
        write_chrome_trace(
            args.out / f"{wl.name}-seed{args.seed}.trace.json",
            [(n, t0, t1, {}) for n, t0, t1 in spans] + ops,
            {
                "workload": wl.name,
                "seed": args.seed,
                "traced_host_s": traced.host_s,
                "layers_self_s": buckets,
                "functions": [
                    {"function": f, "bucket": b, "self_s": s} for f, b, s in rows
                ],
            },
        )
    return traced, st.warm_failed


def run_workload(args) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.scale)
    raw, nominal = [], []
    while True:
        st, t, factor = _setup(wl, [])
        raw.append(t)
        nominal.append(t * factor)
        if args.trace or (
            len(raw) >= SETUP_MIN
            and (sum(raw) >= SETUP_BUDGET_S or len(raw) >= SETUP_MAX)
        ):
            break
        del st
    rec = _measure(wl, st, wl.check_ops, args.seconds * args.scale)
    attempted = rec.done + wl.warmup_ops
    failed = rec.failed + st.warm_failed
    del st

    metrics = {
        **rec.end_to_end(),
        "setup_s": float(np.median(nominal)),
        "raw_setup_s": float(np.median(raw)),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **rec.sim_latency(),
        **rec.counts(),
        "sim.host_ns_per_event": rec.host_ns_per_event(),
    }
    digest = trace_digest = rec.digest()
    golden = json.loads(GOLDEN.read_text()).get(wl.name, {})
    expected = golden.get(str(args.seed)) if args.scale == 1 else None
    if args.trace:
        traced, warm_failed = _traced(args, wl, rec, metrics)
        attempted += traced.done + wl.warmup_ops
        failed += traced.failed + warm_failed
        trace_digest = traced.digest()
    # a digest off its golden value means the simulated outputs changed,
    # and tracing must not change a single one: either way no operation
    # of the run can be trusted
    if expected not in (None, digest) or trace_digest != digest:
        failed = attempted
    metrics["fail_frac"] = failed / attempted
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "trace_digest": trace_digest,
        "golden": (
            "none" if expected is None else "match" if expected == digest else "mismatch"
        ),
        "metrics": {
            m: {"value": v, "unit": {**END_TO_END, **PER_LAYER, **EXTRA}[m]}
            for m, v in metrics.items()
        },
    }


def _report(name: str, res: dict) -> None:
    for metric, mv in res["metrics"].items():
        print(f"{name} {metric} {mv['value']:.6g} {mv['unit']}")
    print(f"{name} digest {res['digest']} sha256 (golden: {res['golden']})")


def _document(args, results: dict) -> dict:
    return {
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": results,
    }


def main_one(args) -> int:
    sys.path.insert(0, str(SRC))
    res = run_workload(args)
    _report(args.workload, res)
    if args.json is not None:
        args.json.write_text(json.dumps(_document(args, {args.workload: res}), indent=1))
    wanted = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m: res["metrics"][m] for m in wanted},
    }))
    return 0


# -- all workloads, one subprocess each --------------------------------------
def main_all(args) -> int:
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in NAMES:
            out = Path(tmp) / f"{name}.json"
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--scale", str(args.scale),
                "--trace", str(args.trace), "--json", str(out),
            ]
            if args.out is not None:
                cmd += ["--out", str(args.out)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            # the child's last line is its machine-readable result; the
            # full record comes back through its --json file
            print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
            if proc.returncode != 0:
                return _fail(f"{name} exited with {proc.returncode}")
            results[name] = json.loads(out.read_text())["workloads"][name]
    if args.json is not None:
        args.json.write_text(json.dumps(_document(args, results), indent=1))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{m}": r["metrics"][m]
            for name, r in results.items()
            for m in (PER_LAYER if args.trace else END_TO_END)
        },
    }))
    return 0


def main(argv=None) -> int:
    args = parse(argv)
    if os.environ.get("REPRO_SANITIZE", "") not in ("", "0"):
        return _fail("REPRO_SANITIZE is set; sanitizers change host time, unset it")
    if not (SRC / "repro").is_dir():
        return _fail(f"no simulator sources at {SRC}; run from a full checkout")
    return main_one(args) if args.workload else main_all(args)


if __name__ == "__main__":
    sys.exit(main())
