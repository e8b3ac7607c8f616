"""Per-layer host time from a cProfile run, and the Chrome trace file.

:func:`fold` gives every profiled function's self time to a bucket:

* a function defined under ``src/repro/<layer>/`` belongs to that layer;
* a function defined in the benchmark's own directory belongs to
  ``bench`` (the op loop and its output checks);
* any other function (builtins, numpy, stdlib, ``repro``'s top-level
  modules) has its self time split among its callers in proportion to
  the time it spent under each, recursively, until a bucket owns it.
"""

from __future__ import annotations

import json
import pstats
from pathlib import Path

__all__ = ["LAYERS", "fold", "write_chrome_trace"]

#: the packages under src/repro/ that the benchmark attributes time to
LAYERS = ("sim", "ht", "noc", "rmc", "mem", "cluster", "model", "swap", "apps")

_BENCH_DIR = Path(__file__).resolve().parent


def _owner(filename: str) -> str | None:
    path = Path(filename)
    if path.parent == _BENCH_DIR:
        return "bench"
    parts = path.parts
    for i in range(len(parts) - 2):
        if parts[i] == "src" and parts[i + 1] == "repro":
            layer = parts[i + 2]
            return layer if layer in LAYERS else None
    return None


def fold(profile) -> tuple[dict, list]:
    """Fold a finished :class:`cProfile.Profile` into buckets.

    Returns ``({bucket: self seconds}, rows)`` where ``rows`` lists each
    function as ``(name, bucket or None, self seconds)``, busiest first.
    Time no caller chain leads to a bucket lands in ``other``.
    """
    stats = pstats.Stats(profile).stats
    owners = {fn: _owner(fn[0]) for fn in stats}
    memo: dict = {}

    def dist(fn, stack: frozenset) -> dict:
        """How a call made by *fn* splits among buckets."""
        own = owners.get(fn)
        if own is not None:
            return {own: 1.0}
        if fn in memo:
            return memo[fn]
        callers = stats[fn][4] if fn in stats else {}
        weights = {c: e[3] for c, e in callers.items() if c not in stack}
        total = sum(weights.values())
        if total <= 0:
            out = {"other": 1.0}
        else:
            out = {}
            for c, w in weights.items():
                for bucket, share in dist(c, stack | {fn}).items():
                    out[bucket] = out.get(bucket, 0.0) + share * w / total
        memo[fn] = out
        return out

    buckets: dict = dict.fromkeys((*LAYERS, "bench", "other"), 0.0)
    rows = []
    for fn, (_cc, _nc, tt, _ct, callers) in stats.items():
        own = owners[fn]
        rows.append((f"{fn[0]}:{fn[1]}({fn[2]})", own, tt))
        if own is not None:
            buckets[own] += tt
            continue
        edge = {c: e[2] for c, e in callers.items()}
        total = sum(edge.values())
        if total <= 0:
            buckets["other"] += tt
            continue
        for c, t in edge.items():
            for bucket, share in dist(c, frozenset({fn})).items():
                buckets[bucket] += tt * share * t / total
    rows.sort(key=lambda r: -r[2])
    return buckets, rows


def write_chrome_trace(path: Path, spans: list, meta: dict) -> None:
    """Write spans ``(name, start_ns, end_ns, args)`` as Chrome
    trace-event JSON (opens in Perfetto or ``chrome://tracing``)."""
    base = min((s[1] for s in spans), default=0)
    events = [
        {
            "name": name,
            "ph": "X",
            "ts": (t0 - base) / 1e3,
            "dur": (t1 - t0) / 1e3,
            "pid": 1,
            "tid": 1,
            "args": args,
        }
        for name, t0, t1, args in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "otherData": meta}))
