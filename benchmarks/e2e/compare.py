#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results.

Each input file is the ``--json`` output of ``run.py``; run each side
several times (alternating sides, same seed, same settings)::

    python3 benchmarks/e2e/compare.py --base a1.json a2.json ... \\
        --new b1.json b2.json ... [--claim ops_per_s:rand_read]

For every workload and end-to-end metric it prints each side's median
and quartiles, the metric's bound from ``BENCHMARK.json`` and a verdict:

``ok``
    the new median is not worse than the base median by more than the
    bound;
``worse``
    it is;
``unresolved``
    one side's quartile spread exceeds the bound, so the runs cannot
    tell (unless every new run beats every base run, which is ``ok``).

A ``--claim metric:workload`` also applies the pair-win rule: the k-th
base and new runs form a pair; the claim holds (``gain``) only with at
least 10 pairs, the new side winning at least 9 in 10 of them (ties
count for neither), and the medians differing by more than the base
side's quartile spread. Exits 1 when any verdict is ``worse`` or any
claim is not met.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _load(paths: list) -> dict:
    """{(workload, metric): [value per file, in file order]}"""
    out: dict = {}
    for path in paths:
        for w, res in json.loads(Path(path).read_text())["workloads"].items():
            for m, mv in res["metrics"].items():
                out.setdefault((w, m), []).append(mv["value"])
    return out


def verdict(base: list, new: list, bound: float, higher: bool) -> str:
    qb, qn = quartiles(base), quartiles(new)
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qb, qn))
    if higher:
        all_better = min(new) > max(base)
        worse_by = (qb[1] - qn[1]) / abs(qb[1])
    else:
        all_better = max(new) < min(base)
        worse_by = (qn[1] - qb[1]) / abs(qb[1])
    if spread > bound:
        return "ok" if all_better else "unresolved"
    return "worse" if worse_by > bound else "ok"


def claim(base: list, new: list, higher: bool) -> tuple:
    """Pair-win rule; returns (holds, wins, pairs)."""
    pairs = list(zip(base, new))
    wins = sum((n > b) if higher else (n < b) for b, n in pairs)
    qb, qn = quartiles(base), quartiles(new)
    holds = (
        len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and abs(qn[1] - qb[1]) > qb[2] - qb[0]
    )
    return holds, wins, len(pairs)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    p.add_argument("--claim", action="append", default=[],
                   metavar="METRIC:WORKLOAD")
    args = p.parse_args(argv)
    spec = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    base, new = _load(args.base), _load(args.new)

    bad = False
    print(f"{'workload':14} {'metric':13} {'base median [q1, q3]':34} "
          f"{'new median [q1, q3]':34} {'bound':>6}  verdict")
    for (w, m) in sorted(base):
        if m not in spec or (w, m) not in new:
            continue
        b, n = base[(w, m)], new[(w, m)]
        v = verdict(b, n, spec[m]["bound"], spec[m]["better"] == "higher")
        bad |= v == "worse"
        cells = [
            "{1:.5g} [{0:.5g}, {2:.5g}]".format(*quartiles(x)) for x in (b, n)
        ]
        print(f"{w:14} {m:13} {cells[0]:34} {cells[1]:34} "
              f"{spec[m]['bound']:6.0%}  {v}")
    for c in args.claim:
        m, _, w = c.partition(":")
        if m not in spec or (w, m) not in base or (w, m) not in new:
            print(f"claim {c}: no such end-to-end metric and workload in both sets")
            bad = True
            continue
        holds, wins, pairs = claim(
            base[(w, m)], new[(w, m)], spec[m]["better"] == "higher"
        )
        bad |= not holds
        print(f"claim {m} on {w}: new wins {wins}/{pairs} pairs -> "
              f"{'gain' if holds else 'not met'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
