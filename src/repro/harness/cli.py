"""Command-line interface for the experiment harness.

Usage::

    python -m repro list
    python -m repro run fig06 [--scale 1.0] [--seed 0]
    python -m repro run all   [--scale 0.5]
    python -m repro run tableA            # the latency table only

Each run prints the regenerated rows in the paper's terms. ``--scale``
multiplies workload sizes (1.0 = the quick defaults; raise it to
approach paper scale at the cost of wall-clock time).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro.harness.experiments import (
    available_experiments,
    run_experiment,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduce the evaluation of 'Getting Rid of Coherency "
            "Overhead for Memory-Hungry Applications' (CLUSTER 2010)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id, e.g. fig06, or 'all'")
    run.add_argument("--scale", type=float, default=1.0,
                     help="workload scale factor (default 1.0)")
    run.add_argument("--seed", type=int, default=0,
                     help="root random seed (default 0)")
    run.add_argument("--plot", action="store_true",
                     help="also render an ASCII chart of the result")
    return parser


def _run_one(exp_id: str, scale: float, seed: int, plot: bool = False) -> None:
    kwargs = {"scale": scale}
    if exp_id != "tableA":
        kwargs["seed"] = seed
    t0 = time.time()  # simcheck: disable=SIM006 -- host wall clock, not sim time
    result = run_experiment(exp_id, **kwargs)
    wall = time.time() - t0  # simcheck: disable=SIM006 -- host wall clock
    print(result.format())
    if plot:
        from repro.harness.plot import plot_result

        try:
            print()
            print(plot_result(result))
        except Exception as exc:  # pragma: no cover - best effort
            print(f"[no plot: {exc}]")
    print(f"[{exp_id} regenerated in {wall:.1f}s wall time]\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for exp in available_experiments():
            print(exp)
        return 0

    # command == "run"
    if args.experiment == "all":
        targets = available_experiments()
    else:
        if args.experiment not in available_experiments():
            print(
                f"unknown experiment {args.experiment!r}; "
                f"available: {', '.join(available_experiments())}",
                file=sys.stderr,
            )
            return 2
        targets = [args.experiment]
    for exp_id in targets:
        _run_one(exp_id, args.scale, args.seed, plot=args.plot)
    return 0


if __name__ == "__main__":
    sys.exit(main())
