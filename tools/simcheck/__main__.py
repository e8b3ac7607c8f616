"""CLI: ``python -m simcheck [paths ...]``.

Every run analyses the given files afresh, prints the text report
and writes no file. Exit status: 0 clean, 1 violations found, 2
usage/parse error.

Examples::

    PYTHONPATH=src:tools python -m simcheck src tests
    PYTHONPATH=src:tools python -m simcheck --list-rules
    PYTHONPATH=src:tools python -m simcheck src --select SIM003,SIM006
    PYTHONPATH=src:tools python -m simcheck src tests --strict-pragmas
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from simcheck.engine import check_paths
from simcheck.reporters import render_text
from simcheck.rules import ALL_RULES, rule_catalogue


def _codes(raw: str) -> set[str]:
    return {c.strip().upper() for c in raw.split(",") if c.strip()}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m simcheck",
        description="repo-specific static analysis for the timing model",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to scan (default: src tests, "
        "whichever exist)",
    )
    parser.add_argument(
        "--strict-pragmas",
        action="store_true",
        help="report stale suppression pragmas as SIM000 violations",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--disable",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, title, doc in rule_catalogue():
            print(f"{code}  {title}")
            summary = doc.splitlines()[0] if doc else ""
            if summary:
                print(f"        {summary}")
        return 0

    paths = args.paths or [p for p in ("src", "tests") if Path(p).is_dir()]
    if not paths:
        parser.error("no paths given and no src/ or tests/ directory here")

    known = {cls.code for cls in ALL_RULES}
    selected = _codes(args.select) if args.select else set(known)
    disabled = _codes(args.disable) if args.disable else set()
    for bad in (selected | disabled) - known:
        parser.error(f"unknown rule code {bad!r} (known: {sorted(known)})")
    rules = [
        cls()
        for cls in ALL_RULES
        if cls.code in selected and cls.code not in disabled
    ]

    try:
        reports, violations = check_paths(
            paths, rules=rules, strict_pragmas=args.strict_pragmas
        )
    except (FileNotFoundError, SyntaxError, ValueError) as exc:
        print(f"simcheck: error: {exc}", file=sys.stderr)
        return 2

    print(render_text(reports, violations))
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
