"""Every script under ``examples/`` runs to a clean exit.

The examples are the library's sample code: they borrow, allocate,
give leases back and read regions through the public API, and each
asserts its own orderings. Running them here keeps them in step with
that API.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

_EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
_SCRIPTS = sorted(p.name for p in _EXAMPLES.glob("*.py"))


def test_every_example_is_collected():
    assert _SCRIPTS == [
        "btree_database.py",
        "database_queries.py",
        "memory_hungry.py",
        "quickstart.py",
        "region_rebalance.py",
    ]


@pytest.mark.parametrize("script", _SCRIPTS)
def test_example_runs_cleanly(script, capsys):
    try:
        runpy.run_path(str(_EXAMPLES / script), run_name="__main__")
    except SystemExit as exc:  # a script may end with sys.exit(0)
        assert exc.code in (None, 0)
    assert capsys.readouterr().out
