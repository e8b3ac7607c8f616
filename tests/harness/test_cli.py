"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.harness.cli import build_parser, main


def test_list_prints_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for exp in ("fig06", "fig11", "tableA"):
        assert exp in out


def test_run_single_experiment(capsys):
    assert main(["run", "tableA"]) == 0
    out = capsys.readouterr().out
    assert "tableA" in out
    assert "local DRAM line read" in out
    assert "remote line read, 1 hop" in out
    assert "regenerated in" in out


def test_run_with_scale(capsys):
    assert main(["run", "fig06", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "hops" in out


def test_unknown_experiment_rejected(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_module_entrypoint():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "fig06" in proc.stdout


def test_cli_module_runs_as_script():
    """``python -m repro.harness.cli`` is an entry point too, not a no-op."""
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro.harness.cli", "list"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "fig06" in proc.stdout
