"""Tests for the experiment registry and result container."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.harness import available_experiments, get_experiment, run_experiment
from repro.harness.experiments import ExperimentResult


def test_all_paper_artifacts_registered():
    have = available_experiments()
    for exp in ("fig06", "fig07", "fig08", "fig09", "fig10", "fig11",
                "tableA", "extA", "extB", "extC", "extD", "extE", "extF",
                "extG", "footnote3", "ablations"):
        assert exp in have


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        get_experiment("fig99")


def test_result_column_extraction():
    r = ExperimentResult("x", "t", columns=["a", "b"],
                         rows=[{"a": 1, "b": 2}, {"a": 3, "b": 4}])
    assert r.column("a") == [1, 3]
    with pytest.raises(ConfigError):
        r.column("c")


def test_result_format_renders_all_rows():
    r = ExperimentResult(
        "x", "demo", columns=["k", "v"],
        rows=[{"k": "alpha", "v": 1.5}, {"k": "beta", "v": 12345.0}],
        notes="a note",
    )
    text = r.format()
    assert "alpha" in text
    assert "12,345" in text
    assert "a note" in text
    assert text.count("\n") >= 4


def test_format_handles_none_and_floats():
    r = ExperimentResult("x", "t", columns=["v"],
                         rows=[{"v": None}, {"v": 0.00123}, {"v": 0.0},
                               {"v": {"prefix": 790.0, "table": 12345.0}}])
    text = r.format()
    assert "-" in text
    assert "0.00123" in text
    assert "prefix: 790, table: 12,345" in text  # dict cells, e.g. ablations


def test_duplicate_registration_rejected():
    from repro.harness.experiments import register

    with pytest.raises(ConfigError):
        register("fig06")(lambda: None)


def test_json_roundtrip():
    r = ExperimentResult(
        "x", "a title", columns=["a", "b"],
        rows=[{"a": 1, "b": 2.5}, {"a": "s", "b": None}],
        notes="n",
    )
    back = ExperimentResult.from_json(r.to_json())
    assert back.exp_id == r.exp_id
    assert back.title == r.title
    assert back.columns == r.columns
    assert back.rows == r.rows
    assert back.notes == r.notes


def test_run_experiment_dispatches():
    r = run_experiment("tableA", samples=16)
    assert isinstance(r, ExperimentResult)
    assert r.exp_id == "tableA"
    assert len(r.rows) == 6
