"""Tests of the end-to-end benchmark: ``pytest benchmarks/e2e`` (< 60 s).

The benchmark runs at ``--scale 0.02``: every workload, every metric,
a fraction of the work.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_status() -> str | None:
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    return subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=all"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout


def _run(tmp: Path, *args: str) -> tuple[dict, dict]:
    """Run all workloads; returns ({(workload, metric): unit}, results)."""
    out = tmp / "results.json"
    proc = subprocess.run(
        [sys.executable, str(RUN), "--scale", "0.02", "--json", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    printed = {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) == 4:
            printed[(fields[0], fields[1])] = fields[3]
    return printed, json.loads(out.read_text())["workloads"]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    before = _git_status()
    traced_dir = tmp_path_factory.mktemp("traced")
    traced = _run(traced_dir, "--trace", "--out", str(traced_dir / "traces"))
    plain = _run(tmp_path_factory.mktemp("plain"))
    return {
        "traced": traced, "plain": plain, "traces": traced_dir / "traces",
        "status": (before, _git_status()),
    }


def test_every_metric_is_printed_with_its_unit(runs):
    names = [w["name"] for w in SPEC["workloads"]]
    for kind, metrics in (("plain", SPEC["end_to_end"]), ("traced", SPEC["per_layer"])):
        printed, results = runs[kind]
        assert sorted(results) == sorted(names)
        for w in names:
            for m in metrics:
                assert printed.get((w, m["name"])) == m["unit"], (w, m["name"])
            assert results[w]["correct"], w
            assert results[w]["metrics"]["fail_frac"]["value"] == 0


def test_runs_repeat_exactly_and_tracing_changes_no_output(runs):
    traced, plain = runs["traced"][1], runs["plain"][1]
    counts = [m["name"] for m in SPEC["per_layer"]
              if not m["name"].endswith(("self_us_per_op", "host_ns_per_event"))
              and not m["name"].startswith("trace.")]
    for w, res in plain.items():
        assert res["digest"] == traced[w]["digest"] == traced[w]["trace_digest"]
        for m in (*counts, "sim_ns_p50", "sim_ns_p99"):
            assert res["metrics"][m] == traced[w]["metrics"][m], (w, m)


def test_traces_are_chrome_trace_json(runs):
    for w in SPEC["workloads"]:
        doc = json.loads((runs["traces"] / f"{w['name']}-seed0.trace.json").read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "population" in names
        assert any(n.startswith(("cluster.", "apps.")) for n in names)
        assert set(doc["otherData"]["layers_self_s"]) >= {"sim", "apps", "bench"}


def test_a_run_writes_no_tracked_file(runs):
    before, after = runs["status"]
    if before is None:
        pytest.skip("not a git checkout")
    assert after == before


def test_a_wrong_expected_byte_counts_as_a_failure(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    from recorder import Recorder
    from workloads import WORKLOADS

    wl = WORKLOADS["rand_read"](0, 0.02)
    st = wl.setup([])
    (off,) = st.ops[wl.warmup_ops]
    pattern = bytearray(wl.pattern)
    pattern[off + 5] ^= 0xFF
    wl.pattern = bytes(pattern)
    rec = Recorder(wl, st, wl.check_ops, wl.check_ops, 0.0)
    rec.begin()
    wl.run(st, rec)
    rec.end()
    assert rec.n == wl.check_ops
    assert rec.failed == 1


def test_refuses_to_run_with_sanitizers_on():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "swap_btree"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "REPRO_SANITIZE": "1"},
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_fails_without_the_simulator_sources(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "swap_btree"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
