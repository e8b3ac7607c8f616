"""Exact work counts of two chaos-soak seeds, pinned.

``benchmarks/chaos_soak.py`` asserts invariants and replay identity,
but not the amount of control-plane work a seed costs. These pins do:
a change to heartbeats, leases, corroboration or recovery that adds
or drops an event, moves a simulated nanosecond or sends one more
probe fails here, and its CHANGES.md line must say why.

Seed 1 is a kill-tier run with one recovery; seed 6 is a
partition-tier run that exercises indirect probes and refutations.
Seed 22 is a kill-tier run whose observer falsely declares two live
donors alongside the killed one and readmits both: a lost line must
keep blaming the declared incarnation after its node is readmitted.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.cluster.health import NodeState
from repro.errors import RemoteAccessError

_SOAK = Path(__file__).resolve().parents[2] / "benchmarks" / "chaos_soak.py"


@pytest.fixture(scope="module")
def soak():
    spec = importlib.util.spec_from_file_location("chaos_soak", _SOAK)
    mod = importlib.util.module_from_spec(spec)
    # the script's dataclasses resolve their module through sys.modules
    sys.modules["chaos_soak"] = mod
    try:
        spec.loader.exec_module(mod)
        yield mod
    finally:
        sys.modules.pop("chaos_soak", None)


# (build args, events scheduled, final sim ns, probes sent,
#  sha256 of repr(health.events), (donor, detected_ns, healed_ns) per
#  recovery, replay digest)
PINS = {
    "seed1_kill": (
        (1, True),
        29_634,
        725_616.0,
        95,
        "c20d4b4b225fdab27a8214c878922a321f3474a3114ddd86053d7a79bc8449fa",
        [(4, 331_876.0, 365_367.0)],
        "18b711d2afc7ab99da17f7b5ca476bfec19cfc2c889c3e7849654a88e0757683",
    ),
    "seed22_kill": (
        (22, True),
        28_499,
        912_320.0,
        64,
        "e33eff18bd3bc8ad7d7e0148c14d77b25c471cc853aab7c771fe3e3d062c66f2",
        [
            (2, 331_876.0, 391_724.0),
            (3, 331_876.0, 395_034.0),
            (4, 331_876.0, 400_160.0),
        ],
        "8a3e69a9c61200e9b4bc37ba914c4b63917698c1198eb66ca40c7f6deef96c3e",
    ),
    "seed6_partition": (
        (6, True, True),
        40_827,
        1_240_134.0,
        263,
        "cc79057e963bedeb0667a141ecbf2dad2abb0697be2fabeeb9a6c334be7ef6e9",
        [],
        "01c374dbc976cadc658545288ce9268e7a45cd5cf2907de0a53a3f8ed0c05d3a",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_soak_seed_work_is_pinned(soak, name):
    args, events, now, probes, events_sha, recoveries, digest = PINS[name]
    state = soak._build_and_run(*args)
    sim = state.cluster.sim
    health = state.cluster.health
    assert sim.events_scheduled == events
    assert sim.now == now
    assert health.probes_sent == probes
    assert (
        hashlib.sha256(repr(health.events).encode()).hexdigest() == events_sha
    )
    assert [
        (r.donor, r.detected_ns, r.healed_ns) for r in health.recoveries
    ] == recoveries
    assert soak._digest(state) == digest


def test_seed22_lost_line_blames_the_declared_incarnation(soak):
    """Node 4 is declared dead at 331,876 ns (epoch 0), recovery records
    one dirty-and-lost line on its page, and the node is readmitted at
    401,102 ns as epoch 1. The line still blames ``(4, 0)``, an
    incarnation the membership record says was declared dead."""
    state = soak._build_and_run(22, True)
    members = state.cluster.membership
    (line, donor), = state.s1.aspace.lost_lines()
    assert (line, donor) == (0x10002700, 4)
    with pytest.raises(RemoteAccessError) as ei:
        state.s1.read(line, 64, cached=False)
    assert (ei.value.node, ei.value.epoch) == (4, 0)
    assert members.state(4) is NodeState.ALIVE
    assert members.epoch(4) == 1
    assert members.declared(4, 0)
    assert not members.declared(4, 1)
