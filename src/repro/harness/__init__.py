"""Experiment harness.

One driver per evaluation artifact of the paper; each is checked by
one class in ``tests/integration/test_figures.py``:

========= =========================================================
id        what it regenerates
========= =========================================================
fig06     random-access time vs. client-server distance
fig07     thread sweep / server count / distance (client-RMC limit)
fig08     server congestion under multi-node stress
fig09     b-tree search time vs. fanout under remote swap
fig10     b-tree scalability: remote memory vs. remote swap
fig11     PARSEC-like workloads x {local, remote memory, remote swap}
tableA    latency characterization (analytic vs. measured)
extA      coherency overhead vs. donor count (no/snoopy/directory)
extB      the Section II memory-expansion survey on one workload
extC      single writer, flush, then a parallel read-only phase
extD      in-memory database query times by memory system
extE      aggregate remote bandwidth vs. concurrent donor pairs
extF      OLAP column scans vs. column size and donor distance
extG      Section VI prefetching on the fast and packet tiers
footnote3 hash index vs. b-tree on remote memory
ablations the Sections III-IV design choices, one row each
========= =========================================================

Every driver returns an :class:`~repro.harness.experiments.ExperimentResult`
whose rows carry the same quantities the paper plots; ``format()``
renders them as an ASCII table. Drivers accept a ``scale`` knob: 1.0
runs the quick defaults; larger values approach paper-scale workloads.
"""

from repro.harness.experiments import (
    ExperimentResult,
    available_experiments,
    get_experiment,
    run_experiment,
)

# importing the modules registers the drivers
from repro.harness import (  # noqa: F401,E402
    ablations,
    extA_coherency,
    extB_alternatives,
    extC_readonly,
    extD_database,
    extE_scaling,
    extF_columnar,
    extG_prefetch,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    footnote3,
    tables,
)

__all__ = [
    "ExperimentResult",
    "available_experiments",
    "get_experiment",
    "run_experiment",
]
