"""Discrete-event simulation engine.

A small, deterministic, generator-coroutine engine in the style of
SimPy, purpose-built for the packet-level tier of the simulator:

* :class:`~repro.sim.engine.Simulator` — the event loop and clock.
* :class:`~repro.sim.engine.Event` / :class:`~repro.sim.engine.Process`
  — waitables that processes ``yield``.
* :class:`~repro.sim.engine.Resource` / :class:`~repro.sim.engine.Store`
  — capacity-limited resources and FIFO stores used to model queues
  and link arbitration.
* :mod:`repro.sim.stats` — counters, tallies and time-weighted
  statistics for instrumentation.
* :mod:`repro.sim.rng` — reproducible random-stream derivation.
* :mod:`repro.sim.faults` — deterministic fault injection (node
  crashes, link failures, packet drop/corruption).
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Resource,
    Simulator,
    Store,
    Timeout,
)
from repro.sim.faults import (
    FaultInjector,
    FaultPlan,
    FaultStats,
    collect_faults,
    format_fault_report,
)
from repro.sim.stats import Counter, Tally, TimeWeighted

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AnyOf",
    "AllOf",
    "Resource",
    "Store",
    "Counter",
    "Tally",
    "TimeWeighted",
    "FaultPlan",
    "FaultInjector",
    "FaultStats",
    "collect_faults",
    "format_fault_report",
]
