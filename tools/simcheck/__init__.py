"""simcheck — repo-specific static analysis for the timing model.

The paper's claim rests on cycle-accounting being trustworthy: a
non-coherent region is only "zero overhead" if every HT hop, RMC pipe
and DRAM row charge is counted exactly once. Batching made that a
*convention* (arithmetic N-per-line charges must equal the scalar
walk); simcheck machine-checks the conventions the codebase relies on:

========  =============================================================
code      invariant
========  =============================================================
SIM001    event-heap internals touched, and ``Simulator.now`` or an
          event's ``.callbacks`` written, only inside ``sim/engine.py``
SIM002    timed cost flows through ``Simulator.timeout`` (no direct
          ``Timeout``/``_schedule``/``heapq`` scheduling elsewhere)
SIM003    no float-literal arithmetic on ``*_ns`` values outside the
          latency/units layer (float drift silently breaks the
          batch-vs-scalar elapsed-time diff)
SIM004    HT packets constructed only via ``ht/packet.py`` factories
SIM005    every public callable or constructor defaulting
          ``batch=True`` has a ``batch=False`` twin exercised by an
          equivalence test
SIM006    determinism hazards: unseeded stdlib ``random``/wall-clock
          ``time`` use, set-order iteration, mutable default args,
          bare ``except``
SIM007    fault hooks armed / packets damaged only from the fault
          layer (``sim/faults.py``)
SIM008    recovery actions initiated only from the recovery layer, no
          silently swallowed ``RemoteAccessError``, control-plane
          requests paired with acks only in ``cluster/oslite.py``,
          the membership record written only in ``cluster/health.py``
========  =============================================================

Version 2 adds a flow-aware layer (symbol table + call graph +
intraprocedural dataflow, see ``simcheck/dataflow.py``) with four
rules that reason across assignments, branches and call boundaries:

========  =============================================================
code      invariant
========  =============================================================
SIM009    unit inference: no mixed ns/bytes/lines arithmetic, returns,
          or call arguments (supersedes SIM003's literal heuristic)
SIM010    disarmed-path proof: hot-path hook use (``_faults``,
          ``audit``) dominated by an ``is not None`` guard
SIM011    exception-flow audit: no ``except`` swallows
          ``RemoteAccessError`` before the recovery layer
SIM012    state-machine conformance: every literal LeaseState/MESI
          store is a legal transition-table edge from proven sources
========  =============================================================

Violations are suppressed per line with ``# simcheck: disable=SIMxxx``
or per file with ``# simcheck: disable-file=SIMxxx``; with
``--strict-pragmas``, pragmas that suppress nothing are reported as
SIM000. Every run is a live analysis that prints a text report and
writes no file. Run as::

    PYTHONPATH=src:tools python -m simcheck src tests --strict-pragmas
"""

from __future__ import annotations

from simcheck.engine import FileReport, Project, Violation, check_paths
from simcheck.rules import ALL_RULES, rule_catalogue

__version__ = "2.0"

__all__ = [
    "ALL_RULES",
    "FileReport",
    "Project",
    "Violation",
    "check_paths",
    "rule_catalogue",
    "__version__",
]
