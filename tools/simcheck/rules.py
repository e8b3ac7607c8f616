"""The repo-specific rule set (SIM001–SIM008; the flow-aware
SIM009–SIM012 live in :mod:`simcheck.flowrules` and are registered
here).

Each rule is a small AST pass over one :class:`~simcheck.engine.FileContext`
plus an optional cross-file ``finalize`` over the whole
:class:`~simcheck.engine.Project`. Rules are registered in
:data:`ALL_RULES`; ``python -m simcheck --list-rules`` prints the
catalogue.

Adding a rule: subclass :class:`Rule`, set ``code``/``title``, yield
:class:`~simcheck.engine.Violation` objects from ``check_file`` (use
``ctx.violation(node, self.code, msg)``), append the class to
:data:`ALL_RULES`, and add a good/bad fixture pair to
``tests/tools/test_simcheck.py``. DESIGN.md §9 documents the catalogue.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional, Type

from simcheck.engine import FileContext, Project, Violation

__all__ = ["Rule", "ALL_RULES", "rule_catalogue"]

#: modules allowed to touch the engine's event-queue internals (the
#: engine proper plus its queue-storage module)
_ENGINE = ("sim/engine.py", "sim/equeue.py")
#: modules allowed to do float-literal arithmetic on ``*_ns`` values
_NS_LAYER = ("model/latency.py", "units.py")
#: the only module allowed to construct :class:`Packet` directly
_PACKET_FACTORY = ("ht/packet.py",)
#: the only module allowed to own randomness
_RNG = ("sim/rng.py",)
#: the only module allowed to arm fault hooks or damage packets
_FAULT_LAYER = ("sim/faults.py",)
#: the modules allowed to initiate recovery actions (health drives,
#: rebalance executes, regions keeps the damage book)
_RECOVERY_LAYER = (
    "cluster/health.py",
    "cluster/rebalance.py",
    "cluster/regions.py",
)


def _dotted(node: ast.AST) -> Optional[str]:
    """Reconstruct a dotted name ("np.random.seed") or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_name(call: ast.Call) -> Optional[str]:
    """Last path component of the called object's name."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return True
    # a negated float literal (-0.5) parses as UnaryOp(USub, Constant)
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
        and _is_float_literal(node.operand)
    )


def _ns_name(node: ast.AST) -> Optional[str]:
    """The ``*_ns`` spelling of a Name/Attribute operand, if any."""
    name: Optional[str] = None
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Call):
        name = _call_name(node)
    if name and (name.endswith("_ns") or name.endswith("_NS")):
        return name
    return None


class Rule:
    """Base class: one invariant, one code."""

    code: str = ""
    title: str = ""

    def check_file(self, ctx: FileContext) -> Iterable[Violation]:
        return ()

    def finalize(self, project: Project) -> Iterable[Violation]:
        return ()


class SIM001EngineInternals(Rule):
    """Event-queue and clock internals stay inside the engine modules
    (``sim/engine.py`` and its queue storage ``sim/equeue.py``).

    Any touch of ``_now``/``_heap``/``_ready``/``_seq``/``_equeue``
    elsewhere, or any store to or ``del`` of ``.now`` (the clock is a
    plain attribute only the engine writes), can rewind the clock or
    reorder the event queue behind the determinism guarantee's back.
    A store to or ``del`` of an event's ``.callbacks`` outside
    ``sim/engine.py`` is flagged too: whether it holds nothing, one
    callable or a list is the engine's private representation, and
    waiters register through ``add_callback`` or by being yielded.
    """

    code = "SIM001"
    title = "engine event-queue/clock internals touched outside sim/engine.py"

    # NOTE: deliberately does not include "_queue" — Resource._queue in
    # sim/engine.py is an ordinary waiter deque, not engine state; the
    # Simulator's queue object is named "_equeue" for this reason.
    _INTERNALS = frozenset({"_now", "_heap", "_seq", "_ready", "_equeue"})

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.in_module("sim/engine.py"):
            return
        queue_module = ctx.in_module(*_ENGINE)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr == "callbacks" and isinstance(node.ctx, (ast.Store, ast.Del)):
                yield ctx.violation(
                    node,
                    self.code,
                    "write to an event's '.callbacks' — only sim/engine.py "
                    "may change how an event holds its waiters; use "
                    "add_callback()",
                )
            elif queue_module:
                continue
            elif node.attr in self._INTERNALS:
                yield ctx.violation(
                    node,
                    self.code,
                    f"access to simulator internal '.{node.attr}' — only "
                    "sim/engine.py may manipulate the clock or event heap",
                )
            elif node.attr == "now" and isinstance(node.ctx, (ast.Store, ast.Del)):
                yield ctx.violation(
                    node,
                    self.code,
                    "write to the simulator clock '.now' — only "
                    "sim/engine.py may advance the clock",
                )


class SIM002TimedCostViaTimeout(Rule):
    """All timed cost flows through ``Simulator.timeout`` / the charge
    helpers; no component schedules events behind the engine's API.
    """

    code = "SIM002"
    title = "timed cost scheduled outside Simulator.timeout/charge helpers"

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.in_module(*_ENGINE):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name == "_schedule":
                yield ctx.violation(
                    node,
                    self.code,
                    "direct call to Simulator._schedule — charge time via "
                    "sim.timeout(...) so cost is counted exactly once",
                )
            elif name == "Timeout" and isinstance(node.func, ast.Name):
                yield ctx.violation(
                    node,
                    self.code,
                    "direct Timeout(...) construction — use sim.timeout(...)",
                )
            elif name in ("heappush", "heappop", "heapify"):
                dotted = _dotted(node.func)
                if dotted is None or dotted.startswith("heapq."):
                    yield ctx.violation(
                        node,
                        self.code,
                        f"{name}() on an event heap outside the engine",
                    )


class SIM003FloatNsDrift(Rule):
    """No float-literal arithmetic on ``*_ns`` values outside the
    latency/units layer.

    The batch path charges ``N * per_line_ns`` where the scalar path
    sums N separate timeouts; ad-hoc float factors applied elsewhere
    drift the two apart below the equivalence suites' tolerance until
    they silently disagree.
    """

    code = "SIM003"
    title = "float-literal arithmetic on *_ns value outside latency/units layer"

    _OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.in_module(*_NS_LAYER):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, self._OPS):
                operands = (node.left, node.right)
                literal = next(
                    (o for o in operands if _is_float_literal(o)), None
                )
                named = next(
                    (n for o in operands if (n := _ns_name(o))), None
                )
                if literal is not None and named is not None:
                    yield ctx.violation(
                        node,
                        self.code,
                        f"float literal combined with '{named}' — derive "
                        "the constant in model/latency.py or units.py "
                        "instead of inlining a drift-prone factor",
                    )
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, self._OPS
            ):
                named = _ns_name(node.target)
                if named is not None and _is_float_literal(node.value):
                    yield ctx.violation(
                        node,
                        self.code,
                        f"float literal folded into '{named}' in place",
                    )


class SIM004PacketFactories(Rule):
    """HT packets are constructed only via the ``ht/packet.py``
    factories, so burst/size/payload validation cannot be bypassed.

    Applies to production code; tests may build malformed packets on
    purpose to exercise the validators.
    """

    code = "SIM004"
    title = "Packet constructed outside the ht/packet.py factories"

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.in_module(*_PACKET_FACTORY) or ctx.is_test:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and _call_name(node) == "Packet":
                yield ctx.violation(
                    node,
                    self.code,
                    "direct Packet(...) construction — use a make_* factory "
                    "or clone_packet() from repro.ht.packet",
                )


class SIM005BatchTwinCoverage(Rule):
    """Every public callable or constructor defaulting ``batch=True``
    must have its ``batch=False`` twin exercised by a test in the
    scanned set.

    The batched fast path is only trustworthy relative to the scalar
    reference walk; a callable whose scalar twin no test ever selects
    can drift without any suite noticing. A class's ``__init__`` counts
    under the class name, so ``Cluster(cfg, batch=False)`` in a test
    covers ``Cluster.__init__``. Enforced only when the run includes
    test files (``python -m simcheck src tests``).
    """

    code = "SIM005"
    title = (
        "public callable or constructor defaulting batch=True without a "
        "batch=False twin in any test"
    )

    def finalize(self, project: Project) -> Iterator[Violation]:
        if not project.has_tests:
            return
        referenced: set[str] = set()
        for ctx in project.test_files:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                for kw in node.keywords:
                    if kw.arg != "batch":
                        continue
                    # any explicit batch= that is not literally True
                    # exercises the scalar twin (equivalence drivers
                    # pass a looped variable)
                    if not (
                        isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        name = _call_name(node)
                        if name:
                            referenced.add(name)
        for ctx in project.src_files:
            yield from self._check_src_file(ctx, referenced)

    def _check_src_file(
        self, ctx: FileContext, referenced: set[str]
    ) -> Iterator[Violation]:
        class_stack: list[str] = []

        def visit(node: ast.AST) -> Iterator[Violation]:
            if isinstance(node, ast.ClassDef):
                class_stack.append(node.name)
                for child in ast.iter_child_nodes(node):
                    yield from visit(child)
                class_stack.pop()
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_def(ctx, node, class_stack, referenced)
            for child in ast.iter_child_nodes(node):
                yield from visit(child)

        yield from visit(ctx.tree)

    def _check_def(
        self,
        ctx: FileContext,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_stack: list[str],
        referenced: set[str],
    ) -> Iterator[Violation]:
        public_name = node.name
        if public_name == "__init__" and class_stack:
            public_name = class_stack[-1]
        if public_name.startswith("_"):
            return
        args = node.args
        pairs = list(
            zip(args.args[len(args.args) - len(args.defaults):], args.defaults)
        ) + [
            (a, d)
            for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None
        ]
        for arg, default in pairs:
            if (
                arg.arg == "batch"
                and isinstance(default, ast.Constant)
                and default.value is True
                and public_name not in referenced
            ):
                yield ctx.violation(
                    node,
                    self.code,
                    f"public callable or constructor '{public_name}' "
                    "defaults batch=True but no scanned test calls it with "
                    "batch=False — the scalar reference twin is unguarded",
                )


class SIM006DeterminismHazards(Rule):
    """Sources of run-to-run nondeterminism.

    * unseeded stdlib ``random`` / numpy legacy global RNG state — all
      randomness must derive from :mod:`repro.sim.rng` streams (or an
      explicitly seeded ``random.Random(seed)`` in tests);
    * wall-clock ``time.*`` — simulated time comes from ``sim.now``;
    * iteration over set displays/calls — set order varies with PYTHONHASHSEED
      for str keys and poisons replay; iterate ``sorted(...)`` instead;
    * mutable default arguments — state leaks between calls;
    * bare ``except:`` — swallows engine errors the sanitizers raise.
    """

    code = "SIM006"
    title = "determinism hazard (random/time/set-order/mutable default/bare except)"

    _NP_ALLOWED = frozenset(
        {"default_rng", "Generator", "SeedSequence", "PCG64", "BitGenerator"}
    )
    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "deque"})

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.in_module(*_RNG):
            return
        for node in ast.walk(ctx.tree):
            yield from self._check_node(ctx, node)

    def _check_node(
        self, ctx: FileContext, node: ast.AST
    ) -> Iterator[Violation]:
        if isinstance(node, ast.ImportFrom) and node.module in (
            "random",
            "time",
        ):
            yield ctx.violation(
                node,
                self.code,
                f"'from {node.module} import ...' — use repro.sim.rng "
                "streams / sim.now instead",
            )
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node) or ""
            head, _, tail = dotted.partition(".")
            if head == "time" and tail:
                yield ctx.violation(
                    node,
                    self.code,
                    f"wall-clock '{dotted}' — simulated time must come "
                    "from sim.now",
                )
            elif head == "random" and tail and tail != "Random":
                yield ctx.violation(
                    node,
                    self.code,
                    f"global-state '{dotted}' — derive a stream from "
                    "repro.sim.rng (or a seeded random.Random in tests)",
                )
            elif (
                dotted.startswith(("np.random.", "numpy.random."))
                and node.attr not in self._NP_ALLOWED
            ):
                yield ctx.violation(
                    node,
                    self.code,
                    f"numpy legacy global RNG '{dotted}' — use "
                    "np.random.default_rng via repro.sim.rng",
                )
        elif isinstance(node, ast.Call) and _call_name(node) == "Random":
            if not node.args and not node.keywords:
                yield ctx.violation(
                    node,
                    self.code,
                    "unseeded random.Random() — pass an explicit seed",
                )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from self._check_defaults(ctx, node)
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            yield ctx.violation(
                node,
                self.code,
                "bare 'except:' — catches and hides SanitizeError and "
                "engine failures; name the exception",
            )
        elif isinstance(
            node, (ast.For, ast.comprehension)
        ):
            iter_node = node.iter
            if self._is_set_expr(iter_node):
                yield ctx.violation(
                    iter_node,
                    self.code,
                    "iteration over a set — order varies across runs for "
                    "str members; wrap in sorted(...)",
                )

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return isinstance(node, ast.Call) and _call_name(node) in (
            "set",
            "frozenset",
        )

    def _check_defaults(
        self, ctx: FileContext, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                 ast.SetComp),
            ) or (
                isinstance(default, ast.Call)
                and _call_name(default) in self._MUTABLE_CALLS
            )
            if mutable:
                yield ctx.violation(
                    default,
                    self.code,
                    f"mutable default argument in '{node.name}' — state "
                    "leaks across calls; default to None",
                )


class SIM007FaultInjectionLayer(Rule):
    """Faults enter the simulation only through ``sim/faults.py``.

    Arming a component's ``_faults`` hook or stamping a packet's
    corruption mark anywhere else injects a failure the active
    :class:`~repro.sim.faults.FaultPlan` does not describe, so the run
    can no longer be replayed from its plan + seed. Applies to tests
    too: scenarios must build a plan, not poke the hooks.
    """

    code = "SIM007"
    title = "fault hook armed / packet damaged outside sim/faults.py"

    _META_KEYS = frozenset({"corrupt", "dropped", "faulted"})

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.in_module(*_FAULT_LAYER):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    yield from self._check_target(ctx, target, node.value)
            elif isinstance(node, ast.AugAssign):
                yield from self._check_target(ctx, node.target, node.value)

    def _check_target(
        self, ctx: FileContext, target: ast.AST, value: ast.AST
    ) -> Iterator[Violation]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from self._check_target(ctx, elt, value)
            return
        if isinstance(target, ast.Attribute) and target.attr == "_faults":
            # hook sites may (re)initialise the hook to None; only the
            # fault layer may arm it with a live injector
            if not (isinstance(value, ast.Constant) and value.value is None):
                yield ctx.violation(
                    target,
                    self.code,
                    "fault hook '._faults' armed outside sim/faults.py — "
                    "use Cluster.arm_faults()/FaultInjector.attach_* so "
                    "the run stays described by its FaultPlan",
                )
        elif isinstance(target, ast.Subscript):
            base = target.value
            key = target.slice
            marks = isinstance(base, ast.Attribute) and base.attr == "meta" and (
                (isinstance(key, ast.Constant) and key.value in self._META_KEYS)
                or (isinstance(key, ast.Name) and key.id == "CORRUPT_KEY")
            )
            if marks:
                yield ctx.violation(
                    target,
                    self.code,
                    "packet damage mark written outside sim/faults.py — "
                    "add a corrupt_packets()/drop_packets() rule to a "
                    "FaultPlan instead",
                )


class SIM008RecoveryDiscipline(Rule):
    """Failure errors stay loud; recovery actions stay layered.

    * ``except RemoteAccessError: pass`` (or ``RecoveryError``, or a
      tuple containing either) silently swallows a machine-check-style
      failure — exactly the error class PR 6 made structured so callers
      can react. Handle it (degrade, record, re-raise) or let it
      propagate.
    * Recovery *actions* — repointing pages, retiring an ended lease's
      arena, recording damage, rebinding allocations, re-reserving
      capacity — may only be initiated from the recovery layer
      (``cluster/health.py`` drives, ``cluster/rebalance.py`` executes,
      ``cluster/regions.py`` keeps the damage book). Anywhere else they
      bypass the idempotence guards and the MTTR accounting. Tests are
      exempt from the layering (they exercise the mechanics directly)
      but never from the swallow check.
    * Control-plane requests and acks are paired only inside
      ``cluster/oslite.py`` (``OSLite.ask``/``ask_each``, which abandon
      every un-acked tag however the exchange ends). A call to
      ``_expect``/``_abandon`` elsewhere pairs tags by hand again
      (tests may call them to exercise the guards), and a store to
      ``_pending_acks``/``_orphaned`` elsewhere — assignment, ``del``
      or a mutating method — is flagged everywhere. Reads stay legal:
      tests and the soak check that nothing is left pending.
    * The per-node membership record (``cluster.membership``) is
      written only inside ``cluster/health.py``, by ``degrade_donor``,
      ``HealthMonitor._declare_dead`` and ``_readmit``. A call to a
      transition (``revoke``/``declare``/``readmit``) or a store to the
      record's state elsewhere is flagged everywhere, tests included;
      reads (``state``, ``epoch``, ``dead``, ``declared``) stay legal.
    """

    code = "SIM008"
    title = (
        "RemoteAccessError swallowed / recovery action outside recovery "
        "layer / request-ack pairing outside cluster/oslite.py / "
        "membership write outside cluster/health.py"
    )

    _ERRORS = frozenset({"RemoteAccessError", "RecoveryError"})
    _ACTIONS = frozenset(
        {
            "repoint_page",
            "retire_reservation",
            "record_damage",
            "rebind_allocation",
            "re_reserve",
            "heal_sessions",
        }
    )
    _PAIRING_CALLS = frozenset({"_expect", "_abandon"})
    _PAIRING_STATE = frozenset({"_pending_acks", "_orphaned"})
    _MEMBERSHIP_WRITES = frozenset({"revoke", "declare", "readmit", "_advance"})
    _MEMBERSHIP_NAMES = frozenset({"membership", "members"})
    _MUTATORS = frozenset(
        {"add", "clear", "discard", "pop", "popitem", "remove",
         "setdefault", "update"}
    )

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        pairing = not ctx.in_module("cluster/oslite.py")
        membership = not ctx.in_module("cluster/health.py")
        for node in ast.walk(ctx.tree):
            if pairing:
                yield from self._check_pairing(ctx, node)
            if membership:
                yield from self._check_membership(ctx, node)
            if isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(ctx, node)
            elif (
                isinstance(node, ast.Call)
                and not ctx.is_test
                and not ctx.in_module(*_RECOVERY_LAYER)
            ):
                name = _call_name(node)
                if name in self._ACTIONS:
                    yield ctx.violation(
                        node,
                        self.code,
                        f"recovery action '{name}()' initiated outside the "
                        "recovery layer — route it through cluster/health.py "
                        "or cluster/rebalance.py so idempotence guards and "
                        "MTTR accounting apply",
                    )

    def _check_pairing(
        self, ctx: FileContext, node: ast.AST
    ) -> Iterator[Violation]:
        state: Optional[str] = None
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr in self._PAIRING_CALLS and not ctx.is_test:
                yield ctx.violation(
                    node,
                    self.code,
                    f"'{func.attr}()' pairs a control-plane request with "
                    "its ack by hand — send it with OSLite.ask()/ask_each(), "
                    "which leave no pending ack behind",
                )
                return
            target = func.value
            if (
                func.attr in self._MUTATORS
                and isinstance(target, ast.Attribute)
                and target.attr in self._PAIRING_STATE
            ):
                state = target.attr
        elif isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            target = node.value if isinstance(node, ast.Subscript) else node
            if (
                isinstance(target, ast.Attribute)
                and target.attr in self._PAIRING_STATE
            ):
                state = target.attr
        if state is not None:
            yield ctx.violation(
                node,
                self.code,
                f"store to '.{state}' outside cluster/oslite.py — only "
                "OSLite may pair requests with acks; read it, or send "
                "through OSLite.ask()/ask_each()",
            )

    def _is_membership(self, expr: ast.AST) -> bool:
        return (
            isinstance(expr, ast.Attribute)
            and expr.attr in self._MEMBERSHIP_NAMES
        ) or (isinstance(expr, ast.Name) and expr.id in self._MEMBERSHIP_NAMES)

    def _check_membership(
        self, ctx: FileContext, node: ast.AST
    ) -> Iterator[Violation]:
        written: Optional[str] = None
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr in self._MEMBERSHIP_WRITES and self._is_membership(
                func.value
            ):
                written = f"{func.attr}()"
            elif (
                func.attr in self._MUTATORS
                and isinstance(func.value, ast.Attribute)
                and self._is_membership(func.value.value)
            ):
                written = f".{func.value.attr}"
        elif isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            target = node.value if isinstance(node, ast.Subscript) else node
            if isinstance(target, ast.Attribute) and self._is_membership(
                target.value
            ):
                written = f".{target.attr}"
        if written is not None:
            yield ctx.violation(
                node,
                self.code,
                f"membership record written ({written}) outside "
                "cluster/health.py — only degrade_donor, _declare_dead "
                "and _readmit move a node's state or epoch; read it "
                "instead",
            )

    def _check_handler(
        self, ctx: FileContext, node: ast.ExceptHandler
    ) -> Iterator[Violation]:
        caught = self._caught_names(node.type)
        named = caught & self._ERRORS
        if not named:
            return
        if all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in node.body
        ):
            yield ctx.violation(
                node,
                self.code,
                f"'{sorted(named)[0]}' swallowed by an empty except "
                "handler — a machine-check-style failure must be "
                "handled (degrade, record, re-raise), not hidden",
            )

    def _caught_names(self, type_node: "ast.expr | None") -> set[str]:
        if type_node is None:
            return set()
        if isinstance(type_node, ast.Tuple):
            names = set()
            for elt in type_node.elts:
                names |= self._caught_names(elt)
            return names
        if isinstance(type_node, ast.Attribute):
            return {type_node.attr}
        if isinstance(type_node, ast.Name):
            return {type_node.id}
        return set()


# the flow-aware rules live in their own module (they need the
# dataflow engine); imported here, after Rule is defined, so that
# ALL_RULES stays the single registry
from simcheck.flowrules import (  # noqa: E402
    SIM009UnitInference,
    SIM010DisarmedPathProof,
    SIM011ExceptionFlowAudit,
    SIM012StateMachineConformance,
)

#: registration order == reporting precedence
ALL_RULES: list[Type[Rule]] = [
    SIM001EngineInternals,
    SIM002TimedCostViaTimeout,
    SIM003FloatNsDrift,
    SIM004PacketFactories,
    SIM005BatchTwinCoverage,
    SIM006DeterminismHazards,
    SIM007FaultInjectionLayer,
    SIM008RecoveryDiscipline,
    SIM009UnitInference,
    SIM010DisarmedPathProof,
    SIM011ExceptionFlowAudit,
    SIM012StateMachineConformance,
]


def rule_catalogue() -> list[tuple[str, str, str]]:
    """(code, title, docstring) for every registered rule."""
    return [
        (cls.code, cls.title, (cls.__doc__ or "").strip())
        for cls in ALL_RULES
    ]
