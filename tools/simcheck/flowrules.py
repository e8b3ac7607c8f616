"""Flow-aware rules (SIM009–SIM012), built on :mod:`simcheck.dataflow`.

These four rules are the reason simcheck grew a symbol table, a call
graph and a dataflow engine: each one verifies an invariant that
crosses an assignment, a branch or a call boundary, which the
per-node pattern rules (SIM001–SIM008) cannot see.

* **SIM009** — unit inference. A small unit lattice (``ns`` /
  ``bytes`` / ``lines``, joined to unknown) is seeded from name
  suffixes, the ``units.py`` constants and call signatures, then
  propagated through local assignments by the forward solver. Mixed
  additive arithmetic, mixed returns and unit-mismatched call
  arguments are flagged. Supersedes SIM003's float-literal heuristic
  (which stays registered for the drift cases unit names can't see).
* **SIM010** — disarmed-path proof. In the hot-path modules, every
  attribute access *through* a fault/audit hook object must be
  dominated by an ``is not None`` guard on that exact expression —
  the static form of the DESIGN §10/§12 "zero-cost when disarmed"
  contract.
* **SIM011** — exception-flow audit. Call-graph reachability from
  every ``RemoteAccessError`` raise site to the sanctioned recovery
  layer; any intermediate ``except`` that can swallow the error
  (explicit catch, or a broad catch whose try-body may reach a raise
  site) without re-raising is flagged. Interprocedural strengthening
  of SIM008's syntactic swallow check.
* **SIM012** — state-machine conformance. The ``LeaseState`` and
  MESI legality tables are extracted from their defining modules;
  every store of a literal state into a tracked state container must
  be a legal edge from the *proven* source states (dominating guards
  / value bindings), mirroring the runtime sanitizer statically.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence

from simcheck.dataflow import (
    Domain,
    LoopBind,
    analyze,
    apply_refinement,
    dump_key,
)
from simcheck.engine import FileContext, Project, Violation
from simcheck.rules import Rule

__all__ = [
    "SIM009UnitInference",
    "SIM010DisarmedPathProof",
    "SIM011ExceptionFlowAudit",
    "SIM012StateMachineConformance",
]


def _iter_functions(
    tree: ast.AST,
) -> Iterator["ast.FunctionDef | ast.AsyncFunctionDef"]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _own_descendants(node: ast.AST) -> Iterator[ast.AST]:
    """Walk *node*'s subtree without entering nested def/class bodies."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


# =======================================================================
# SIM009 — unit inference
# =======================================================================

_NS_CONSTS = frozenset({"NS", "US", "MS", "S"})
_BYTES_CONSTS = frozenset({"KIB", "MIB", "GIB", "CACHE_LINE", "PAGE_SIZE"})
_NS_FUNCS = frozenset({"ns", "us", "ms", "seconds", "bandwidth_time"})
_BYTES_FUNCS = frozenset({"kib", "mib", "gib"})
#: builtins transparent to units: unit(min(a_ns, b_ns)) == ns
_TRANSPARENT_CALLS = frozenset({"min", "max", "abs", "int", "float", "round"})

#: the conversion layer is exempt from intra-file unit arithmetic (it
#: exists to mix units); call-site checks still apply everywhere
_UNIT_LAYER = ("units.py", "model/latency.py")


def unit_of_name(name: Optional[str]) -> Optional[str]:
    """The unit a bare identifier advertises, or None.

    Rate names (``bytes_per_ns``) are dimensionally *not* their
    suffix: strip the suffix and refuse names ending in ``_per``.
    """
    if not name:
        return None
    if name in _NS_CONSTS:
        return "ns"
    if name in _BYTES_CONSTS or name == "nbytes":
        return "bytes"
    if name == "line_count":
        return "lines"
    low = name.lower()
    for suffix, unit in (("_ns", "ns"), ("_bytes", "bytes"), ("_lines", "lines")):
        if low.endswith(suffix):
            stem = low[: -len(suffix)]
            if stem.endswith("_per") or stem == "per":
                return None  # a rate, not the suffix unit
            return unit
    return None


def unit_of_call_name(name: Optional[str]) -> Optional[str]:
    if not name:
        return None
    if name in _NS_FUNCS:
        return "ns"
    if name in _BYTES_FUNCS:
        return "bytes"
    return unit_of_name(name)


_RATE_TOKENS = {
    "ns": "ns",
    "bytes": "bytes",
    "byte": "bytes",
    "b": "bytes",
    "lines": "lines",
    "line": "lines",
}


def rate_of_name(name: Optional[str]) -> Optional[tuple[str, str]]:
    """``(numerator, denominator)`` units of a ``*_X_per_Y``-named
    identifier (``bytes_per_ns``). The config ``*_Bpns`` figures are
    deliberately *not* recognized: ad-hoc division by a raw bandwidth
    figure is exactly what ``units.bandwidth_time`` exists to replace,
    and blessing it in the linter would keep the pattern alive.
    """
    if not name:
        return None
    low = name.lower()
    head, sep, tail = low.rpartition("_per_")
    if sep:
        num = _RATE_TOKENS.get(head.rpartition("_")[2])
        den = _RATE_TOKENS.get(tail)
        if num and den:
            return num, den
    return None


def _rate_of_expr(expr: ast.expr) -> Optional[tuple[str, str]]:
    if isinstance(expr, ast.Name):
        return rate_of_name(expr.id)
    if isinstance(expr, ast.Attribute):
        return rate_of_name(expr.attr)
    return None


def join_units(a: Optional[str], b: Optional[str]) -> Optional[str]:
    """Lattice join: agreeing units survive, anything else is unknown."""
    return a if a == b else None


class UnitDomain(Domain):
    """Forward propagation of inferred units through local names."""

    def initial(self, fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> dict:
        state: dict[str, str] = {}
        for arg in list(fn.args.posonlyargs) + list(fn.args.args) + list(
            fn.args.kwonlyargs
        ):
            unit = unit_of_name(arg.arg)
            if unit:
                state[arg.arg] = unit
        return state

    def copy(self, state: dict) -> dict:
        return dict(state)

    def join(self, a: dict, b: dict) -> dict:
        return {k: a[k] for k in a.keys() & b.keys() if a[k] == b[k]}

    def transfer(self, state: dict, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            self._assign(state, stmt.targets[0], stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign(state, stmt.target, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                # target op= value keeps the target's unit when it has
                # one; a mixed-unit fold is reported by the rule's walk
                if stmt.target.id not in state:
                    unit = unit_of_name(stmt.target.id)
                    if unit:
                        state[stmt.target.id] = unit
        elif isinstance(stmt, LoopBind):
            for name in self._bound_names(stmt.target):
                state.pop(name, None)

    def _assign(self, state: dict, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            declared = unit_of_name(target.id)
            inferred = infer_unit(value, state)
            unit = declared or inferred
            if unit:
                state[target.id] = unit
            else:
                state.pop(target.id, None)
        elif isinstance(target, ast.Tuple):
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    state.pop(elt.id, None)

    @staticmethod
    def _bound_names(target: ast.expr) -> list[str]:
        out = []
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                out.append(node.id)
        return out


def infer_unit(expr: ast.expr, state: dict) -> Optional[str]:
    """Infer *expr*'s unit under *state* (no violation reporting)."""
    if isinstance(expr, ast.Name):
        return unit_of_name(expr.id) or state.get(expr.id)
    if isinstance(expr, ast.Attribute):
        return unit_of_name(expr.attr)
    if isinstance(expr, ast.Call):
        func = expr.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name in _TRANSPARENT_CALLS:
            for arg in expr.args:
                unit = infer_unit(arg, state)
                if unit:
                    return unit
            return None
        return unit_of_call_name(name)
    if isinstance(expr, ast.UnaryOp) and isinstance(
        expr.op, (ast.USub, ast.UAdd)
    ):
        return infer_unit(expr.operand, state)
    if isinstance(expr, ast.IfExp):
        return join_units(
            infer_unit(expr.body, state), infer_unit(expr.orelse, state)
        )
    if isinstance(expr, ast.BinOp):
        left = infer_unit(expr.left, state)
        right = infer_unit(expr.right, state)
        if isinstance(expr.op, (ast.Add, ast.Sub)):
            return left if left == right else (left or right)
        if isinstance(expr.op, ast.Mult):
            if left and right:
                return None  # unit * unit: not representable here
            return left or right
        if isinstance(expr.op, (ast.Div, ast.FloorDiv, ast.Mod)):
            if isinstance(expr.op, ast.Div):
                rate = _rate_of_expr(expr.right)
                if rate is not None:
                    num, den = rate
                    # bytes / (bytes per ns) = ns; unknown / rate = den
                    return den if left in (num, None) else None
            if left and right:
                return None  # ratio (or rate): dimensionless for us
            return left  # unit / scalar keeps the unit
    return None


class SIM009UnitInference(Rule):
    """Unit discipline, inferred instead of asserted.

    A unit lattice (``ns``/``bytes``/``lines``) is seeded from name
    suffixes (``*_ns``, ``*_bytes``, ``*_lines``; rate names like
    ``bytes_per_ns`` are exempt), the ``units.py`` constants
    (``US``/``MIB``/``CACHE_LINE``/...), and call signatures, then
    propagated through local assignments with the dataflow engine.
    Flagged: additive arithmetic and ordering comparisons over
    *different* known units, returns that contradict the function
    name's unit, assignments that contradict the target name's unit,
    and call arguments whose inferred unit contradicts the parameter
    name in every resolvable callee. The conversion layer
    (``units.py``, ``model/latency.py``) is exempt from the intra-file
    checks — mixing units is its job.
    """

    code = "SIM009"
    title = "mixed-unit arithmetic/return/argument (ns vs bytes vs lines)"

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.in_module(*_UNIT_LAYER):
            return
        domain = UnitDomain()
        for fn in _iter_functions(ctx.tree):
            analysis = analyze(fn, domain)
            fn_unit = unit_of_call_name(fn.name)
            for stmt, state in analysis.statement_states():
                yield from self._check_stmt(ctx, fn, fn_unit, stmt, state)

    def _check_stmt(
        self,
        ctx: FileContext,
        fn: "ast.FunctionDef | ast.AsyncFunctionDef",
        fn_unit: Optional[str],
        stmt: ast.stmt,
        state: dict,
    ) -> Iterator[Violation]:
        for expr in self._stmt_exprs(stmt):
            yield from self._check_expr(ctx, expr, state)
        if isinstance(stmt, ast.Return) and stmt.value is not None and fn_unit:
            got = infer_unit(stmt.value, state)
            if got and got != fn_unit:
                yield ctx.violation(
                    stmt,
                    self.code,
                    f"'{fn.name}' advertises {fn_unit} but returns a "
                    f"{got} value — rename the function or convert the "
                    "result",
                )
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            yield from self._check_assign(ctx, stmt.targets[0], stmt.value, state)
        elif isinstance(stmt, ast.AugAssign) and isinstance(
            stmt.op, (ast.Add, ast.Sub)
        ):
            declared = infer_unit(stmt.target, state)
            got = infer_unit(stmt.value, state)
            if declared and got and declared != got:
                yield ctx.violation(
                    stmt,
                    self.code,
                    f"{got} value folded into a {declared} accumulator",
                )

    def _check_assign(
        self, ctx: FileContext, target: ast.expr, value: ast.expr, state: dict
    ) -> Iterator[Violation]:
        declared = None
        if isinstance(target, ast.Name):
            declared = unit_of_name(target.id)
        elif isinstance(target, ast.Attribute):
            declared = unit_of_name(target.attr)
        if declared is None:
            return
        got = infer_unit(value, state)
        if got and got != declared:
            name = target.id if isinstance(target, ast.Name) else target.attr
            yield ctx.violation(
                target,
                self.code,
                f"'{name}' is named as {declared} but is assigned a "
                f"{got} value",
            )

    @staticmethod
    def _stmt_exprs(stmt: ast.stmt) -> Iterator[ast.expr]:
        from simcheck.dataflow import iter_expressions

        if isinstance(stmt, LoopBind):
            return
        yield from iter_expressions(stmt)

    def _check_expr(
        self, ctx: FileContext, expr: ast.expr, state: dict
    ) -> Iterator[Violation]:
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.Add, ast.Sub)
        ):
            left = infer_unit(expr.left, state)
            right = infer_unit(expr.right, state)
            if left and right and left != right:
                op = "+" if isinstance(expr.op, ast.Add) else "-"
                yield ctx.violation(
                    expr,
                    self.code,
                    f"mixed-unit arithmetic: {left} {op} {right}",
                )
        elif isinstance(expr, ast.Compare) and len(expr.ops) == 1 and isinstance(
            expr.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
        ):
            left = infer_unit(expr.left, state)
            right = infer_unit(expr.comparators[0], state)
            if left and right and left != right:
                yield ctx.violation(
                    expr,
                    self.code,
                    f"mixed-unit comparison: {left} vs {right}",
                )

    # -- cross-boundary argument check -----------------------------------
    def finalize(self, project: Project) -> Iterator[Violation]:
        graph = project.callgraph
        symbols = project.symbols
        by_path = {ctx.rel_path: ctx for ctx in project.files}
        for site in graph.sites:
            caller = symbols.functions[site.caller]
            ctx = by_path.get(caller.rel_path)
            if ctx is None or ctx.in_module(*_UNIT_LAYER):
                continue
            candidates = [
                symbols.functions[q]
                for q in site.candidates
                if q in symbols.functions
            ]
            if not candidates:
                continue
            yield from self._check_site(ctx, site.node, candidates)

    def _check_site(
        self,
        ctx: FileContext,
        call: ast.Call,
        candidates: Sequence,
    ) -> Iterator[Violation]:
        if any(isinstance(a, ast.Starred) for a in call.args):
            return
        for index, arg in enumerate(call.args):
            got = infer_unit(arg, {})
            if not got:
                continue
            verdicts = []
            for info in candidates:
                params = info.call_params
                if index >= len(params):
                    verdicts = []
                    break
                want = unit_of_name(params[index])
                verdicts.append((want, params[index]))
            if not verdicts:
                continue
            wants = {w for w, _ in verdicts}
            if len(wants) == 1:
                want, pname = verdicts[0]
                if want and want != got:
                    yield ctx.violation(
                        arg,
                        self.code,
                        f"argument {index + 1} of '{candidates[0].name}' "
                        f"is '{pname}' ({want}) but a {got} value is "
                        "passed",
                    )
        for kw in call.keywords:
            if kw.arg is None:
                continue
            want = unit_of_name(kw.arg)
            if not want:
                continue
            got = infer_unit(kw.value, {})
            if got and got != want:
                yield ctx.violation(
                    kw.value,
                    self.code,
                    f"keyword '{kw.arg}' expects {want} but a {got} "
                    "value is passed",
                )


# =======================================================================
# SIM010 — disarmed-path proof
# =======================================================================

#: hook attributes whose *use* (attribute access through them) must be
#: dominated by an ``is not None`` guard in hot-path modules
_HOOK_ATTRS = frozenset(
    {"_faults", "audit", "health", "_fence", "_lease_epochs"}
)
_HOT_DIRS = frozenset({"ht", "noc", "rmc", "mem"})
_HOT_FILES = ("sim/engine.py", "sim/equeue.py")


def _is_hot_path(rel_path: str) -> bool:
    parts = rel_path.split("/")
    if any(p in _HOT_DIRS for p in parts[:-1]):
        return True
    return any(rel_path.endswith(f) for f in _HOT_FILES)


class NonNoneDomain(Domain):
    """Which hook expressions are proven non-None here.

    State is the set of :func:`~simcheck.dataflow.dump_key` keys known
    non-None; joins intersect (a fact must hold on *every* path),
    assignments kill (re-binding voids the proof), and branch atoms
    (`x is not None`, truthiness) generate facts on the refined edge.
    """

    def initial(self, fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> set:
        return set()

    def copy(self, state: set) -> set:
        return set(state)

    def join(self, a: set, b: set) -> set:
        return a & b

    def transfer(self, state: set, stmt: ast.stmt) -> None:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, LoopBind):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, (ast.Name, ast.Attribute, ast.Subscript)):
                    key = dump_key(node)
                    if key is None:
                        continue
                    state.difference_update(
                        {
                            k
                            for k in state
                            if k == key
                            or k.startswith(key + ".")
                            or k.startswith(key + "[")
                        }
                    )

    def refine_atom(self, state: set, expr: ast.expr, positive: bool) -> None:
        if isinstance(expr, ast.Compare) and len(expr.ops) == 1:
            op = expr.ops[0]
            left, right = expr.left, expr.comparators[0]
            if isinstance(right, ast.Constant) and right.value is None:
                subject = left
            elif isinstance(left, ast.Constant) and left.value is None:
                subject = right
            else:
                return
            key = dump_key(subject)
            if key is None:
                return
            is_none = isinstance(op, (ast.Is, ast.Eq))
            if is_none == positive:
                state.discard(key)  # proven None here
            else:
                state.add(key)
            return
        # truthiness of a bare chain: `if self._faults:` implies non-None
        if isinstance(expr, (ast.Name, ast.Attribute)):
            key = dump_key(expr)
            if key is not None:
                if positive:
                    state.add(key)
                else:
                    state.discard(key)


class SIM010DisarmedPathProof(Rule):
    """Zero-cost-when-disarmed, as a theorem instead of a diff.

    In the hot-path modules (``ht/``, ``noc/``, ``rmc/``, ``mem/``,
    ``sim/engine.py``, ``sim/equeue.py``), the fault/audit/health hook
    objects are ``None`` until armed (DESIGN §10/§12). Every attribute
    access *through* such a hook (``self._faults.scrub(...)``,
    ``self.sim.audit.record(...)``) must be dominated by an
    ``is not None`` guard on the identical expression, with no
    re-binding in between — checked by forward dataflow with branch
    refinement, which handles the repo's short-circuit idioms
    (``h is not None and h.f(...)``, ``h is None or not h.f(...)``).
    The dual obligation is checked too: hot-path constructors must
    *disarm* the hooks (``self._faults = None``) — arming is the fault
    layer's job (SIM007), and a hook armed at construction makes the
    "disarmed" configuration untestable. Tests are exempt (they arm
    hooks through fixtures).
    """

    code = "SIM010"
    title = "hot-path hook use not dominated by an `is not None` guard"

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.is_test or not _is_hot_path(ctx.rel_path):
            return
        yield from self._check_constructors(ctx)
        domain = NonNoneDomain()
        for fn in _iter_functions(ctx.tree):
            analysis = analyze(fn, domain)
            for stmt, state in analysis.statement_states():
                if isinstance(stmt, LoopBind):
                    continue
                for root in ast.iter_child_nodes(stmt):
                    if isinstance(root, ast.expr):
                        yield from self._scan(ctx, domain, root, state)

    def _check_constructors(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            init = next(
                (
                    s
                    for s in node.body
                    if isinstance(s, ast.FunctionDef) and s.name == "__init__"
                ),
                None,
            )
            if init is None:
                continue
            for stmt in _own_descendants(init):
                target = value = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    target, value = stmt.target, stmt.value
                if (
                    target is None
                    or not isinstance(target, ast.Attribute)
                    or target.attr not in _HOOK_ATTRS
                    or not isinstance(target.value, ast.Name)
                    or target.value.id != "self"
                ):
                    continue
                if not (
                    isinstance(value, ast.Constant) and value.value is None
                ):
                    yield ctx.violation(
                        target,
                        self.code,
                        f"hot-path hook 'self.{target.attr}' is not "
                        "disarmed at construction (initialize to None; "
                        "arming is the fault layer's job)",
                    )

    def _scan(
        self, ctx: FileContext, domain: NonNoneDomain, expr: ast.expr, state: set
    ) -> Iterator[Violation]:
        if isinstance(expr, ast.BoolOp):
            branch_state = domain.copy(state)
            assume = isinstance(expr.op, ast.And)
            for value in expr.values:
                yield from self._scan(ctx, domain, value, branch_state)
                apply_refinement(domain, branch_state, value, assume)
            return
        if isinstance(expr, ast.IfExp):
            yield from self._scan(ctx, domain, expr.test, state)
            then_state = domain.copy(state)
            apply_refinement(domain, then_state, expr.test, True)
            yield from self._scan(ctx, domain, expr.body, then_state)
            else_state = domain.copy(state)
            apply_refinement(domain, else_state, expr.test, False)
            yield from self._scan(ctx, domain, expr.orelse, else_state)
            return
        if isinstance(expr, (ast.Lambda,)):
            return
        if isinstance(expr, (ast.Attribute, ast.Subscript)):
            hook = expr.value
            if isinstance(hook, ast.Attribute) and hook.attr in _HOOK_ATTRS:
                key = dump_key(hook)
                if key is not None and key not in state:
                    yield ctx.violation(
                        expr,
                        self.code,
                        f"'{key}' used without a dominating "
                        "'is not None' guard — the disarmed hot path "
                        "must stay zero-cost (DESIGN §10/§12)",
                    )
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                yield from self._scan(ctx, domain, child, state)


# =======================================================================
# SIM011 — exception-flow audit
# =======================================================================

_FAILURE_ERRORS = ("RemoteAccessError", "RecoveryError")
_SANCTIONED_HANDLERS = (
    "cluster/health.py",
    "cluster/rebalance.py",
    "cluster/regions.py",
)
_BROAD_CATCHES = frozenset({"Exception", "BaseException"})


class SIM011ExceptionFlowAudit(Rule):
    """``RemoteAccessError`` propagates untouched to the recovery layer.

    From every raise site of a failure error in production code, the
    conservative may-call graph computes which functions' execution
    can surface it. Outside the sanctioned handler modules
    (``cluster/health.py``, ``cluster/rebalance.py``,
    ``cluster/regions.py``), an ``except`` clause that catches the
    error — by name, or broadly via ``Exception``/``BaseException``
    when its try-body can reach a raise site — and does not re-raise,
    swallows a machine-check-style failure mid-flight. SIM008 catches
    the empty-``pass`` spelling syntactically; this rule follows the
    call graph. Tests are exempt (they catch to assert on the
    structured fields).
    """

    code = "SIM011"
    title = "except clause can swallow RemoteAccessError before the recovery layer"

    def finalize(self, project: Project) -> Iterator[Violation]:
        symbols = project.symbols
        graph = project.callgraph
        raisers = {
            qual: node
            for qual, node in graph.functions_raising(
                *_FAILURE_ERRORS
            ).items()
            if not symbols.functions[qual].is_test_file
        }
        if not raisers:
            return
        reach = graph.can_reach(raisers)
        by_path = {ctx.rel_path: ctx for ctx in project.files}
        for info in symbols.functions.values():
            if info.is_test_file or info.rel_path.endswith(
                _SANCTIONED_HANDLERS
            ):
                continue
            ctx = by_path.get(info.rel_path)
            if ctx is None:
                continue
            for node in _own_descendants(info.node):
                if isinstance(node, ast.Try):
                    yield from self._check_try(ctx, graph, node, reach, raisers)

    def _check_try(
        self,
        ctx: FileContext,
        graph,
        stmt: ast.Try,
        reach: set,
        raisers: dict,
    ) -> Iterator[Violation]:
        risky = self._risky_call(graph, stmt, reach)
        for handler in stmt.handlers:
            caught = _caught_names(handler.type)
            explicit = caught & set(_FAILURE_ERRORS)
            broad = caught & _BROAD_CATCHES
            if not (explicit or broad):
                continue
            if any(isinstance(n, ast.Raise) for n in handler.body):
                # an *unconditional* top-level re-raise keeps the
                # failure loud; a raise buried under a condition can
                # still swallow it on the other branch
                continue
            if risky is None:
                continue  # no path from this try-body to a raise site
            error = sorted(explicit)[0] if explicit else "RemoteAccessError"
            how = (
                f"catches {sorted(caught)[0]}"
                if broad and not explicit
                else f"catches {error}"
            )
            yield ctx.violation(
                handler,
                self.code,
                f"{how} without re-raising, and the try-body can reach "
                f"a {error} raise site (e.g. via '{risky}') — only "
                "cluster/{health,rebalance,regions}.py may consume "
                "remote-failure errors",
            )

    def _risky_call(
        self, graph, stmt: ast.Try, reach: set
    ) -> Optional[str]:
        """Name of the first call (or raise) in the try-body that can
        surface a failure error, or None."""
        for node in stmt.body:
            for sub in [node, *_own_descendants(node)]:
                if isinstance(sub, ast.Raise) and sub.exc is not None:
                    exc = sub.exc
                    if isinstance(exc, ast.Call):
                        exc = exc.func
                    name = getattr(exc, "attr", None) or getattr(
                        exc, "id", None
                    )
                    if name in _FAILURE_ERRORS:
                        return f"raise {name}"
        by_node = {id(s.node): s for s in graph.sites}
        for node in stmt.body:
            for sub in [node, *_own_descendants(node)]:
                if not isinstance(sub, ast.Call):
                    continue
                # stepping a generator (the engine's process trampoline)
                # surfaces whatever the coroutine raised — any raiser in
                # the project may arrive here, invisibly to a name-based
                # call graph
                func = sub.func
                if (
                    isinstance(func, ast.Name) and func.id == "next"
                ) or (
                    isinstance(func, ast.Attribute) and func.attr == "throw"
                ):
                    return f"generator step '{ast.unparse(func)}'"
                site = by_node.get(id(sub))
                if site is None:
                    continue
                if any(c in reach for c in site.candidates):
                    return site.callee_name
        return None


def _caught_names(type_node: "ast.expr | None") -> set:
    if type_node is None:
        return set()
    if isinstance(type_node, ast.Tuple):
        names: set[str] = set()
        for elt in type_node.elts:
            names |= _caught_names(elt)
        return names
    if isinstance(type_node, ast.Attribute):
        return {type_node.attr}
    if isinstance(type_node, ast.Name):
        return {type_node.id}
    return set()


# =======================================================================
# SIM012 — state-machine conformance
# =======================================================================


class StateTable:
    """One extracted transition table (flat or event-keyed)."""

    def __init__(self, enum_name: str) -> None:
        self.enum_name = enum_name
        self.members: set[str] = set()
        #: flat edges (old, new); empty for event-keyed tables
        self.edges: set[tuple[str, str]] = set()
        #: event name -> set of (old, new) edges
        self.events: dict[str, set[tuple[str, str]]] = {}

    def scoped_edges(self, fn_name: str) -> set:
        if not self.events:
            return self.edges
        low = fn_name.lower()
        scoped = {
            event: edges
            for event, edges in self.events.items()
            if event.rsplit("_", 1)[-1] in low
        }
        chosen = scoped or self.events
        out: set[tuple[str, str]] = set()
        for edges in chosen.values():
            out |= edges
        return out


def _enum_ref(
    node: ast.AST, aliases: dict
) -> Optional[tuple[str, str]]:
    """``(EnumName, MEMBER)`` for an ``Enum.MEMBER`` reference, with
    module-level aliases (``_S = MESIState``) resolved."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        base = aliases.get(node.value.id, node.value.id)
        return base, node.attr
    return None


def _member_refs(node: ast.AST, aliases: dict) -> list:
    """Every enum-member reference in a tuple/list/set/frozenset()."""
    if isinstance(node, ast.Call):
        name = node.func.id if isinstance(node.func, ast.Name) else None
        if name in ("frozenset", "set", "tuple", "list") and node.args:
            return _member_refs(node.args[0], aliases)
        return []
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        out = []
        for elt in node.elts:
            ref = _enum_ref(elt, aliases)
            if ref is not None:
                out.append(ref)
        return out
    ref = _enum_ref(node, aliases)
    return [ref] if ref is not None else []


class EnumStateDomain(Domain):
    """Possible current states per tracked expression.

    State is ``(values, aliases)``: ``values`` maps a structural key
    (a variable, or a container subscript like ``sharers[i]``) to the
    set of members it may currently hold; ``aliases`` remembers that a
    variable was bound from a container entry (``st`` from
    ``sharers.items()``, ``state = sharers.get(cache_idx, ...)``), so
    a later store to that entry can consult the variable's refined
    set. Joins union the possible sets and drop disagreeing aliases.
    """

    def __init__(self, tables: dict, aliases: dict) -> None:
        self.tables = tables
        self.module_aliases = aliases

    def initial(self, fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> tuple:
        return ({}, {})

    def copy(self, state: tuple) -> tuple:
        values, aliases = state
        return (
            {k: set(v) for k, v in values.items()},
            dict(aliases),
        )

    def join(self, a: tuple, b: tuple) -> tuple:
        values_a, aliases_a = a
        values_b, aliases_b = b
        values = {
            k: values_a[k] | values_b[k]
            for k in values_a.keys() & values_b.keys()
        }
        aliases = {
            k: aliases_a[k]
            for k in aliases_a.keys() & aliases_b.keys()
            if aliases_a[k] == aliases_b[k]
        }
        return (values, aliases)

    def equal(self, a: tuple, b: tuple) -> bool:
        return a == b

    # -- transfer ---------------------------------------------------------
    def transfer(self, state: tuple, stmt: ast.stmt) -> None:
        values, aliases = state
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            self._assign(values, aliases, stmt.targets[0], stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign(values, aliases, stmt.target, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            key = dump_key(stmt.target)
            if key is not None:
                values.pop(key, None)
                aliases.pop(key, None)
        elif isinstance(stmt, LoopBind):
            self._loop_bind(values, aliases, stmt)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                key = dump_key(target)
                if key is not None:
                    values.pop(key, None)

    def _assign(
        self,
        values: dict,
        aliases: dict,
        target: ast.expr,
        value: ast.expr,
    ) -> None:
        key = dump_key(target)
        if key is None:
            if isinstance(target, ast.Tuple):
                for elt in target.elts:
                    k = dump_key(elt)
                    if k is not None:
                        values.pop(k, None)
                        aliases.pop(k, None)
            return
        ref = _enum_ref(value, self.module_aliases)
        if ref is not None and ref[0] in self.tables:
            values[key] = {ref[1]}
            aliases.pop(key, None)
            return
        container_key = self._container_load_key(value)
        if container_key is not None and isinstance(target, ast.Name):
            aliases[key] = container_key
            if container_key in values:
                values[key] = set(values[container_key])
            else:
                values.pop(key, None)
            return
        values.pop(key, None)
        aliases.pop(key, None)

    @staticmethod
    def _container_load_key(value: ast.expr) -> Optional[str]:
        """Key of the entry a load expression reads: ``c[k]`` or
        ``c.get(k, ...)``."""
        if isinstance(value, ast.Subscript):
            return dump_key(value)
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "get"
            and value.args
        ):
            base = dump_key(value.func.value)
            index = dump_key(value.args[0])
            if base is not None and index is not None:
                return f"{base}[{index}]"
        return None

    def _loop_bind(
        self, values: dict, aliases: dict, stmt: LoopBind
    ) -> None:
        target, source = stmt.target, stmt.iter
        # unwrap list(...)/sorted(...) around .items()
        while (
            isinstance(source, ast.Call)
            and isinstance(source.func, ast.Name)
            and source.func.id in ("list", "sorted", "tuple")
            and source.args
        ):
            source = source.args[0]
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                values.pop(node.id, None)
                aliases.pop(node.id, None)
        if (
            isinstance(source, ast.Call)
            and isinstance(source.func, ast.Attribute)
            and source.func.attr == "items"
            and isinstance(target, ast.Tuple)
            and len(target.elts) == 2
            and all(isinstance(e, ast.Name) for e in target.elts)
        ):
            container = dump_key(source.func.value)
            key_var, value_var = target.elts
            if container is not None:
                aliases[value_var.id] = f"{container}[{key_var.id}]"

    # -- refinement -------------------------------------------------------
    def refine_atom(self, state: tuple, expr: ast.expr, positive: bool) -> None:
        if not isinstance(expr, ast.Compare) or len(expr.ops) != 1:
            return
        values, _aliases = state
        op = expr.ops[0]
        subject = dump_key(expr.left)
        if subject is None:
            return
        comparator = expr.comparators[0]
        if isinstance(op, (ast.Is, ast.Eq, ast.IsNot, ast.NotEq)):
            ref = _enum_ref(comparator, self.module_aliases)
            if ref is None or ref[0] not in self.tables:
                return
            members = self.tables[ref[0]].members
            equal = isinstance(op, (ast.Is, ast.Eq)) is positive
            current = values.get(subject, set(members))
            if equal:
                values[subject] = current & {ref[1]}
            else:
                values[subject] = current - {ref[1]}
        elif isinstance(op, (ast.In, ast.NotIn)):
            refs = _member_refs(comparator, self.module_aliases)
            if not refs or refs[0][0] not in self.tables:
                return
            members = self.tables[refs[0][0]].members
            wanted = {m for _, m in refs}
            inside = isinstance(op, ast.In) is positive
            current = values.get(subject, set(members))
            values[subject] = (
                current & wanted if inside else current - wanted
            )


class SIM012StateMachineConformance(Rule):
    """Every literal state store is a legal edge of its machine.

    The lease table (``_TRANSITIONS`` in ``cluster/reservation.py``)
    and the event-keyed MESI table (``_LEGAL_TRANSITIONS`` in
    ``mem/coherence.py``) are extracted from wherever the scan finds
    them. For each store of a literal member into a tracked container
    (``self.leases[reservation] = LeaseState.X``,
    ``sharers[i] = MESIState.Y``), the dataflow domain computes the
    provable set of source states (from dominating guards like
    ``if st is MESIState.MODIFIED:`` and bindings like
    ``state = sharers.get(cache_idx, ...)``); the store must be a
    legal edge from *every* proven source. MESI edges are scoped to
    the events matching the enclosing function's name (``read`` →
    ``local_read``/``peer_read``). A store whose source state cannot
    be proven at all is flagged too: route it through the checked
    transition helper, or pragma it with the reason the source is
    unprovable. Tests are exempt (they forge illegal states to
    exercise the runtime sanitizer).
    """

    code = "SIM012"
    title = "state store is not a provably legal transition-table edge"

    _TABLE_NAMES = ("_TRANSITIONS", "_LEGAL_TRANSITIONS")

    def finalize(self, project: Project) -> Iterator[Violation]:
        tables: dict[str, StateTable] = {}
        for ctx in project.src_files:
            self._extract_tables(ctx, project, tables)
        if not tables:
            return
        for ctx in project.src_files:
            yield from self._check_file(ctx, project, tables)

    # -- table extraction -------------------------------------------------
    def _extract_tables(
        self, ctx: FileContext, project: Project, tables: dict
    ) -> None:
        aliases = self._module_aliases(ctx, project)
        consts = project.symbols.module_constants.get(ctx.rel_path, {})
        for name in self._TABLE_NAMES:
            value = consts.get(name)
            if not isinstance(value, ast.Dict):
                continue
            self._extract_one(value, aliases, tables)
        # enum member universes from the class bodies, when present
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and node.name in tables:
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign):
                        for target in stmt.targets:
                            if isinstance(target, ast.Name):
                                tables[node.name].members.add(target.id)

    def _module_aliases(self, ctx: FileContext, project: Project) -> dict:
        consts = project.symbols.module_constants.get(ctx.rel_path, {})
        return {
            name: value.id
            for name, value in consts.items()
            if isinstance(value, ast.Name)
        }

    def _extract_one(
        self, table: ast.Dict, aliases: dict, tables: dict
    ) -> None:
        for key, value in zip(table.keys, table.values):
            if key is None:
                continue
            key_ref = _enum_ref(key, aliases)
            if key_ref is not None:
                # flat: Enum.OLD -> collection of Enum.NEW
                enum_name, old = key_ref
                entry = tables.setdefault(enum_name, StateTable(enum_name))
                entry.members.add(old)
                for _, new in _member_refs(value, aliases):
                    entry.members.add(new)
                    entry.edges.add((old, new))
            elif isinstance(key, ast.Constant) and isinstance(
                key.value, str
            ) and isinstance(value, ast.Dict):
                # event-keyed: "event" -> {Enum.OLD: {Enum.NEW, ...}}
                event = key.value
                for old_node, new_node in zip(value.keys, value.values):
                    if old_node is None:
                        continue
                    old_ref = _enum_ref(old_node, aliases)
                    if old_ref is None:
                        continue
                    enum_name, old = old_ref
                    entry = tables.setdefault(
                        enum_name, StateTable(enum_name)
                    )
                    entry.members.add(old)
                    edges = entry.events.setdefault(event, set())
                    for _, new in _member_refs(new_node, aliases):
                        entry.members.add(new)
                        edges.add((old, new))

    # -- store checking ---------------------------------------------------
    def _check_file(
        self, ctx: FileContext, project: Project, tables: dict
    ) -> Iterator[Violation]:
        source = ctx.source
        wanted = False
        for table in tables.values():
            if table.enum_name in source:
                wanted = True
        aliases = self._module_aliases(ctx, project)
        for alias, target in aliases.items():
            if target in tables and alias in source:
                wanted = True
        if not wanted:
            return
        domain = EnumStateDomain(tables, aliases)
        for fn in _iter_functions(ctx.tree):
            analysis = analyze(fn, domain)
            for stmt, state in analysis.statement_states():
                yield from self._check_store(
                    ctx, fn, domain, tables, stmt, state
                )

    def _check_store(
        self,
        ctx: FileContext,
        fn: "ast.FunctionDef | ast.AsyncFunctionDef",
        domain: EnumStateDomain,
        tables: dict,
        stmt: ast.stmt,
        state: tuple,
    ) -> Iterator[Violation]:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            return
        target = stmt.targets[0]
        if not isinstance(target, (ast.Subscript, ast.Attribute)):
            return
        ref = _enum_ref(stmt.value, domain.module_aliases)
        if ref is None or ref[0] not in tables:
            return
        enum_name, new = ref
        table = tables[enum_name]
        key = dump_key(target)
        values, aliases = state
        old_set: Optional[set] = None
        if key is not None:
            if key in values:
                old_set = set(values[key])
            else:
                for var, container_key in aliases.items():
                    if container_key == key and var in values:
                        narrowed = set(values[var])
                        old_set = (
                            narrowed
                            if old_set is None
                            else old_set & narrowed
                        )
        edges = table.scoped_edges(fn.name)
        if old_set is None or old_set >= table.members:
            yield ctx.violation(
                target,
                self.code,
                f"store of {enum_name}.{new} with statically unknown "
                "source state — prove the source with a dominating "
                "guard/binding, or route through the checked "
                "transition helper",
            )
            return
        for old in sorted(old_set):
            if (old, new) not in edges:
                yield ctx.violation(
                    target,
                    self.code,
                    f"illegal {enum_name} transition {old} -> {new} "
                    "(not an edge of the extracted transition table "
                    f"for this context)",
                )
