"""Unit tests for the flow-analysis framework under the SIM009–012
rules: symbol table, call graph, unit lattice, CFG/dominators and guard
dataflow."""

from __future__ import annotations

import ast

from simcheck.callgraph import CallGraph
from simcheck.dataflow import analyze, build_cfg, dump_key
from simcheck.engine import FileContext
from simcheck.flowrules import (
    NonNoneDomain,
    infer_unit,
    join_units,
    rate_of_name,
    unit_of_name,
)
from simcheck.symbols import SymbolTable


def _ctx(rel, source):
    return FileContext(path=rel, rel_path=rel, source=source)


# -- symbol table --------------------------------------------------------

_PKG = _ctx(
    "pkg/core.py",
    (
        "LIMIT = 7\n"
        "class Base:\n"
        "    def shared(self):\n"
        "        return 1\n"
        "class Impl(Base):\n"
        "    def __init__(self, size):\n"
        "        self.size = size\n"
        "    def run(self, ticks):\n"
        "        return self.shared() + ticks\n"
        "def helper(x):\n"
        "    return Impl(x).run(0)\n"
    ),
)


def test_symbol_table_indexes_defs_and_constants():
    table = SymbolTable.build([_PKG])
    assert "pkg/core.py::helper" in table.functions
    run = table.functions["pkg/core.py::Impl.run"]
    assert run.params == ("self", "ticks")
    assert run.call_params == ("ticks",)
    assert table.module_constants["pkg/core.py"]["LIMIT"].value == 7


def test_symbol_table_resolves_methods_through_bases():
    table = SymbolTable.build([_PKG])
    hits = table.class_method("Impl", "shared")
    assert [h.qualname for h in hits] == ["pkg/core.py::Base.shared"]
    assert table.class_method("Impl", "missing") == []


# -- call graph ----------------------------------------------------------

def test_callgraph_resolves_self_calls_and_constructors():
    table = SymbolTable.build([_PKG])
    graph = CallGraph(table)
    assert "pkg/core.py::Base.shared" in graph.edges["pkg/core.py::Impl.run"]
    helper_edges = graph.edges["pkg/core.py::helper"]
    assert "pkg/core.py::Impl.__init__" in helper_edges


def test_callgraph_raisers_and_transitive_reachability():
    ctx = _ctx(
        "pkg/chain.py",
        (
            "class RemoteAccessError(Exception):\n"
            "    pass\n"
            "def leaf():\n"
            "    raise RemoteAccessError('nack')\n"
            "def mid():\n"
            "    return leaf()\n"
            "def top():\n"
            "    return mid()\n"
            "def bystander():\n"
            "    return 0\n"
        ),
    )
    graph = CallGraph(SymbolTable.build([ctx]))
    raisers = graph.functions_raising("RemoteAccessError")
    assert set(raisers) == {"pkg/chain.py::leaf"}
    reach = graph.can_reach(raisers)
    assert "pkg/chain.py::top" in reach
    assert "pkg/chain.py::bystander" not in reach


# -- unit lattice --------------------------------------------------------

def test_unit_lattice_names_and_joins():
    assert unit_of_name("delay_ns") == "ns"
    assert unit_of_name("page_bytes") == "bytes"
    assert unit_of_name("bytes_per_ns") is None  # a rate, not a time
    assert rate_of_name("bytes_per_ns") == ("bytes", "ns")
    assert rate_of_name("delay_ns") is None
    assert join_units("ns", "ns") == "ns"
    assert join_units("ns", "bytes") is None
    assert join_units("ns", None) is None


def test_infer_unit_through_transparent_calls_and_rates():
    state = {"staged": "bytes"}

    def infer(src):
        return infer_unit(ast.parse(src, mode="eval").body, state)

    assert infer("min(a_ns, b_ns)") == "ns"
    assert infer("staged") == "bytes"
    assert infer("staged / bytes_per_ns") == "ns"
    assert infer("a_ns * k") == "ns"
    assert infer("a_ns * b_ns") is None  # ns*ns is not a time


# -- CFG and dominators --------------------------------------------------

def _fn(src):
    return ast.parse(src).body[0]


def test_cfg_dominators_on_a_diamond():
    cfg = build_cfg(
        _fn(
            "def f(x):\n"
            "    if x:\n"
            "        a = 1\n"
            "    else:\n"
            "        a = 2\n"
            "    return a\n"
        )
    )
    dom = cfg.dominators()
    blocks = {
        stmt.__class__.__name__: b.idx
        for b in cfg.blocks
        for stmt in b.stmts
    }
    ret = blocks["Return"]
    branch_blocks = [
        b.idx
        for b in cfg.blocks
        for stmt in b.stmts
        if isinstance(stmt, ast.Assign)
    ]
    assert cfg.entry in dom[ret]
    for idx in branch_blocks:
        assert idx not in dom[ret]  # neither arm dominates the join


def test_guard_dataflow_facts_hold_only_under_the_guard():
    fn = _fn(
        "def step(self, pkt):\n"
        "    if self._faults is not None:\n"
        "        self._faults.drop(pkt)\n"
        "    self._faults.scrub(pkt)\n"
    )
    analysis = analyze(fn, NonNoneDomain())
    states = {}
    for stmt, state in analysis.statement_states():
        if isinstance(stmt, ast.Expr):
            call = stmt.value
            states[call.func.attr] = set(state)
    assert "self._faults" in states["drop"]
    assert "self._faults" not in states["scrub"]


def test_guard_dataflow_assignment_kills_the_fact():
    fn = _fn(
        "def step(self, pkt):\n"
        "    if self._faults is not None:\n"
        "        self._faults = None\n"
        "        self._faults.drop(pkt)\n"
    )
    analysis = analyze(fn, NonNoneDomain())
    for stmt, state in analysis.statement_states():
        if isinstance(stmt, ast.Expr):
            assert "self._faults" not in state


def test_dump_key_covers_lvalue_chains_only():
    def key(src):
        return dump_key(ast.parse(src, mode="eval").body)

    assert key("self._faults") == "self._faults"
    assert key("sharers[i]") == "sharers[i]"
    assert key("table['peer_read']") == "table['peer_read']"
    assert key("f(x).attr") is None
    assert key("a + b") is None

