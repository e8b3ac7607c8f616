"""simcheck self-tests: every rule has a good/bad fixture pair, the
pragma machinery suppresses (and counts), the text reporter names each
location, and the CLI exit codes hold.

Fixtures are synthetic files written under ``tmp_path`` so each rule is
exercised in isolation; ``root=tmp_path`` makes the allow-list suffix
matching (e.g. ``sim/engine.py``) behave exactly as in the real tree.
"""

from __future__ import annotations

import pytest

from simcheck.engine import check_paths
from simcheck.reporters import render_text
from simcheck.rules import ALL_RULES, rule_catalogue
from simcheck.__main__ import main as simcheck_main


def _write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def _codes(tmp_path, files, rules=None):
    """Scan *files* ({rel: source}); return the violation codes found."""
    paths = [_write(tmp_path, rel, src) for rel, src in files.items()]
    active = [cls() for cls in (rules or ALL_RULES)]
    _, violations = check_paths(paths, rules=active, root=tmp_path)
    return [v.code for v in violations]


# -- SIM001: engine internals --------------------------------------------

def test_sim001_flags_heap_and_clock_access(tmp_path):
    src = "def rewind(sim):\n    sim._now = 0.0\n    sim._heap.clear()\n"
    assert _codes(tmp_path, {"pkg/hack.py": src}) == ["SIM001", "SIM001"]


def test_sim001_allows_the_engine_itself(tmp_path):
    src = "class Simulator:\n    def reset(self):\n        self._now = 0.0\n"
    assert _codes(tmp_path, {"sim/engine.py": src}) == []


def test_sim001_flags_ready_lane_and_queue_object(tmp_path):
    # the bucketed-queue internals are engine state like _heap/_now
    src = (
        "def drain(sim):\n"
        "    sim._ready.clear()\n"
        "    sim._equeue.pop()\n"
    )
    assert _codes(tmp_path, {"pkg/hack.py": src}) == ["SIM001", "SIM001"]


def test_sim001_allows_the_queue_module(tmp_path):
    src = (
        "class BucketEventQueue:\n"
        "    def clear(self):\n"
        "        self.ready.clear()\n"
        "def reset(q):\n"
        "    q._ready = []\n"
    )
    assert _codes(tmp_path, {"sim/equeue.py": src}) == []


def test_sim001_flags_clock_writes(tmp_path):
    # the clock is a plain attribute: every form of store or del counts
    src = (
        "def rewind(sim, other):\n"
        "    sim.now = 0.0\n"
        "    sim.now += 5.0\n"
        "    other.sim.now: float = 1.0\n"
        "    sim.now, x = 2.0, 3\n"
        "    for sim.now in (4.0,):\n"
        "        pass\n"
        "    del sim.now\n"
    )
    assert _codes(tmp_path, {"pkg/hack.py": src}) == ["SIM001"] * 6


def test_sim001_allows_clock_reads_and_engine_writes(tmp_path):
    reads = (
        "def stamp(sim, out):\n"
        "    out.append(sim.now)\n"
        "    start = sim.now + 1.0\n"
        "    return max(start, sim.now)\n"
    )
    assert _codes(tmp_path, {"pkg/ok.py": reads}) == []
    engine = (
        "class Simulator:\n"
        "    def step(self, when):\n"
        "        self.now = when\n"
    )
    assert _codes(tmp_path, {"sim/engine.py": engine}) == []


def test_sim001_flags_callback_list_writes(tmp_path):
    # how an event holds its waiters is private to the engine
    src = (
        "def hijack(evt, cb):\n"
        "    evt.callbacks = [cb]\n"
        "    evt.callbacks += [cb]\n"
        "    del evt.callbacks\n"
    )
    assert _codes(tmp_path, {"pkg/hack.py": src}) == ["SIM001"] * 3
    assert _codes(tmp_path, {"sim/equeue.py": src}) == ["SIM001"] * 3


def test_sim001_allows_callback_registration_and_engine_writes(tmp_path):
    ok = (
        "def watch(evt, cb):\n"
        "    evt.add_callback(cb)\n"
        "    return evt.callbacks is None\n"
    )
    assert _codes(tmp_path, {"pkg/ok.py": ok}) == []
    engine = (
        "class Event:\n"
        "    def _fire(self):\n"
        "        self.callbacks = None\n"
    )
    assert _codes(tmp_path, {"sim/engine.py": engine}) == []


# -- SIM002: timed cost via Simulator.timeout ----------------------------

def test_sim002_flags_schedule_timeout_and_heapq(tmp_path):
    src = (
        "import heapq\n"
        "def cheat(sim, evt, heap):\n"
        "    sim._schedule(evt, 1.0)\n"
        "    Timeout(sim, 5.0)\n"
        "    heapq.heappush(heap, evt)\n"
    )
    codes = _codes(tmp_path, {"pkg/cheat.py": src})
    assert codes.count("SIM002") == 3


def test_sim002_allows_sim_timeout(tmp_path):
    src = "def charge(sim):\n    yield sim.timeout(5.0)\n"
    assert "SIM002" not in _codes(tmp_path, {"pkg/ok.py": src})


def test_sim002_allows_heapq_in_the_queue_module(tmp_path):
    # sim/equeue.py is engine-internal: it owns the heap operations
    src = (
        "from heapq import heappop, heappush\n"
        "def push(heap, entry):\n"
        "    heappush(heap, entry)\n"
        "def pop(heap):\n"
        "    return heappop(heap)\n"
    )
    assert "SIM002" not in _codes(tmp_path, {"sim/equeue.py": src})


# -- SIM003: float-literal drift on *_ns ---------------------------------

def test_sim003_flags_float_literal_on_ns_value(tmp_path):
    src = "def pad(cost_ns):\n    return cost_ns * 1.5\n"
    assert _codes(tmp_path, {"pkg/drift.py": src}) == ["SIM003"]


def test_sim003_flags_augassign(tmp_path):
    src = "def pad(total_ns):\n    total_ns *= 0.5\n    return total_ns\n"
    assert _codes(tmp_path, {"pkg/drift2.py": src}) == ["SIM003"]


def test_sim003_allows_ratio_comparisons_and_the_units_layer(tmp_path):
    # comparisons are dimensionless ratios, the sanctioned test idiom
    ratio = "def check(a_ns, b_ns):\n    assert a_ns / b_ns > 1.5\n"
    units = "def ms(t_ns):\n    return t_ns / 1e6\n"
    assert "SIM003" not in _codes(tmp_path, {"pkg/ratio.py": ratio})
    assert "SIM003" not in _codes(tmp_path, {"units.py": units})


# -- SIM004: packet factories --------------------------------------------

def test_sim004_flags_direct_packet_construction(tmp_path):
    src = (
        "from repro.ht.packet import Packet, PacketType\n"
        "def forge():\n"
        "    return Packet(PacketType.READ_REQ, 1, 2, 0, 64, 1)\n"
    )
    assert _codes(tmp_path, {"pkg/forge.py": src}) == ["SIM004"]


def test_sim004_allows_factories_and_tests(tmp_path):
    factory = "def build():\n    return make_read_req(1, 2, 0, 64, 1)\n"
    in_test = "def test_forge():\n    Packet(None, 1, 2, 0, 64, 1)\n"
    assert "SIM004" not in _codes(tmp_path, {"pkg/build.py": factory})
    # tests may construct malformed packets to exercise the validators
    assert "SIM004" not in _codes(tmp_path, {"tests/test_pkt.py": in_test})


# -- SIM005: batch twin coverage -----------------------------------------

_ACCESSOR = (
    "class Core:\n"
    "    def cached_read(self, addr, size, batch=True):\n"
    "        return b''\n"
)


def test_sim005_flags_unreferenced_twin(tmp_path):
    test = "def test_something_else():\n    assert True\n"
    codes = _codes(
        tmp_path, {"src/core.py": _ACCESSOR, "tests/test_x.py": test}
    )
    assert codes == ["SIM005"]


def test_sim005_satisfied_by_batch_false_call(tmp_path):
    test = (
        "def test_twin(core):\n"
        "    core.cached_read(0, 64, batch=False)\n"
    )
    codes = _codes(
        tmp_path, {"src/core.py": _ACCESSOR, "tests/test_x.py": test}
    )
    assert codes == []


def test_sim005_satisfied_by_looped_batch_variable(tmp_path):
    test = (
        "def test_twin(core):\n"
        "    for batch in (True, False):\n"
        "        core.cached_read(0, 64, batch=batch)\n"
    )
    codes = _codes(
        tmp_path, {"src/core.py": _ACCESSOR, "tests/test_x.py": test}
    )
    assert codes == []


def test_sim005_vacuous_without_test_files(tmp_path):
    # `python -m simcheck src` must not fail on twin coverage alone
    assert _codes(tmp_path, {"src/core.py": _ACCESSOR}) == []


def test_sim005_covers_columnar_accessor_pairs(tmp_path):
    """The scan reaches the columnar plane's accessor pairs: every
    view/window accessor defaulting batch=True needs a scalar-twin
    call, and one covering call per *name* clears all same-named
    defs across classes (Session.view_array + accessor adapters)."""
    src = (
        "class Session:\n"
        "    def view_array(self, vaddr, count, dtype, batch=True):\n"
        "        return None\n"
        "    def column_windows(self, vaddr, count, dtype, batch=True):\n"
        "        yield 0, None\n"
        "class SessionAccessor:\n"
        "    def view_array(self, addr, count, dtype, batch=True):\n"
        "        return None\n"
    )
    bare = "def test_nothing():\n    assert True\n"
    codes = _codes(
        tmp_path, {"src/api.py": src, "tests/test_x.py": bare}
    )
    assert codes == ["SIM005", "SIM005", "SIM005"]
    covering = (
        "def test_twins(app):\n"
        "    app.view_array(0, 8, 'uint64', batch=False)\n"
        "    list(app.column_windows(0, 8, 'uint64', batch=False))\n"
    )
    codes = _codes(
        tmp_path, {"src/api.py": src, "tests/test_x.py": covering}
    )
    assert codes == []


_CONSTRUCTOR = (
    "class Cluster:\n"
    "    def __init__(self, config=None, *, batch=True):\n"
    "        self.batch = batch\n"
)


def test_sim005_flags_constructor_without_scalar_twin(tmp_path):
    """A class whose ``__init__`` defaults batch=True is reported under
    the class name when no test builds it with batch=False."""
    test = "def test_default(cfg):\n    Cluster(cfg)\n"
    paths = [
        _write(tmp_path, "src/cluster.py", _CONSTRUCTOR),
        _write(tmp_path, "tests/test_x.py", test),
    ]
    _, violations = check_paths(paths, root=tmp_path)
    assert [v.code for v in violations] == ["SIM005"]
    assert "constructor 'Cluster'" in violations[0].message


def test_sim005_satisfied_by_scalar_constructor(tmp_path):
    test = (
        "def test_twins(cfg):\n"
        "    for batch in (True, False):\n"
        "        Cluster(cfg, batch=batch)\n"
    )
    codes = _codes(
        tmp_path, {"src/cluster.py": _CONSTRUCTOR, "tests/test_x.py": test}
    )
    assert codes == []


# -- SIM006: determinism hazards -----------------------------------------

@pytest.mark.parametrize(
    "source",
    [
        "from random import choice\n",
        "import time\ndef wall():\n    return time.time()\n",
        "import random\ndef roll():\n    return random.randrange(6)\n",
        "import random\ndef make():\n    return random.Random()\n",
        "def spin(items):\n    for x in set(items):\n        print(x)\n",
        "def bad(acc=[]):\n    return acc\n",
        "def eat():\n    try:\n        pass\n    except:\n        pass\n",
    ],
    ids=[
        "from-random",
        "wall-clock",
        "global-random",
        "unseeded-Random",
        "set-iteration",
        "mutable-default",
        "bare-except",
    ],
)
def test_sim006_flags_hazards(tmp_path, source):
    assert "SIM006" in _codes(tmp_path, {"pkg/hazard.py": source})


@pytest.mark.parametrize(
    "source",
    [
        "import random\ndef make(seed):\n    return random.Random(seed)\n",
        "import numpy as np\ndef make():\n    return np.random.default_rng(0)\n",
        "def spin(items):\n    for x in sorted(set(items)):\n        print(x)\n",
    ],
    ids=["seeded-Random", "default-rng", "sorted-set"],
)
def test_sim006_allows_sanctioned_idioms(tmp_path, source):
    assert "SIM006" not in _codes(tmp_path, {"pkg/fine.py": source})


def test_sim006_allows_the_rng_module(tmp_path):
    src = "import random\ndef stream():\n    return random.getstate()\n"
    assert "SIM006" not in _codes(tmp_path, {"sim/rng.py": src})


# -- SIM007: fault-injection layer ----------------------------------------

def test_sim007_flags_arming_and_packet_damage(tmp_path):
    src = (
        "def cheat(rmc, packet, injector):\n"
        "    rmc._faults = injector\n"
        "    packet.meta['corrupt'] = True\n"
        "    packet.meta[CORRUPT_KEY] = True\n"
    )
    codes = _codes(tmp_path, {"pkg/cheat.py": src})
    assert codes.count("SIM007") == 3


def test_sim007_applies_to_tests_too(tmp_path):
    src = (
        "def test_cheat(rmc, injector):\n"
        "    rmc._faults = injector\n"
    )
    assert "SIM007" in _codes(tmp_path, {"tests/test_cheat.py": src})


def test_sim007_allows_hook_init_and_the_fault_layer(tmp_path):
    init = "class Link:\n    def __init__(self):\n        self._faults = None\n"
    layer = (
        "def arm(link, inj, packet):\n"
        "    link._faults = inj\n"
        "    packet.meta[CORRUPT_KEY] = True\n"
    )
    assert "SIM007" not in _codes(tmp_path, {"pkg/link.py": init})
    assert "SIM007" not in _codes(tmp_path, {"sim/faults.py": layer})


# -- SIM008: recovery discipline ------------------------------------------

def test_sim008_flags_swallowed_remote_access_error(tmp_path):
    src = (
        "def quiet(app, ptr):\n"
        "    try:\n"
        "        app.read(ptr, 64)\n"
        "    except RemoteAccessError:\n"
        "        pass\n"
    )
    assert _codes(tmp_path, {"pkg/quiet.py": src}) == ["SIM008"]


def test_sim008_flags_swallow_in_tuple_and_ellipsis_body(tmp_path):
    src = (
        "def quiet(op):\n"
        "    try:\n"
        "        op()\n"
        "    except (ValueError, RecoveryError):\n"
        "        ...\n"
    )
    assert _codes(tmp_path, {"pkg/quiet2.py": src}) == ["SIM008"]


def test_sim008_allows_handlers_that_react(tmp_path):
    src = (
        "def degrade(app, ptr, log):\n"
        "    try:\n"
        "        return app.read(ptr, 64)\n"
        "    except RemoteAccessError as exc:\n"
        "        log.append(exc.node)\n"
        "        raise\n"
    )
    assert _codes(tmp_path, {"pkg/ok.py": src}) == []


def test_sim008_flags_recovery_action_outside_layer(tmp_path):
    src = (
        "def shortcut(aspace, regions):\n"
        "    aspace.repoint_page(0, 4096)\n"
        "    regions.record_damage(1, 0, 2)\n"
    )
    codes = _codes(tmp_path, {"pkg/shortcut.py": src})
    assert codes.count("SIM008") == 2


def test_sim008_flags_lease_retirement_outside_layer(tmp_path):
    src = (
        "def drop(sess, res):\n"
        "    sess.allocator.retire_reservation(res)\n"
    )
    assert _codes(tmp_path, {"cluster/cluster.py": src}) == ["SIM008"]
    assert "SIM008" not in _codes(tmp_path, {"cluster/health.py": src})


def test_sim008_allows_recovery_layer_and_tests(tmp_path):
    src = (
        "def heal(aspace, cluster):\n"
        "    res = yield from re_reserve(cluster, 1, 4096)\n"
        "    aspace.repoint_page(0, 4096)\n"
    )
    assert "SIM008" not in _codes(tmp_path, {"cluster/rebalance.py": src})
    # tests exercise the mechanics directly: layering exempt there
    assert "SIM008" not in _codes(tmp_path, {"tests/test_heal.py": src})
    # ...but swallowing the error is never fine, even in a test
    swallow = (
        "def test_quiet(app):\n"
        "    try:\n"
        "        app.read(0, 64)\n"
        "    except RemoteAccessError:\n"
        "        pass\n"
    )
    assert "SIM008" in _codes(tmp_path, {"tests/test_quiet.py": swallow})


def test_sim008_flags_request_ack_pairing_outside_oslite(tmp_path):
    src = (
        "def probe(node, peer, sim):\n"
        "    tag = node.rmc.tags.next()\n"
        "    evt = node.os._expect(tag)\n"
        "    yield node.rmc.send_ctrl(peer, tag=tag, kind='probe')\n"
        "    yield sim.any_of([evt, sim.timeout(10)])\n"
        "    node.os._abandon(tag)\n"
        "    node.os._orphaned.discard(tag)\n"
        "    node.os._pending_acks[tag] = evt\n"
        "    del node.os._pending_acks[tag]\n"
    )
    codes = _codes(tmp_path, {"cluster/health.py": src})
    assert codes.count("SIM008") == 5
    # a test may poke the tag guards, but never rewrite the tables
    poke = (
        "def test_dup(os1):\n"
        "    os1._expect(5)\n"
        "    os1._pending_acks.clear()\n"
    )
    assert _codes(tmp_path, {"tests/test_dup.py": poke}) == ["SIM008"]


def test_sim008_allows_oslite_pairing_and_reads(tmp_path):
    oslite = (
        "class OSLite:\n"
        "    def _abandon(self, tag):\n"
        "        if self._pending_acks.pop(tag, None) is not None:\n"
        "            self._orphaned.add(tag)\n"
        "    def ask(self, dst, tag):\n"
        "        evt = self._expect(tag)\n"
        "        self._abandon(tag)\n"
    )
    assert "SIM008" not in _codes(tmp_path, {"cluster/oslite.py": oslite})
    reads = (
        "def probe(node, peer):\n"
        "    ack = yield from node.os.ask(peer, 10, kind='probe', seq=1)\n"
        "    assert node.os._pending_acks == {}\n"
        "    return ack, len(node.os._orphaned)\n"
    )
    assert "SIM008" not in _codes(tmp_path, {"cluster/health.py": reads})
    assert "SIM008" not in _codes(tmp_path, {"tests/test_leaks.py": reads})


def test_sim008_flags_membership_write_outside_health(tmp_path):
    src = (
        "def shortcut(cluster, members):\n"
        "    cluster.membership.declare(4)\n"
        "    members.readmit(4)\n"
        "    cluster.membership._records[4] = ('alive', 1)\n"
        "    cluster.membership._records.pop(4)\n"
    )
    codes = _codes(tmp_path, {"benchmarks/soak.py": src})
    assert codes.count("SIM008") == 4
    # tests read the record; they never move a node's state
    poke = (
        "def test_force(cluster):\n"
        "    cluster.membership.revoke(2)\n"
    )
    assert _codes(tmp_path, {"tests/test_force.py": poke}) == ["SIM008"]


def test_sim008_allows_membership_writes_in_health_and_reads(tmp_path):
    health = (
        "def degrade_donor(cluster, dead):\n"
        "    if not cluster.membership.revoke(dead):\n"
        "        return\n"
        "    return cluster.membership.epoch(dead)\n"
    )
    assert "SIM008" not in _codes(tmp_path, {"cluster/health.py": health})
    reads = (
        "def check(cluster, exc):\n"
        "    members = cluster.membership\n"
        "    dead = sorted(members.dead())\n"
        "    return dead, members.declared(exc.node, exc.epoch)\n"
    )
    assert "SIM008" not in _codes(tmp_path, {"benchmarks/soak.py": reads})
    assert "SIM008" not in _codes(tmp_path, {"tests/test_blame.py": reads})


# -- pragmas --------------------------------------------------------------

def test_line_pragma_suppresses_and_counts(tmp_path):
    src = (
        "def pad(cost_ns):\n"
        "    return cost_ns * 1.5  # simcheck: disable=SIM003\n"
    )
    path = _write(tmp_path, "pkg/padded.py", src)
    reports, violations = check_paths([path], root=tmp_path)
    assert violations == []
    assert sum(r.suppressed for r in reports) == 1


def test_line_pragma_without_codes_suppresses_everything(tmp_path):
    src = "def pad(cost_ns):\n    return cost_ns * 1.5  # simcheck: disable\n"
    _, violations = check_paths(
        [_write(tmp_path, "pkg/p.py", src)], root=tmp_path
    )
    assert violations == []


def test_line_pragma_does_not_cover_other_codes(tmp_path):
    src = (
        "def pad(sim, cost_ns):\n"
        "    sim._now = cost_ns * 1.5  # simcheck: disable=SIM003\n"
    )
    _, violations = check_paths(
        [_write(tmp_path, "pkg/p.py", src)], root=tmp_path
    )
    assert [v.code for v in violations] == ["SIM001"]


def test_file_wide_pragma(tmp_path):
    src = (
        "# simcheck: disable-file=SIM003\n"
        "def pad(cost_ns):\n"
        "    return cost_ns * 1.5\n"
        "def pad2(cost_ns):\n"
        "    return cost_ns * 2.5\n"
    )
    reports, violations = check_paths(
        [_write(tmp_path, "pkg/p.py", src)], root=tmp_path
    )
    assert violations == []
    assert sum(r.suppressed for r in reports) == 2


def test_pragma_inside_string_literal_is_inert(tmp_path):
    src = (
        'NOTE = "# simcheck: disable-file=SIM003"\n'
        "def pad(cost_ns):\n"
        "    return cost_ns * 1.5\n"
    )
    _, violations = check_paths(
        [_write(tmp_path, "pkg/p.py", src)], root=tmp_path
    )
    assert [v.code for v in violations] == ["SIM003"]


def test_malformed_pragma_raises(tmp_path):
    src = "X = 1  # simcheck: disable=SIMBAD\n"
    with pytest.raises(ValueError, match="malformed simcheck pragma"):
        check_paths([_write(tmp_path, "pkg/p.py", src)], root=tmp_path)


# -- reporters ------------------------------------------------------------

def test_text_reporter_renders_locations(tmp_path):
    src = "def pad(cost_ns):\n    return cost_ns * 1.5\n"
    reports, violations = check_paths(
        [_write(tmp_path, "pkg/p.py", src)], root=tmp_path
    )
    text = render_text(reports, violations)
    assert "pkg/p.py:2:" in text
    assert "SIM003" in text
    assert "1 violation(s) in 1 file(s)" in text


# -- CLI ------------------------------------------------------------------

def test_cli_exit_codes(tmp_path, capsys):
    clean = _write(tmp_path, "clean.py", "X = 1\n")
    dirty = _write(
        tmp_path, "pkg/dirty.py", "def pad(c_ns):\n    return c_ns * 1.5\n"
    )
    assert simcheck_main([str(clean)]) == 0
    assert simcheck_main([str(dirty)]) == 1
    capsys.readouterr()
    assert simcheck_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code, _, _ in rule_catalogue():
        assert code in out


def test_cli_select_and_disable(tmp_path, capsys):
    dirty = _write(
        tmp_path, "pkg/dirty.py", "def pad(c_ns):\n    return c_ns * 1.5\n"
    )
    assert simcheck_main([str(dirty), "--select", "SIM001"]) == 0
    assert simcheck_main([str(dirty), "--disable", "SIM003"]) == 0
    assert simcheck_main([str(dirty), "--select", "SIM003"]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit):
        simcheck_main([str(dirty), "--select", "SIM999"])


def test_cli_reports_syntax_errors_as_exit_2(tmp_path, capsys):
    broken = _write(tmp_path, "pkg/broken.py", "def (:\n")
    assert simcheck_main([str(broken)]) == 2
    assert "error" in capsys.readouterr().err


# -- stale-pragma detection (--strict-pragmas) ----------------------------

def test_strict_pragmas_flags_dead_suppressions(tmp_path):
    src = (
        "X = 1  # simcheck: disable=SIM003 -- nothing here needs this\n"
        "# simcheck: disable-file=SIM005\n"
    )
    path = _write(tmp_path, "pkg/stale.py", src)
    _, relaxed = check_paths([path], root=tmp_path)
    assert [v.code for v in relaxed] == []
    _, strict = check_paths([path], root=tmp_path, strict_pragmas=True)
    assert [v.code for v in strict] == ["SIM000", "SIM000"]
    assert {v.line for v in strict} == {1, 2}
    assert all("suppresses nothing" in v.message for v in strict)


def test_strict_pragmas_keeps_live_suppressions(tmp_path):
    src = (
        "def pad(cost_ns):\n"
        "    return cost_ns * 1.5  # simcheck: disable=SIM003 -- derived\n"
    )
    path = _write(tmp_path, "pkg/live.py", src)
    reports, strict = check_paths([path], root=tmp_path, strict_pragmas=True)
    assert [v.code for v in strict] == []
    assert reports[0].suppressed == 1


def test_strict_pragmas_stale_findings_cannot_be_suppressed(tmp_path):
    # a pragma "suppressing" SIM000 is itself dead and gets reported
    src = "X = 1  # simcheck: disable=SIM000 -- meta\n"
    path = _write(tmp_path, "pkg/meta.py", src)
    _, strict = check_paths([path], root=tmp_path, strict_pragmas=True)
    assert [v.code for v in strict] == ["SIM000"]


def test_cli_strict_pragmas_exit_code(tmp_path, capsys):
    stale = _write(
        tmp_path, "pkg/stale.py", "X = 1  # simcheck: disable=SIM003 -- why\n"
    )
    assert simcheck_main([str(stale)]) == 0
    assert simcheck_main([str(stale), "--strict-pragmas"]) == 1
    assert "SIM000" in capsys.readouterr().out


# -- a run reads and never writes ------------------------------------------

def test_cli_writes_no_file(tmp_path, capsys, monkeypatch):
    _write(
        tmp_path, "src/pkg/dirty.py", "def pad(c_ns):\n    return c_ns * 1.5\n"
    )
    _write(tmp_path, "tests/test_pad.py", "X = 1  # simcheck: disable=SIM003\n")
    monkeypatch.chdir(tmp_path)

    def listing():
        return sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))

    before = listing()
    assert simcheck_main(["--strict-pragmas"]) == 1  # default src tests
    assert simcheck_main(["src", "--select", "SIM003"]) == 1
    assert "SIM003" in capsys.readouterr().out
    assert listing() == before


# -- the real tree stays clean --------------------------------------------

def test_repo_src_is_clean():
    """`python -m simcheck src` exits 0 — all twelve rules active."""
    assert simcheck_main(["src"]) == 0
