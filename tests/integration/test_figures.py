"""Shape assertions for every reproduced figure, at test scale.

These are the repository's acceptance tests: each asserts the
*qualitative* claim the paper draws from the corresponding figure,
using scaled-down workloads so the whole module runs in tens of
seconds. Each figure's rows are also pinned exactly (``ROWS``), so a
change that must keep the simulation bit-identical shows any drift;
a deliberate change of a figure updates its pin and says why.
"""

from __future__ import annotations

import pytest

from repro.harness import run_experiment

#: every row at test scale, exactly as the drivers produce them
ROWS = {
    "fig06": [
        {"hops": 1, "server_node": 2, "elapsed_ms": 0.339375, "ns_per_access": 848.4375},
        {"hops": 2, "server_node": 1, "elapsed_ms": 0.407375, "ns_per_access": 1018.4375},
        {"hops": 3, "server_node": 4, "elapsed_ms": 0.475375, "ns_per_access": 1188.4375},
    ],
    "fig07": [
        {"group": '1 server', "threads": 1, "servers": 1, "hops": 1, "elapsed_ms": 0.678855, "speedup_vs_1t": 1.0},
        {"group": '1 server', "threads": 2, "servers": 1, "hops": 1, "elapsed_ms": 0.34955860000000016, "speedup_vs_1t": 1.942034897725302},
        {"group": '1 server', "threads": 4, "servers": 1, "hops": 1, "elapsed_ms": 0.302378, "speedup_vs_1t": 2.2450542036788392},
        {"group": '4 servers', "threads": 4, "servers": 4, "hops": 1, "elapsed_ms": 0.302378, "speedup_vs_1t": 2.2450542036788392},
        {"group": '4 servers', "threads": 4, "servers": 4, "hops": 2, "elapsed_ms": 0.302718, "speedup_vs_1t": 2.2425326541533703},
        {"group": '4 servers', "threads": 4, "servers": 4, "hops": 3, "elapsed_ms": 0.27450599999999825, "speedup_vs_1t": 2.4730060545124855},
    ],
    "fig08": [
        {"stress_nodes": 0, "threads_each": 0, "control_ms": 0.33984, "control_ns_per_access": 849.6, "server_reqs_per_us": 1.1770244821092277, "server_nacks": 0, "max_link_util": 0.04865348343268498},
        {"stress_nodes": 1, "threads_each": 4, "control_ms": 0.3603888, "control_ns_per_access": 900.972, "server_reqs_per_us": 3.7626030553668706, "server_nacks": 0, "max_link_util": 0.10199509759763319},
        {"stress_nodes": 3, "threads_each": 4, "control_ms": 0.8413944000000015, "control_ns_per_access": 2103.486000000004, "server_reqs_per_us": 5.744036328266496, "server_nacks": 0, "max_link_util": 0.13583282752037493},
        {"stress_nodes": 7, "threads_each": 4, "control_ms": 1.7698490000000464, "control_ns_per_access": 4424.622500000116, "server_reqs_per_us": 6.43049209282809, "server_nacks": 1646, "max_link_util": 0.10665137842273502},
    ],
    "fig09": [
        {"children": 8, "node_bytes": 136, "height": 5, "us_per_search": 83.31950625, "faults_per_search": 1.6275},
        {"children": 32, "node_bytes": 520, "height": 3, "us_per_search": 73.12069500000001, "faults_per_search": 1.42875},
        {"children": 168, "node_bytes": 2696, "height": 2, "us_per_search": 43.787118750000005, "faults_per_search": 0.85125},
        {"children": 256, "node_bytes": 4104, "height": 2, "us_per_search": 40.80842125, "faults_per_search": 0.79125},
        {"children": 2048, "node_bytes": 32776, "height": 1, "us_per_search": 77.70147375, "faults_per_search": 1.5175},
    ],
    "fig10": [
        {"keys": 20000, "height": 1, "remote_us_per_search": 1.69368125, "swap_us_per_search": 0.24683875, "swap_fault_rate": 7.234319612240469e-05, "swap_over_remote": 0.1457409710357247},
        {"keys": 80000, "height": 2, "remote_us_per_search": 3.1312249999999997, "swap_us_per_search": 9.538290000000002, "swap_fault_rate": 0.008410232449480201, "swap_over_remote": 3.0461847998786427},
        {"keys": 320000, "height": 2, "remote_us_per_search": 4.4328875, "swap_us_per_search": 38.6722325, "swap_fault_rate": 0.03190242863229655, "swap_over_remote": 8.723937275647081},
    ],
    "fig11": [
        {"benchmark": 'blackscholes', "footprint_MiB": 12, "local_ms": 561.978756, "remote_ms": 874.69839, "swap_ms": 1057.267076, "remote_over_local": 1.5564616645402163, "swap_over_local": 1.8813292579337286},
        {"benchmark": 'raytrace', "footprint_MiB": 12, "local_ms": 3.131898, "remote_ms": 6.55647, "swap_ms": 16.128506, "remote_over_local": 2.093449403524636, "swap_over_local": 5.14975455777934},
        {"benchmark": 'canneal', "footprint_MiB": 32, "local_ms": 1.82486, "remote_ms": 7.1129, "swap_ms": 507.434281, "remote_over_local": 3.8977784597174576, "swap_over_local": 278.06751257630725},
        {"benchmark": 'streamcluster', "footprint_MiB": 2, "local_ms": 83.853312, "remote_ms": 105.6768, "swap_ms": 109.846528, "remote_over_local": 1.2602579132473624, "swap_over_local": 1.3099843688940993},
    ],
}


@pytest.fixture(scope="module")
def fig06():
    return run_experiment("fig06", accesses=400, distances=(1, 2, 3))


@pytest.fixture(scope="module")
def fig07():
    return run_experiment("fig07", accesses=800)


@pytest.fixture(scope="module")
def fig08():
    return run_experiment(
        "fig08",
        control_accesses=400,
        sweep=((0, 0), (1, 4), (3, 4), (7, 4)),
    )


@pytest.fixture(scope="module")
def fig09():
    return run_experiment(
        "fig09",
        num_keys=150_000,
        searches=800,
        fanouts=(8, 32, 168, 256, 2048),
        resident_pages=128,
    )


@pytest.fixture(scope="module")
def fig10():
    return run_experiment(
        "fig10",
        key_counts=(20_000, 80_000, 320_000),
        searches=800,
        resident_pages=512,
    )


@pytest.fixture(scope="module")
def fig11():
    from repro.units import mib

    return run_experiment("fig11", local_memory_bytes=mib(16), scale=0.4)


class TestFig06:
    def test_rows_pinned(self, fig06):
        assert fig06.rows == ROWS["fig06"]

    def test_time_increases_with_distance(self, fig06):
        times = fig06.column("ns_per_access")
        assert times == sorted(times)
        assert times[-1] > times[0] * 1.2

    def test_per_hop_increment_roughly_constant(self, fig06):
        t = fig06.column("ns_per_access")
        d1, d2 = t[1] - t[0], t[2] - t[1]
        assert d2 == pytest.approx(d1, rel=0.3)


@pytest.mark.slow
class TestFig07:
    def test_rows_pinned(self, fig07):
        assert fig07.rows == ROWS["fig07"]

    def test_two_threads_halve_time(self, fig07):
        by = {(r["group"], r["threads"], r["hops"]): r["elapsed_ms"]
              for r in fig07.rows}
        assert by[("1 server", 2, 1)] == pytest.approx(
            by[("1 server", 1, 1)] / 2, rel=0.15
        )

    def test_four_threads_saturate(self, fig07):
        """4t improves on 2t by far less than 2x (the RMC bottleneck)."""
        by = {(r["group"], r["threads"], r["hops"]): r["elapsed_ms"]
              for r in fig07.rows}
        gain = by[("1 server", 2, 1)] / by[("1 server", 4, 1)]
        assert gain < 1.4

    def test_four_servers_do_not_help(self, fig07):
        by = {(r["group"], r["threads"], r["servers"], r["hops"]):
              r["elapsed_ms"] for r in fig07.rows}
        assert by[("4 servers", 4, 4, 1)] == pytest.approx(
            by[("1 server", 4, 1, 1)], rel=0.1
        )

    def test_distance_does_not_hurt_saturated_client(self, fig07):
        """The counter-intuitive result: at 4 threads, moving the
        servers away does NOT increase the time (it may decrease)."""
        by = {(r["group"], r["hops"]): r["elapsed_ms"]
              for r in fig07.rows if r["group"] == "4 servers"}
        assert by[("4 servers", 3)] <= by[("4 servers", 1)] * 1.05


@pytest.mark.slow
class TestFig08:
    def test_rows_pinned(self, fig08):
        assert fig08.rows == ROWS["fig08"]

    def test_flat_then_degrading(self, fig08):
        rows = {r["stress_nodes"]: r["control_ns_per_access"]
                for r in fig08.rows if r["threads_each"] in (0, 4)}
        assert rows[1] < rows[0] * 1.35      # one stressor: nearly flat
        assert rows[7] > rows[0] * 2.0       # heavy stress: clear knee

    def test_congestion_is_at_the_server(self, fig08):
        heavy = [r for r in fig08.rows if r["stress_nodes"] == 7][0]
        assert heavy["server_nacks"] > 0


class TestFig09:
    def test_rows_pinned(self, fig09):
        assert fig09.rows == ROWS["fig09"]

    def test_u_shape(self, fig09):
        t = fig09.column("us_per_search")
        fanouts = fig09.column("children")
        best = fanouts[t.index(min(t))]
        # optimum is an interior fanout: both extremes are worse
        assert best not in (fanouts[0], fanouts[-1])
        assert t[0] > min(t) * 1.2
        assert t[-1] > min(t) * 1.2

    def test_depth_decreases_with_fanout(self, fig09):
        heights = fig09.column("height")
        assert heights == sorted(heights, reverse=True)


class TestFig10:
    def test_rows_pinned(self, fig10):
        assert fig10.rows == ROWS["fig10"]

    def test_remote_memory_grows_gently(self, fig10):
        remote = fig10.column("remote_us_per_search")
        assert remote == sorted(remote)
        assert remote[-1] < remote[0] * 6  # ~log growth, not blow-up

    def test_swap_blows_up(self, fig10):
        ratio = fig10.column("swap_over_remote")
        assert ratio[-1] > ratio[0] * 2     # divergence
        assert ratio[-1] > 5                # thrashing regime

    def test_fault_rate_rises_with_tree_size(self, fig10):
        rates = fig10.column("swap_fault_rate")
        assert rates == sorted(rates)


@pytest.mark.slow
class TestFig11:
    def _by_name(self, fig11):
        return {r["benchmark"]: r for r in fig11.rows}

    def test_rows_pinned(self, fig11):
        assert fig11.rows == ROWS["fig11"]

    def test_blackscholes_swap_about_2x(self, fig11):
        r = self._by_name(fig11)["blackscholes"]
        assert 1.3 < r["swap_over_local"] < 3.5

    def test_raytrace_moderate_penalties(self, fig11):
        r = self._by_name(fig11)["raytrace"]
        assert r["swap_over_local"] < 8
        assert r["remote_over_local"] < 3

    def test_canneal_swap_prohibitive_remote_feasible(self, fig11):
        r = self._by_name(fig11)["canneal"]
        assert r["swap_over_local"] > 20
        assert r["remote_over_local"] < 8

    def test_streamcluster_no_swap_needed(self, fig11):
        r = self._by_name(fig11)["streamcluster"]
        assert r["swap_over_local"] < 1.5
        assert r["remote_over_local"] > 1.2
