"""Shape assertions for every reproduced artifact, at test scale.

These are the repository's acceptance tests: one class per registered
driver (Figs. 6-11, Table A, the extensions, footnote 3 and the
ablations) asserts the *qualitative* claim the paper draws from it,
using scaled-down workloads so the whole module runs in tens of
seconds. A claim that does not hold at a smaller scale runs at the
driver's default. Each artifact's rows are also pinned exactly
(``ROWS``), so a change that must keep the simulation bit-identical
shows any drift; a deliberate change of an artifact updates its pin
and says why.
"""

from __future__ import annotations

import pytest

from repro.config import RMCConfig
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
    "tableA": [
        {"metric": "local DRAM line read", "analytic_ns": 124.0, "measured_ns": 124.0, "ratio": 1.0},
        {"metric": "remote line read, 1 hop", "analytic_ns": 790.0, "measured_ns": 790.0, "ratio": 1.0},
        {"metric": "remote line read, 2 hops", "analytic_ns": 960.0, "measured_ns": 960.0, "ratio": 1.0},
        {"metric": "added latency per hop", "analytic_ns": 170.0, "measured_ns": 170.0, "ratio": 1.0},
        {"metric": "remote-swap page fault", "analytic_ns": 50768.0, "measured_ns": 50768.0, "ratio": 1.0},
        {"metric": "disk-swap page fault", "analytic_ns": 6057200.0, "measured_ns": 6057200.0, "ratio": 1.0},
    ],
    "extA": [
        {"nodes": 2, "memory_MiB": 16, "noncoherent_ns": 904.18375, "snoopy_ns": 1131.87875, "directory_ns": 1158.15125, "snoopy_probes_per_miss": 0.87575, "snoopy_coherence_share": 0.2011655400368635},
        {"nodes": 4, "memory_MiB": 48, "noncoherent_ns": 972.6925, "snoopy_ns": 1385.2775, "directory_ns": 1305.3191666666464, "snoopy_probes_per_miss": 2.8785, "snoopy_coherence_share": 0.2978356322108747},
        {"nodes": 8, "memory_MiB": 112, "noncoherent_ns": 1204.160625, "snoopy_ns": 1961.744375, "directory_ns": 1704.5313392856208, "snoopy_probes_per_miss": 6.887125, "snoopy_coherence_share": 0.38617862737595465},
        {"nodes": 16, "memory_MiB": 240, "noncoherent_ns": 1438.673125, "snoopy_ns": 2539.376875, "directory_ns": 2097.112125, "snoopy_probes_per_miss": 14.874375, "snoopy_coherence_share": 0.4334542701543661},
    ],
    "extB": [
        {"approach": "local DRAM (reference)", "ns_per_access": 153.301, "vs_local": 1.0, "vs_this_paper": 0.1570743177993345},
        {"approach": "remote memory (this paper)", "ns_per_access": 975.9775, "vs_local": 6.366413134943673, "vs_this_paper": 1.0},
        {"approach": "remote swap", "ns_per_access": 45412.973, "vs_local": 296.2340297845415, "vs_this_paper": 46.5307581373546},
        {"approach": "disk swap", "ns_per_access": 5400147.101, "vs_local": 35225.77870333527, "vs_this_paper": 5533.065158776713},
        {"approach": "flash swap", "ns_per_access": 85737.301, "vs_local": 559.2742447864007, "vs_this_paper": 87.8476204625619},
        {"approach": "memory compression", "ns_per_access": 50413.223, "vs_local": 328.85123384713734, "vs_this_paper": 51.65408321400852},
        {"approach": "OS memory server", "ns_per_access": 3156.395, "vs_local": 20.589526487107065, "vs_this_paper": 3.2340858267736707},
    ],
    "extC": [
        {"readers": 1, "write_phase_ms": 0.1655, "flush_ms": 0.158, "read_phase_ms": 0.157685, "read_speedup": 1.0},
        {"readers": 2, "write_phase_ms": 0.1655, "flush_ms": 0.158, "read_phase_ms": 0.08224799999999995, "read_speedup": 1.9171894757319339},
        {"readers": 4, "write_phase_ms": 0.1655, "flush_ms": 0.158, "read_phase_ms": 0.075516, "read_speedup": 2.088100534985963},
    ],
    "extD": [
        {"memory_system": "local DRAM", "point_us": 0.31662533333333337, "range128_us": 25.28074, "update_us": 0.19992400000000002, "scan_ms": 9.231761},
        {"memory_system": "remote memory (this paper)", "point_us": 2.0047133333333336, "range128_us": 159.14229999999998, "update_us": 1.2628599999999999, "scan_ms": 58.648295},
        {"memory_system": "remote swap", "point_us": 57.58515066666667, "range128_us": 232.08842, "update_us": 83.276318, "scan_ms": 81.968693},
    ],
    "extE": [
        {"pairs": 1, "total_accesses": 150, "elapsed_ms": 0.125175, "aggregate_mops": 1.1983223487118035, "scaling_efficiency": 1.0, "max_link_util": 0.04346818875039414},
        {"pairs": 2, "total_accesses": 300, "elapsed_ms": 0.125175, "aggregate_mops": 2.396644697423607, "scaling_efficiency": 1.0, "max_link_util": 0.0363901803078216},
        {"pairs": 4, "total_accesses": 600, "elapsed_ms": 0.1257, "aggregate_mops": 4.773269689737471, "scaling_efficiency": 0.9958233890214797, "max_link_util": 0.027392094207717637},
        {"pairs": 8, "total_accesses": 1200, "elapsed_ms": 0.12582, "aggregate_mops": 9.537434430138292, "scaling_efficiency": 0.9948736289938006, "max_link_util": 0.018374552536803507},
    ],
    "extF": [
        {"sweep": "size", "column_kib": 64, "donor_hops": 1, "scan_ms": 0.76324, "gib_per_s": 0.07996849778575545, "accessor_calls": 1, "per_element_x": 1.04695770661915},
        {"sweep": "size", "column_kib": 256, "donor_hops": 1, "scan_ms": 3.05296, "gib_per_s": 0.07996849778575545, "accessor_calls": 4, "per_element_x": 1.04695770661915},
        {"sweep": "distance", "column_kib": 64, "donor_hops": 1, "scan_ms": 0.76324, "gib_per_s": 0.07996849778575545, "accessor_calls": 1, "per_element_x": 1.04695770661915},
        {"sweep": "distance", "column_kib": 64, "donor_hops": 2, "scan_ms": 0.93732, "gib_per_s": 0.06511666906712756, "accessor_calls": 1, "per_element_x": 1.0382366747748901},
        {"sweep": "distance", "column_kib": 64, "donor_hops": 4, "scan_ms": 1.28548, "gib_per_s": 0.04748044018576718, "accessor_calls": 1, "per_element_x": 1.0278806360270094},
        {"sweep": "distance", "column_kib": 64, "donor_hops": 7, "scan_ms": 1.80772, "gib_per_s": 0.033763611759564535, "accessor_calls": 1, "per_element_x": 1.0198260792600624},
    ],
    "extG": [
        {"workload": "streaming scan", "tier": "fast", "local_ns": 2031616.0, "remote_ns": 12943360.0, "prefetch_ns": 1967420.0, "speedup": 6.578849457665369, "gap_closed": 1.005883202538476, "fabric_traffic_x": None},
        {"workload": "blackscholes", "tier": "fast", "local_ns": 92945874.0, "remote_ns": 141214890.0, "prefetch_ns": 97307110.0, "speedup": 1.451228897867792, "gap_closed": 0.9096472983828798, "fabric_traffic_x": None},
        {"workload": "canneal", "tier": "fast", "local_ns": 457643.0, "remote_ns": 1787645.0, "prefetch_ns": 1787645.0, "speedup": 1.0, "gap_closed": 0.0, "fabric_traffic_x": None},
        {"workload": "sequential stream", "tier": "packet", "local_ns": None, "remote_ns": 74545.0, "prefetch_ns": 20407.40000000001, "speedup": 3.652841616276447, "gap_closed": None, "fabric_traffic_x": 1.1287128712871286},
    ],
    "footnote3": [
        {"index": "hash", "memory_system": "remote memory", "ns_per_lookup": 773.2533333333333},
        {"index": "b-tree", "memory_system": "remote memory", "ns_per_lookup": 2786.693333333333},
        {"index": "b-tree", "memory_system": "remote swap", "ns_per_lookup": 22031.941333333332},
    ],
    "ablations": [
        {"design_choice": "outstanding remote requests per core (prototype: 1)", "unit": "ns per read", "measured": {"1": 789.4375, "8": 377.995}},
        {"design_choice": "RMC address translation (prototype: prefix)", "unit": "ns per 1-hop line read", "measured": {"prefix": 790.0, "table": 1030.0}},
        {"design_choice": "write-back caching of remote ranges (prototype: cached)", "unit": "ns per two 1 MiB scans", "measured": {"cached": 13025280.0, "uncached": 25886720.0}},
        {"design_choice": "topology (default: 4x4 mesh)", "unit": "mean hops", "measured": {"torus 4x4": 2.1333333333333333, "mesh 4x4": 2.6666666666666665, "line 16": 5.666666666666667}},
        {"design_choice": "fabric (prototype: native HTX)", "unit": "ns per 1-hop line read", "measured": {"native": 790.0, "HToE": 1680.0, "swap fault": 50768.0}},
        {"design_choice": "node interleaving (prototype: contiguous)", "unit": "ns for 4 parallel strided streams", "measured": {"contiguous": 7279.0, "interleaved 4K": 968.0}},
        {"design_choice": "swap page size (default: 4 KiB)", "unit": "ns per access sequence", "measured": {"seq 4K": 1404432.0, "seq 64K": 1270576.0, "rand 4K": 73342688.0, "rand 64K": 795722496.0}},
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


@pytest.fixture(scope="module")
def tableA():
    return run_experiment("tableA", samples=16)


@pytest.fixture(scope="module")
def extA():
    return run_experiment("extA", accesses=8_000)


@pytest.fixture(scope="module")
def extB():
    return run_experiment("extB", accesses=4_000)


@pytest.fixture(scope="module")
def extC():
    return run_experiment("extC", items=200)


@pytest.fixture(scope="module")
def extD():
    # default size: swap's update penalty drops below 10x at scale 0.25
    return run_experiment("extD")


@pytest.fixture(scope="module")
def extE():
    return run_experiment("extE", accesses_per_client=150)


@pytest.fixture(scope="module")
def extF():
    # columns of 64 and 256 KiB; the per-element reference loops are
    # what cost time
    return run_experiment("extF", scale=1 / 16, distance_col_kib=64)


@pytest.fixture(scope="module")
def extG():
    return run_experiment("extG", scale=0.25)


@pytest.fixture(scope="module")
def footnote3():
    return run_experiment("footnote3", scale=0.25)


@pytest.fixture(scope="module")
def ablations():
    # default size: 64 KiB swap pages stop paying off on the 64 B-stride
    # stream at scale 0.25
    return run_experiment("ablations")


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
        assert rows[7] > rows[0] * 2.5       # heavy stress: clear knee

    def test_congestion_is_at_the_server(self, fig08):
        heavy = [r for r in fig08.rows if r["stress_nodes"] == 7][0]
        assert heavy["server_nacks"] > 0

    def test_not_network_congestion(self, fig08):
        """The paper's diagnosis: no fabric link is anywhere near
        saturation even at the heaviest stress level."""
        heavy = [r for r in fig08.rows if r["stress_nodes"] == 7][0]
        assert heavy["max_link_util"] < 0.6

    def test_server_arrivals_grow_with_client_threads(self):
        r = run_experiment("fig08", control_accesses=150,
                           sweep=((3, 1), (3, 2)))
        arrivals = {row["threads_each"]: row["server_reqs_per_us"]
                    for row in r.rows}
        assert arrivals[2] > arrivals[1]


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
        assert ratio[-1] > ratio[0] * 3     # divergence
        assert ratio[-1] > 8                # thrashing regime

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


class TestTableA:
    def test_rows_pinned(self, tableA):
        assert tableA.rows == ROWS["tableA"]

    def test_analytic_agrees_with_measured(self, tableA):
        """The two-tier contract behind Figs. 9-11."""
        for r in tableA.rows:
            assert r["ratio"] == pytest.approx(1.0, rel=0.12)

    def test_remote_between_local_and_swap(self, tableA):
        rows = {r["metric"]: r for r in tableA.rows}
        local = rows["local DRAM line read"]["measured_ns"]
        remote = rows["remote line read, 1 hop"]["measured_ns"]
        assert 3 < remote / local < 20
        assert rows["remote-swap page fault"]["analytic_ns"] > 10 * remote


class TestExtA:
    def test_rows_pinned(self, extA):
        assert extA.rows == ROWS["extA"]

    def test_coherency_tax_grows_with_the_cluster(self, extA):
        non = extA.column("noncoherent_ns")
        snoopy = extA.column("snoopy_ns")
        share = extA.column("snoopy_coherence_share")
        assert snoopy[-1] / non[-1] > snoopy[0] / non[0]
        assert snoopy[-1] / non[-1] > 1.5
        assert share == sorted(share)


class TestExtB:
    def test_rows_pinned(self, extB):
        assert extB.rows == ROWS["extB"]

    def test_related_work_ranking(self, extB):
        times = {r["approach"]: r["ns_per_access"] for r in extB.rows}
        ours = times["remote memory (this paper)"]
        assert ours < times["OS memory server"] < times["remote swap"]
        assert times["remote swap"] < times["flash swap"] < times["disk swap"]
        # the Violin critique: the OS on the access path costs ~3 us
        assert times["OS memory server"] > 3 * ours


class TestExtC:
    def test_rows_pinned(self, extC):
        assert extC.rows == ROWS["extC"]

    def test_read_phase_parallelizes_until_the_client_rmc_binds(self, extC):
        speedups = {r["readers"]: r["read_speedup"] for r in extC.rows}
        assert speedups[2] > 1.7          # two readers nearly double
        assert speedups[4] < 3.0          # four are RMC-bound (Fig. 7)
        assert speedups[4] >= speedups[2] * 0.95


class TestExtD:
    def _by_system(self, extD):
        by = {r["memory_system"]: r for r in extD.rows}
        return (by["local DRAM"], by["remote memory (this paper)"],
                by["remote swap"])

    def test_rows_pinned(self, extD):
        assert extD.rows == ROWS["extD"]

    def test_point_queries(self, extD):
        local, remote, swap = self._by_system(extD)
        assert local["point_us"] < remote["point_us"] < swap["point_us"]
        assert swap["point_us"] > 10 * remote["point_us"]

    def test_scans_amortize_updates_do_not(self, extD):
        _, remote, swap = self._by_system(extD)
        assert swap["scan_ms"] < 2 * remote["scan_ms"]
        assert swap["update_us"] > 10 * remote["update_us"]


class TestExtE:
    def test_rows_pinned(self, extE):
        assert extE.rows == ROWS["extE"]

    def test_disjoint_pairs_scale_linearly(self, extE):
        assert extE.column("scaling_efficiency")[-1] > 0.9
        assert max(extE.column("max_link_util")) < 0.5


class TestExtF:
    def _sweep(self, extF, name):
        return [r for r in extF.rows if r["sweep"] == name]

    def test_rows_pinned(self, extF):
        assert extF.rows == ROWS["extF"]

    def test_throughput_holds_as_the_column_grows(self, extF):
        rates = [r["gib_per_s"] for r in self._sweep(extF, "size")]
        assert len(rates) >= 2
        assert min(rates) > 0.95 * max(rates)

    def test_one_accessor_call_per_window(self, extF):
        for r in extF.rows:
            # 64 KiB windows, against column_kib * 128 per-element reads
            assert r["accessor_calls"] == -(-r["column_kib"] // 64)

    def test_windows_never_lose_to_the_per_element_loop(self, extF):
        assert min(extF.column("per_element_x")) >= 1.0

    def test_every_line_pays_each_hop(self, extF):
        """Bursts coalesce packets, not hops: each extra hop adds Table
        A's 170 ns per line to the scan, and throughput falls with it."""
        rows = self._sweep(extF, "distance")
        assert [r["donor_hops"] for r in rows] == sorted(
            {r["donor_hops"] for r in rows})
        rates = [r["gib_per_s"] for r in rows]
        assert rates == sorted(rates, reverse=True)
        near, far = rows[0], rows[-1]
        lines = near["column_kib"] * 1024 // 64
        per_hop_ns = (far["scan_ms"] - near["scan_ms"]) * 1e6 / (
            lines * (far["donor_hops"] - near["donor_hops"]))
        assert per_hop_ns == pytest.approx(170.0, rel=0.01)


class TestExtG:
    def _by_workload(self, extG):
        return {r["workload"]: r for r in extG.rows}

    def test_rows_pinned(self, extG):
        assert extG.rows == ROWS["extG"]

    def test_prefetch_helps_sequential_patterns(self, extG):
        by = self._by_workload(extG)
        stream = by["streaming scan"]
        assert stream["prefetch_ns"] < 0.45 * stream["remote_ns"]
        bs = by["blackscholes"]
        assert bs["prefetch_ns"] < bs["remote_ns"]

    def test_no_harm_on_random_access(self, extG):
        cn = self._by_workload(extG)["canneal"]
        assert cn["prefetch_ns"] <= cn["remote_ns"] * 1.02

    def test_rmc_prefetcher_speeds_streams_at_bounded_traffic(self, extG):
        packet = self._by_workload(extG)["sequential stream"]
        assert packet["speedup"] > 2.0
        assert packet["fabric_traffic_x"] < 1.6


class TestFootnote3:
    def test_rows_pinned(self, footnote3):
        assert footnote3.rows == ROWS["footnote3"]

    def test_hash_index_widens_the_lead(self, footnote3):
        ns = {(r["index"], r["memory_system"]): r["ns_per_lookup"]
              for r in footnote3.rows}
        btree_remote = ns[("b-tree", "remote memory")]
        assert ns[("hash", "remote memory")] < 0.6 * btree_remote
        assert ns[("b-tree", "remote swap")] > 4 * btree_remote


class TestAblations:
    def _measured(self, ablations, prefix):
        [row] = [r for r in ablations.rows
                 if r["design_choice"].startswith(prefix)]
        return row["measured"]

    def test_rows_pinned(self, ablations):
        assert ablations.rows == ROWS["ablations"]

    def test_one_outstanding_request_costs_bandwidth(self, ablations):
        m = self._measured(ablations, "outstanding")
        assert m["1"] / m["8"] > 2.0

    def test_translation_table_pays_a_lookup_per_rmc_op(self, ablations):
        m = self._measured(ablations, "RMC address translation")
        # 4 RMC ops per remote read, each paying the lookup
        assert m["table"] - m["prefix"] > 3 * RMCConfig().table_lookup_ns

    def test_write_back_caching_pays_on_reuse(self, ablations):
        m = self._measured(ablations, "write-back caching")
        assert m["uncached"] / m["cached"] > 1.5

    def test_topology_mean_distance(self, ablations):
        m = self._measured(ablations, "topology")
        assert m["torus 4x4"] < m["mesh 4x4"] < m["line 16"]

    def test_htoe_trades_latency_for_standard_switches(self, ablations):
        m = self._measured(ablations, "fabric")
        assert 1.5 < m["HToE"] / m["native"] < 6
        assert m["HToE"] / m["swap fault"] < 0.1  # still beats paging

    def test_node_interleaving_spreads_parallel_streams(self, ablations):
        m = self._measured(ablations, "node interleaving")
        assert m["contiguous"] / m["interleaved 4K"] > 1.4

    def test_swap_page_size_cannot_win_both(self, ablations):
        m = self._measured(ablations, "swap page size")
        assert m["seq 64K"] < m["seq 4K"]      # streaming amortizes
        assert m["rand 64K"] > m["rand 4K"]    # random pays transfer
