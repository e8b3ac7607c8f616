"""Tests for the latency model — including the tier-agreement contract."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, NetworkConfig, RMCConfig
from repro.model.latency import LatencyModel


def test_analytic_composition_orders(latency_model):
    lat = latency_model
    assert lat.cache_hit_ns < lat.local_ns < lat.remote_1hop_ns
    assert lat.remote_1hop_ns < lat.swap_fault_ns < lat.disk_fault_ns


def test_remote_scales_per_hop(latency_model):
    lat = latency_model
    assert lat.remote_ns(1) == lat.remote_1hop_ns
    assert lat.remote_ns(3) == pytest.approx(
        lat.remote_1hop_ns + 2 * lat.remote_per_hop_ns
    )
    with pytest.raises(ValueError):
        lat.remote_ns(0)


def test_remote_vs_local_factor_in_paper_regime(latency_model):
    """The FPGA prototype's remote access is several times local DRAM
    but far below a swap fault."""
    assert 3 < latency_model.remote_vs_local < 20


def test_translation_table_ablation_visible_in_model():
    base = LatencyModel.from_config(ClusterConfig())
    tabled = LatencyModel.from_config(
        ClusterConfig(rmc=RMCConfig(use_translation_table=True))
    )
    assert tabled.remote_1hop_ns > base.remote_1hop_ns


def test_calibration_agrees_with_analytic_model():
    """THE tier contract: on an uncontended line the analytic constants
    that drive Figs. 9-11 equal packet-level measurement exactly, term
    by term (124 ns local, 790 ns for one hop, 170 ns per extra hop)."""
    cfg = ClusterConfig(network=NetworkConfig(topology="line", dims=(3, 1)))
    analytic = LatencyModel.from_config(cfg)
    measured = LatencyModel.calibrate(Cluster(cfg), samples=32)
    assert (measured.local_ns, measured.remote_1hop_ns,
            measured.remote_per_hop_ns) == (124.0, 790.0, 170.0)
    assert measured.local_ns == analytic.local_ns
    assert measured.remote_1hop_ns == analytic.remote_1hop_ns
    assert measured.remote_per_hop_ns == analytic.remote_per_hop_ns


def test_calibrate_needs_a_neighbor():
    cfg = ClusterConfig(network=NetworkConfig(topology="line", dims=(1, 1)))
    with pytest.raises(ValueError):
        LatencyModel.calibrate(Cluster(cfg), samples=8)
