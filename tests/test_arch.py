"""Unit tests for the architecture description package (repro.arch)."""

import math

import pytest

from repro.arch import (
    ArchConfig,
    AreaModel,
    ClusterSpec,
    CoreSpec,
    EnergyBreakdown,
    EnergyModel,
    HBMSpec,
    IMASpec,
    InterconnectSpec,
    QuadrantTopology,
)


class TestIMASpec:
    def test_default_matches_table1(self):
        ima = IMASpec()
        assert ima.rows == 256
        assert ima.cols == 256
        assert ima.analog_latency_ns == 130.0
        assert ima.n_streamer_ports == 16

    def test_capacity_is_64k_parameters(self):
        assert IMASpec().capacity_params == 64 * 1024

    def test_peak_tops_is_about_one(self):
        # 2 * 256 * 256 ops every 130 ns is just above 1 TOPS.
        assert 0.9 < IMASpec().peak_tops < 1.2

    def test_row_and_col_splits(self):
        ima = IMASpec()
        assert ima.row_splits(256) == 1
        assert ima.row_splits(257) == 2
        assert ima.col_splits(512) == 2
        assert ima.crossbars_needed(4608, 512) == 18 * 2

    def test_utilization_full_and_partial(self):
        ima = IMASpec()
        assert ima.utilization(256, 256) == pytest.approx(1.0)
        assert ima.utilization(128, 128) == pytest.approx(0.25)

    def test_stream_cycles(self):
        ima = IMASpec()
        assert ima.stream_cycles(0) == 0
        assert ima.stream_cycles(16) == 1
        assert ima.stream_cycles(17) == 2

    def test_invalid_dimensions_raise(self):
        with pytest.raises(ValueError):
            IMASpec(rows=0)
        with pytest.raises(ValueError):
            IMASpec(analog_latency_ns=-1)
        with pytest.raises(ValueError):
            IMASpec().row_splits(0)


class TestCoreAndCluster:
    def test_core_cycle_time(self):
        cores = CoreSpec()
        assert cores.cycle_time_ns == pytest.approx(1.0)

    def test_elementwise_scales_with_clusters(self):
        cores = CoreSpec()
        single = cores.elementwise_cycles(80_000, n_clusters=1)
        quad = cores.elementwise_cycles(80_000, n_clusters=4)
        assert quad < single
        assert quad >= cores.kernel_overhead_cycles

    def test_reduction_cycles_grow_with_operands(self):
        cores = CoreSpec()
        few = cores.reduction_cycles(1000, 2)
        many = cores.reduction_cycles(1000, 8)
        assert many > few

    def test_reduction_requires_operand(self):
        with pytest.raises(ValueError):
            CoreSpec().reduction_cycles(10, 0)

    def test_cluster_defaults(self):
        cluster = ClusterSpec()
        assert cluster.l1_size_bytes == 1 << 20
        assert cluster.cores.n_cores == 16
        assert cluster.analog_latency_cycles == 130

    def test_invalid_cluster_parameters_raise(self):
        for bad in (
            {"l1_size_bytes": 0},
            {"l1_size_bytes": -1},
            {"l1_banks": 0},
            {"dma_bandwidth_bytes_per_cycle": 0},
            {"dma_channels": 0},
        ):
            with pytest.raises(ValueError):
                ClusterSpec(**bad)

    def test_dma_and_delivery_cycles(self):
        cluster = ClusterSpec()
        # 30 configuration cycles, then 64 bytes per cycle, rounded up
        assert cluster.dma_cycles(64 * 100) == 30 + 100
        assert cluster.dma_cycles(65) == 30 + 2
        assert cluster.dma_cycles(0) == 0
        assert cluster.delivery_cycles(65) == 2
        assert cluster.delivery_cycles(0) == 0

    def test_dma_cycles_follow_the_spec(self):
        cluster = ClusterSpec(
            cores=CoreSpec(dma_config_cycles=7), dma_bandwidth_bytes_per_cycle=16
        )
        assert cluster.dma_cycles(33) == 7 + 3
        assert cluster.delivery_cycles(33) == 3
        assert cluster.dma_cycles(1) == 7 + 1


class TestInterconnect:
    def test_default_hosts_512_clusters(self):
        assert InterconnectSpec().max_clusters == 512

    def test_from_factors_round_trip(self):
        spec = InterconnectSpec.from_factors([1, 8, 4, 4, 4])
        assert spec.max_clusters == 512
        assert spec.level("wrapper").quadrant_factor == 8

    def test_from_factors_validates_lengths(self):
        with pytest.raises(ValueError):
            InterconnectSpec.from_factors([1, 8], data_widths=[64])

    def test_route_same_cluster_is_empty(self):
        topo = QuadrantTopology()
        route = topo.route(3, 3)
        assert route.n_hops == 0
        assert route.hop_latency_cycles == 0

    def test_route_neighbours_short(self):
        topo = QuadrantTopology()
        near = topo.route(0, 1)
        far = topo.route(0, 511)
        assert near.n_hops < far.n_hops
        assert near.hop_latency_cycles < far.hop_latency_cycles

    def test_route_is_symmetric_in_length(self):
        topo = QuadrantTopology()
        assert topo.route(5, 200).n_hops == topo.route(200, 5).n_hops

    def test_route_to_hbm_traverses_all_levels(self):
        topo = QuadrantTopology()
        route = topo.route_to_hbm(100)
        # cluster->l1->l2->l3->wrapper->hbm_link/hbm = 6 directed links.
        assert route.n_hops == 6
        assert route.hop_latency_cycles >= 100

    def test_route_from_hbm_mirrors_route_to_hbm(self):
        topo = QuadrantTopology()
        up = topo.route_to_hbm(42)
        down = topo.route_from_hbm(42)
        assert up.n_hops == down.n_hops
        assert up.hop_latency_cycles == down.hop_latency_cycles

    def test_serialization_cycles(self):
        topo = QuadrantTopology()
        route = topo.route(0, 64)
        assert route.serialization_cycles(64) == 1
        assert route.serialization_cycles(65) == 2
        assert route.zero_load_cycles(0) == route.hop_latency_cycles

    def test_invalid_cluster_raises(self):
        topo = QuadrantTopology(n_clusters=16)
        with pytest.raises(ValueError):
            topo.route(0, 16)

    def test_routes_are_chains_of_named_links(self):
        """Each link of a route starts where the one before it ends, from
        the source cluster to the destination cluster or the HBM, and the
        route down from the HBM retraces the route up."""
        topo = QuadrantTopology(n_clusters=64)

        def hops(route):
            return [link.split("->") for link in route.links]

        for src, dst in ((0, 1), (0, 63), (17, 42)):
            path = hops(topo.route(src, dst))
            assert path[0][0] == f"cluster[{src}]"
            assert path[-1][1] == f"cluster[{dst}]"
            assert all(a[1] == b[0] for a, b in zip(path, path[1:]))
        up = hops(topo.route_to_hbm(42))
        assert up[0][0] == "cluster[42]" and up[-1][1] == QuadrantTopology.HBM_NODE
        assert all(a[1] == b[0] for a, b in zip(up, up[1:]))
        down = hops(topo.route_from_hbm(42))
        assert [hop[::-1] for hop in reversed(down)] == up

    def test_locality_of_consecutive_clusters(self):
        topo = QuadrantTopology()
        assert topo.hop_distance(0, 1) <= topo.hop_distance(0, 100)


class TestHBM:
    def test_defaults(self):
        hbm = HBMSpec()
        assert hbm.size_bytes == int(1.5 * (1 << 30))
        assert hbm.access_latency_cycles == 100

    def test_burst_accounting(self):
        hbm = HBMSpec(max_burst_bytes=1024)
        assert hbm.n_bursts(0) == 0
        assert hbm.n_bursts(1024) == 1
        assert hbm.n_bursts(1025) == 2
        assert hbm.service_cycles(1024) == 100 + 16
        assert hbm.service_cycles(2048) == 2 * 100 + 32

    def test_zero_load_cycles(self):
        hbm = HBMSpec()
        assert hbm.zero_load_cycles(64) == 101
        assert hbm.serialization_cycles(0) == 0

    def test_fits(self):
        hbm = HBMSpec()
        assert hbm.fits(1 << 30)
        assert not hbm.fits(2 << 30)


class TestAreaEnergy:
    def test_cluster_area_near_paper(self):
        # 512 clusters should land near the 480 mm2 the paper reports.
        model = AreaModel()
        assert 400 < model.system_mm2(512) < 560

    def test_breakdown_sums_to_total(self):
        model = AreaModel()
        breakdown = model.breakdown(8)
        partial = sum(v for k, v in breakdown.items() if k != "total")
        assert partial == pytest.approx(breakdown["total"])

    def test_energy_components_positive(self):
        model = EnergyModel()
        assert model.analog_energy_mj(1e9) > 0
        assert model.hbm_traffic_energy_mj(1e6) > model.noc_traffic_energy_mj(1e6)

    def test_static_energy_scales_with_time(self):
        model = EnergyModel()
        short = model.static_energy_mj(100, 400, 1e-3)
        long = model.static_energy_mj(100, 400, 2e-3)
        assert long == pytest.approx(2 * short)

    def test_energy_breakdown_total(self):
        breakdown = EnergyBreakdown(analog_mj=1.0, digital_mj=2.0, hbm_traffic_mj=0.5)
        assert breakdown.total_mj == pytest.approx(3.5)
        assert breakdown.as_dict()["total"] == pytest.approx(3.5)


class TestArchConfig:
    def test_paper_configuration(self, paper_arch):
        assert paper_arch.n_clusters == 512
        assert paper_arch.total_cores == 8192
        assert paper_arch.ima.rows == 256
        assert 450 < paper_arch.peak_tops < 600

    def test_table1_contents(self, paper_arch):
        table = paper_arch.table1()
        assert table["Number of clusters"] == "512"
        assert table["IMA crossbar size"] == "256x256"
        assert "130" in table["Analog latency (MVM operation)"]
        assert "(1, 8, 4, 4, 4)" in table["Quadrant factor (HBM link,wrapper,L3,L2,L1)"]

    def test_scaled_configuration(self):
        arch = ArchConfig.scaled(n_clusters=64, crossbar_size=128, cores_per_cluster=8)
        assert arch.n_clusters == 64
        assert arch.ima.rows == 128
        assert arch.cores.n_cores == 8
        assert arch.interconnect.max_clusters >= 64

    def test_scaled_rejects_undersized_interconnect(self):
        with pytest.raises(ValueError):
            ArchConfig.scaled(n_clusters=64, quadrant_factors=[1, 1, 2, 2, 2])

    def test_scaled_keeps_the_paper_cluster(self, paper_arch):
        """Scaling the cluster count keeps the paper's cluster and HBM and
        sizes the interconnect for the new count."""
        smaller = ArchConfig.scaled(n_clusters=128)
        assert smaller.n_clusters == 128
        assert smaller.cluster == paper_arch.cluster
        assert smaller.hbm == paper_arch.hbm
        assert smaller.interconnect.max_clusters == 128

    def test_topology_matches_cluster_count(self, small_arch):
        topo = small_arch.topology()
        assert topo.n_clusters == small_arch.n_clusters

    def test_invalid_cluster_count(self):
        with pytest.raises(ValueError):
            ArchConfig(n_clusters=0)


class TestScaledValidation:
    """Validation behaviour of the ``ArchConfig.scaled(...)`` factory."""

    def test_rejects_non_positive_cluster_counts(self):
        with pytest.raises(ValueError, match="positive"):
            ArchConfig.scaled(n_clusters=0)
        with pytest.raises(ValueError, match="positive"):
            ArchConfig.scaled(n_clusters=-4)

    def test_rejects_invalid_crossbar_size(self):
        with pytest.raises(ValueError):
            ArchConfig.scaled(n_clusters=16, crossbar_size=0)
        with pytest.raises(ValueError):
            ArchConfig.scaled(n_clusters=16, crossbar_size=-128)

    def test_rejects_invalid_core_count(self):
        with pytest.raises(ValueError):
            ArchConfig.scaled(n_clusters=16, cores_per_cluster=0)

    def test_default_factors_cover_any_cluster_count(self):
        # The wrapper level must stretch to host whatever is requested.
        for n_clusters in (1, 3, 64, 65, 513, 2048):
            arch = ArchConfig.scaled(n_clusters=n_clusters)
            assert arch.n_clusters == n_clusters
            assert arch.interconnect.max_clusters >= n_clusters

    def test_explicit_factor_capacity_boundary(self):
        # 1*2*4*4*4 = 128 clusters: exactly at capacity fits, one more raises.
        factors = [1, 2, 4, 4, 4]
        arch = ArchConfig.scaled(n_clusters=128, quadrant_factors=factors)
        assert arch.interconnect.max_clusters == 128
        with pytest.raises(ValueError, match="host only"):
            ArchConfig.scaled(n_clusters=129, quadrant_factors=factors)

    def test_scaled_name_defaults_and_overrides(self):
        assert ArchConfig.scaled(n_clusters=32).name == "scaled-32x256"
        assert ArchConfig.scaled(n_clusters=32, name="custom").name == "custom"
