"""Tests for the mapping substrates: splits, tiling, reductions, allocation, mapping."""

import pytest

from repro.arch import ArchConfig, IMASpec
from repro.core import (
    AllocationError,
    ClusterAllocator,
    LayerSplit,
    MappingOptions,
    ReductionPlan,
    ResidualPlan,
    TilingPlan,
    assign_groups,
    build_mapping,
    naive_cluster_count,
)
from repro.dnn import models


class TestLayerSplit:
    def test_fits_single_crossbar(self):
        split = LayerSplit.for_matrix(147, 64, IMASpec())
        assert split.n_crossbars == 1
        assert not split.needs_reduction
        assert not split.needs_broadcast
        assert split.cell_utilization == pytest.approx(147 * 64 / 65536)

    def test_row_split_only(self):
        # Stage-1 ResNet convolution: 64*3*3 = 576 rows, 64 columns.
        split = LayerSplit.for_matrix(576, 64, IMASpec())
        assert split.n_row_splits == 3
        assert split.n_col_splits == 1
        assert split.needs_reduction
        assert split.rows_per_split == 192

    def test_row_and_col_split(self):
        # Deepest ResNet convolution: 512*3*3 = 4608 rows, 512 columns.
        split = LayerSplit.for_matrix(4608, 512, IMASpec())
        assert split.n_row_splits == 18
        assert split.n_col_splits == 2
        assert split.n_crossbars == 36
        assert split.needs_broadcast

    def test_for_node(self, resnet18_graph):
        analog = resnet18_graph.analog_nodes()
        split = LayerSplit.for_node(analog[0], IMASpec())
        assert split is not None and split.n_crossbars >= 1
        digital = resnet18_graph.digital_nodes()[0]
        assert LayerSplit.for_node(digital, IMASpec()) is None

    def test_describe_mentions_grid(self):
        split = LayerSplit.for_matrix(4608, 512, IMASpec())
        assert "18x2" in split.describe()

    def test_invalid_matrix(self):
        with pytest.raises(ValueError):
            LayerSplit.for_matrix(0, 10, IMASpec())


class TestTilingPlan:
    def test_resnet_needs_tiling(self, resnet18_graph, paper_arch):
        plan = TilingPlan.choose(resnet18_graph, paper_arch.cluster, batch_size=16)
        assert plan.tiles_per_image > 1
        assert plan.n_jobs == plan.tiles_per_image * 16
        assert plan.fits(resnet18_graph, paper_arch.cluster)

    def test_small_network_needs_no_tiling(self, tiny_graph, paper_arch):
        plan = TilingPlan.choose(tiny_graph, paper_arch.cluster, batch_size=4)
        assert plan.tiles_per_image == 1

    def test_tile_bytes_scale_inversely_with_tiles(self, resnet18_graph, paper_arch):
        node = resnet18_graph.analog_nodes()[0]
        one = TilingPlan(tiles_per_image=1, batch_size=1)
        four = TilingPlan(tiles_per_image=4, batch_size=1)
        assert four.input_tile_bytes(node) <= one.input_tile_bytes(node)
        assert four.output_tile_bytes(node) == pytest.approx(
            one.output_tile_bytes(node) / 4, rel=0.05
        )

    def test_chosen_tiling_is_the_smallest_that_fits(self, resnet18_graph, paper_arch):
        """The chosen tile count fits every working set in the L1 budget,
        and half of it does not."""
        cluster = paper_arch.cluster
        plan = TilingPlan.choose(resnet18_graph, cluster, batch_size=16)
        budget = cluster.l1_size_bytes * plan.l1_budget_fraction
        assert max(map(plan.working_set_bytes, resnet18_graph.nodes)) <= budget
        half = TilingPlan(tiles_per_image=plan.tiles_per_image // 2, batch_size=16)
        assert not half.fits(resnet18_graph, cluster)

    def test_describe(self, resnet18_graph, paper_arch):
        plan = TilingPlan.choose(resnet18_graph, paper_arch.cluster, batch_size=2)
        info = plan.describe(resnet18_graph)
        assert info["tiles_per_image"] == plan.tiles_per_image
        assert info["worst_working_set_bytes"] > 0

    def test_infeasible_tiling_raises(self, resnet18_graph):
        from repro.arch import ClusterSpec

        tiny_l1 = ClusterSpec(l1_size_bytes=1024)
        with pytest.raises(ValueError):
            TilingPlan.choose(resnet18_graph, tiny_l1, batch_size=1, max_tiles=4)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TilingPlan(tiles_per_image=0, batch_size=1)
        with pytest.raises(ValueError):
            TilingPlan(tiles_per_image=1, batch_size=1, l1_budget_fraction=0.0)


class TestReductionPlan:
    def test_no_reduction_for_single_partial(self):
        plan = ReductionPlan.plan(1)
        assert not plan.needs_reduction
        assert plan.n_clusters == 0
        assert plan.cycles_per_job(1000, ArchConfig.paper().cores) == 0

    def test_small_fanin_runs_on_producers(self):
        plan = ReductionPlan.plan(5)
        assert plan.needs_reduction
        assert not plan.dedicated
        assert plan.n_clusters == 0

    def test_large_fanin_gets_dedicated_tree(self):
        plan = ReductionPlan.plan(18)
        assert plan.dedicated
        assert plan.n_clusters > 0
        assert plan.n_levels >= 2
        # Logarithmically decreasing cluster counts.
        counts = [level.n_clusters for level in plan.levels]
        assert counts == sorted(counts, reverse=True)

    def test_tree_cycles_smaller_than_flat(self):
        cores = ArchConfig.paper().cores
        flat = ReductionPlan(n_partials=18, dedicated=False, levels=())
        tree = ReductionPlan.plan(18)
        assert tree.cycles_per_job(100_000, cores) < flat.cycles_per_job(100_000, cores)

    def test_total_ops(self):
        plan = ReductionPlan.plan(4)
        assert plan.total_ops_per_job(1000) == 3000

    def test_describe(self):
        assert "no reduction" in ReductionPlan.plan(1).describe()
        assert "dedicated" in ReductionPlan.plan(20).describe()

    def test_invalid(self):
        with pytest.raises(ValueError):
            ReductionPlan.plan(0)


class TestAllocator:
    def test_sequential_allocation(self):
        allocator = ClusterAllocator(8)
        first = allocator.allocate(3, "a")
        second = allocator.allocate(2, "b")
        assert first == (0, 1, 2)
        assert second == (3, 4)
        assert allocator.remaining == 3
        assert allocator.owner_of(4) == "b"
        assert allocator.owner_of(7) is None
        assert allocator.utilization() == pytest.approx(5 / 8)

    def test_exhaustion_raises(self):
        allocator = ClusterAllocator(4)
        allocator.allocate(4, "a")
        with pytest.raises(AllocationError):
            allocator.allocate(1, "b")

    def test_zero_allocation(self):
        allocator = ClusterAllocator(4)
        assert allocator.allocate(0, "none") == ()


class TestResidualPlan:
    def test_resnet_has_one_residual_per_block(self, resnet18_graph, paper_arch):
        tiling = TilingPlan.choose(resnet18_graph, paper_arch.cluster, 16)
        edges = ResidualPlan.find_edges(resnet18_graph, tiling)
        assert len(edges) == 8
        labels = {edge.label for edge in edges}
        assert len(labels) == 8  # labels are unique

    def test_hbm_mode_uses_no_storage_clusters(self, resnet18_graph, paper_arch):
        tiling = TilingPlan.choose(resnet18_graph, paper_arch.cluster, 16)
        plan = ResidualPlan.build(resnet18_graph, tiling, mode=ResidualPlan.MODE_HBM)
        assert plan.uses_hbm
        assert plan.storage_clusters == ()

    def test_spare_l1_mode_allocates_storage(self, resnet18_graph, paper_arch):
        tiling = TilingPlan.choose(resnet18_graph, paper_arch.cluster, 16)
        allocator = ClusterAllocator(paper_arch.n_clusters)
        plan = ResidualPlan.build(
            resnet18_graph, tiling, mode=ResidualPlan.MODE_SPARE_L1,
            allocator=allocator, l1_size_bytes=paper_arch.cluster.l1_size_bytes,
        )
        assert not plan.uses_hbm
        # The paper needs ~1.6 MB of residual storage -> 2-4 spare clusters.
        assert 1 <= len(plan.storage_clusters) <= 4
        assert plan.total_storage_bytes > 1 << 20
        for edge in plan.edges:
            assert plan.storage_cluster_for(edge.label) in plan.storage_clusters

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            ResidualPlan(mode="dram", edges=())


class TestNetworkMapping:
    def test_group_assignment_matches_fig2(self, resnet18_graph):
        groups = assign_groups(resnet18_graph)
        # input node gets no group, six IFM groups plus the classifier tail.
        assert groups[0] == -1
        assert max(groups.values()) >= 5

    def test_naive_mapping_structure(self, resnet18_graph, paper_arch):
        mapping = build_mapping(resnet18_graph, paper_arch, MappingOptions(name="naive"))
        # every non-input node is mapped
        assert len(mapping.layers) == len(resnet18_graph) - 1
        assert mapping.n_used_clusters == naive_cluster_count(resnet18_graph, paper_arch)
        assert 0 < mapping.global_mapping_efficiency < 1
        assert 0 < mapping.local_mapping_efficiency <= 1
        # stored parameters equal the network parameters (no replication)
        analog_params = sum(n.param_count for n in resnet18_graph.analog_nodes())
        assert mapping.total_stored_params == analog_params

    def test_replication_increases_clusters_and_params(self, resnet18_graph, paper_arch):
        naive = build_mapping(resnet18_graph, paper_arch, MappingOptions(name="naive"))
        stem_node = resnet18_graph.analog_nodes()[0].node_id
        options = MappingOptions(replication={stem_node: 4}, name="replicated")
        replicated = build_mapping(resnet18_graph, paper_arch, options)
        assert replicated.n_used_clusters > naive.n_used_clusters
        assert replicated.total_stored_params > naive.total_stored_params
        assert replicated.layer(stem_node).replication == 4

    def test_layer_mapping_cluster_sets_are_disjoint(self, resnet_final_mapping):
        seen = set()
        for layer in resnet_final_mapping.layers.values():
            compute_only = {
                c
                for replica in layer.analog_replicas
                for c in replica
            } | set(layer.reduce_clusters)
            if not layer.is_analog:
                compute_only |= set(layer.digital_clusters)
            assert not (compute_only & seen)
            seen |= compute_only

    def test_mapping_within_cluster_budget(self, resnet_final_mapping, paper_arch):
        assert resnet_final_mapping.n_used_clusters <= paper_arch.n_clusters
        counts = resnet_final_mapping.clusters_per_group()
        assert sum(counts.values()) >= resnet_final_mapping.n_used_clusters - 4

    def test_summary_renders(self, resnet_final_mapping):
        text = resnet_final_mapping.summary()
        assert "conv2d" in text
        assert str(resnet_final_mapping.n_used_clusters) in text

    def test_mapping_overflows_small_system(self, resnet18_graph):
        small = ArchConfig.scaled(16)
        with pytest.raises(AllocationError):
            build_mapping(resnet18_graph, small, MappingOptions(name="naive"))
