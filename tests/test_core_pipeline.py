"""Tests for costs, pipeline balancing, lowering and the mapping optimizer."""

import pytest

from repro.arch import ArchConfig, IMASpec
from repro.core import (
    BalanceResult,
    LayerSplit,
    MappingOptimizer,
    MappingOptions,
    NETWORK_INPUT_LABEL,
    OptimizationLevel,
    ReductionPlan,
    TilingPlan,
    analog_job_cost,
    balance_pipeline,
    broadcast_bytes_per_job,
    build_mapping,
    digital_job_cycles,
    lower_to_workload,
    naive_cluster_count,
    partial_sum_bytes_per_job,
    reduction_job_cycles,
)
from repro.core import replication
from repro.dnn import models
from repro.sim import ENDPOINT_HBM, ENDPOINT_STAGE, ENDPOINT_STORAGE, simulate


@pytest.fixture(scope="module")
def paper_arch():
    return ArchConfig.paper()


@pytest.fixture(scope="module")
def resnet():
    return models.resnet18()


@pytest.fixture(scope="module")
def tiling(resnet, paper_arch):
    return TilingPlan.choose(resnet, paper_arch.cluster, batch_size=16)


class TestCosts:
    def test_analog_cost_scales_with_output_size(self, resnet, tiling, paper_arch):
        convs = [n for n in resnet.analog_nodes() if n.kind == "conv2d"]
        early = convs[0]   # 128x128 output
        late = convs[-1]   # 8x8 output
        split_early = LayerSplit.for_node(early, paper_arch.ima)
        split_late = LayerSplit.for_node(late, paper_arch.ima)
        cost_early = analog_job_cost(early, split_early, tiling, paper_arch.cluster)
        cost_late = analog_job_cost(late, split_late, tiling, paper_arch.cluster)
        assert cost_early.cycles > cost_late.cycles
        assert cost_early.mvms > cost_late.mvms

    def test_analog_macs_per_job_sum_to_node_macs(self, resnet, tiling, paper_arch):
        node = resnet.analog_nodes()[1]
        split = LayerSplit.for_node(node, paper_arch.ima)
        cost = analog_job_cost(node, split, tiling, paper_arch.cluster)
        assert cost.macs * tiling.tiles_per_image == pytest.approx(node.macs, rel=0.01)

    def test_reduction_cycles_only_when_row_split(self, resnet, tiling, paper_arch):
        for node in resnet.analog_nodes():
            split = LayerSplit.for_node(node, paper_arch.ima)
            reduction = ReductionPlan.plan(split.n_row_splits)
            cycles = reduction_job_cycles(node, split, reduction, tiling, paper_arch.cluster)
            if split.n_row_splits == 1:
                assert cycles == 0
            else:
                assert cycles > 0

    def test_digital_cycles_shrink_with_parallelisation(self, resnet, tiling, paper_arch):
        pool = next(n for n in resnet.nodes if n.kind == "maxpool2d")
        serial = digital_job_cycles(pool, tiling, paper_arch.cluster, 1)
        parallel = digital_job_cycles(pool, tiling, paper_arch.cluster, 8)
        assert parallel < serial

    def test_broadcast_and_partial_sum_bytes(self, resnet, tiling, paper_arch):
        wide = next(
            n for n in resnet.analog_nodes()
            if LayerSplit.for_node(n, paper_arch.ima).needs_broadcast
        )
        split = LayerSplit.for_node(wide, paper_arch.ima)
        assert broadcast_bytes_per_job(wide, split, tiling) > 0
        assert partial_sum_bytes_per_job(wide, split, tiling) > 0
        narrow = resnet.analog_nodes()[0]
        narrow_split = LayerSplit.for_node(narrow, paper_arch.ima)
        assert broadcast_bytes_per_job(narrow, narrow_split, tiling) == 0


class TestBalancer:
    def test_balancing_reduces_bottleneck(self, resnet, paper_arch, tiling):
        result = balance_pipeline(resnet, paper_arch, tiling)
        assert result.bottleneck_after < result.bottleneck_before
        assert result.speedup > 2.0
        assert result.extra_clusters > 0

    def test_replication_targets_early_layers(self, resnet, paper_arch, tiling):
        result = balance_pipeline(resnet, paper_arch, tiling)
        stem = resnet.analog_nodes()[0].node_id
        assert result.replication.get(stem, 1) > 1

    def test_parallelisation_targets_pool_and_residual_layers(self, resnet, paper_arch, tiling):
        result = balance_pipeline(resnet, paper_arch, tiling)
        parallelised_kinds = {
            resnet.node(node_id).kind for node_id in result.parallelization
        }
        assert parallelised_kinds <= {"maxpool2d", "add", "avgpool2d", "relu", "flatten"}
        assert "maxpool2d" in parallelised_kinds

    def test_budget_respected(self, resnet, paper_arch, tiling):
        budget = 20
        result = balance_pipeline(resnet, paper_arch, tiling, cluster_budget=budget)
        assert result.extra_clusters <= budget

    def test_zero_budget_keeps_naive(self, resnet, paper_arch, tiling):
        result = balance_pipeline(resnet, paper_arch, tiling, cluster_budget=0)
        assert result.extra_clusters == 0
        assert result.replication == {}
        assert result.parallelization == {}

    def test_naive_cluster_count_consistent(self, resnet, paper_arch):
        count = naive_cluster_count(resnet, paper_arch)
        mapping = build_mapping(resnet, paper_arch, MappingOptions(name="naive"))
        assert count == mapping.n_used_clusters


def _rescanning_balance(graph, arch, tiling, cluster_budget, max_replication):
    """The balancer's greedy as first written, rescanning every candidate
    per step: the reference the heap-driven loop must reproduce."""
    candidates = replication._candidates(graph, arch, tiling, max_replication)
    bottleneck_before = max((c.effective_cycles for c in candidates.values()), default=0)
    spent = 0
    while True:
        improvable = [c for c in candidates.values() if c.can_improve]
        if not improvable:
            break
        bottleneck = max(improvable, key=lambda c: c.effective_cycles)
        overall = max(c.effective_cycles for c in candidates.values())
        if bottleneck.effective_cycles < overall:
            break
        if spent + bottleneck.increment_cost > cluster_budget:
            break
        bottleneck.factor += 1
        spent += bottleneck.increment_cost
    return BalanceResult(
        replication={
            c.node_id: c.factor for c in candidates.values() if c.is_analog and c.factor > 1
        },
        parallelization={
            c.node_id: c.factor for c in candidates.values() if not c.is_analog and c.factor > 1
        },
        extra_clusters=spent,
        bottleneck_before=bottleneck_before,
        bottleneck_after=max((c.effective_cycles for c in candidates.values()), default=0),
    )


class TestBalancerReference:
    """``balance_pipeline`` against the rescanning loop, over the zoo."""

    @pytest.mark.parametrize("model", models.__all__)
    def test_identical_to_rescanning_loop(self, model, paper_arch):
        graph = getattr(models, model)()
        tiling = TilingPlan.choose(graph, paper_arch.cluster, batch_size=16)
        default_budget = max(
            0, paper_arch.n_clusters - naive_cluster_count(graph, paper_arch) - 4
        )
        for max_replication in (1, 3, 64):
            for budget in (None, 0, 7, 40, 1000):
                result = balance_pipeline(
                    graph, paper_arch, tiling,
                    cluster_budget=budget, max_replication=max_replication,
                )
                reference = _rescanning_balance(
                    graph, paper_arch, tiling,
                    default_budget if budget is None else budget, max_replication,
                )
                case = (max_replication, budget)
                assert result == reference, case
                assert list(result.replication.items()) == list(
                    reference.replication.items()
                ), case
                assert list(result.parallelization.items()) == list(
                    reference.parallelization.items()
                ), case


class TestLowering:
    @pytest.fixture(scope="class")
    def final_mapping(self, resnet, paper_arch):
        optimizer = MappingOptimizer(resnet, paper_arch, batch_size=16)
        return optimizer.build(OptimizationLevel.FINAL)

    def test_one_stage_per_mapped_node(self, final_mapping):
        workload = lower_to_workload(final_mapping)
        assert len(workload.stages) == len(final_mapping.layers)
        assert workload.n_jobs == final_mapping.tiling.n_jobs

    def test_network_input_fetched_from_hbm(self, final_mapping):
        workload = lower_to_workload(final_mapping)
        first = workload.stages[0]
        assert any(
            flow.kind == ENDPOINT_HBM and flow.label == NETWORK_INPUT_LABEL
            for flow in first.inputs
        )

    def test_residual_flows_use_storage_in_final_mapping(self, final_mapping):
        workload = lower_to_workload(final_mapping)
        residual_flows = [
            flow
            for stage in workload.stages
            for flow in stage.inputs + stage.outputs
            if flow.label.startswith("residual")
        ]
        assert residual_flows
        assert all(flow.kind == ENDPOINT_STORAGE for flow in residual_flows)
        assert all(flow.transfers_per_job >= 1 for flow in residual_flows)

    def test_residual_flows_use_hbm_in_naive_mapping(self, resnet, paper_arch):
        naive = build_mapping(resnet, paper_arch, MappingOptions(name="naive"))
        workload = lower_to_workload(naive)
        residual_flows = [
            flow
            for stage in workload.stages
            for flow in stage.outputs
            if flow.label.startswith("residual")
        ]
        assert residual_flows
        assert all(flow.kind == ENDPOINT_HBM for flow in residual_flows)

    def test_stage_graph_is_consistent(self, final_mapping, paper_arch):
        workload = lower_to_workload(final_mapping)
        workload.validate(paper_arch.n_clusters)
        stage_ids = {stage.stage_id for stage in workload.stages}
        for stage in workload.stages:
            for flow in stage.inputs + stage.outputs:
                if flow.kind == ENDPOINT_STAGE:
                    assert flow.stage_id in stage_ids

    def test_zero_communication_variant(self, final_mapping):
        workload = lower_to_workload(final_mapping, zero_communication=True)
        assert all(
            flow.bytes_per_job == 0
            for stage in workload.stages
            for flow in stage.inputs + stage.outputs
        )
        assert all(stage.cost.intra_stage_bytes_per_job == 0 for stage in workload.stages)

    def test_totals_match_graph(self, final_mapping, resnet):
        workload = lower_to_workload(final_mapping)
        batch = workload.batch_size
        expected_macs = sum(n.macs for n in resnet.analog_nodes()) * batch
        assert workload.total_macs == pytest.approx(expected_macs, rel=0.02)


class TestOptimizer:
    def test_levels_produce_distinct_options(self, resnet, paper_arch):
        optimizer = MappingOptimizer(resnet, paper_arch, batch_size=16)
        naive = optimizer.options_for(OptimizationLevel.NAIVE)
        replicated = optimizer.options_for(OptimizationLevel.REPLICATED)
        final = optimizer.options_for(OptimizationLevel.FINAL)
        assert naive.replication == {}
        assert replicated.replication
        assert replicated.residual_mode == "hbm"
        assert final.residual_mode == "spare_l1"

    def test_each_level_builds_the_mapping_its_options_describe(self, resnet, paper_arch):
        optimizer = MappingOptimizer(resnet, paper_arch, batch_size=16)
        for level in OptimizationLevel.all():
            options = optimizer.options_for(level)
            mapping = optimizer.build(level)
            assert mapping.policy == level.value
            assert mapping.options == options
            replicated = {
                node_id: layer.replication
                for node_id, layer in mapping.layers.items()
                if layer.replication > 1
            }
            assert replicated == options.replication
            assert mapping.n_used_clusters <= paper_arch.n_clusters

    def test_end_to_end_ordering_of_levels(self, resnet, paper_arch):
        """Fig. 5A: each optimisation level improves (or at least preserves) throughput."""
        optimizer = MappingOptimizer(resnet, paper_arch, batch_size=4)
        makespans = {}
        for level in OptimizationLevel.all():
            mapping = optimizer.build(level)
            result = simulate(paper_arch, lower_to_workload(mapping))
            makespans[level] = result.makespan_cycles
        assert makespans[OptimizationLevel.REPLICATED] < makespans[OptimizationLevel.NAIVE]
        assert makespans[OptimizationLevel.FINAL] <= makespans[OptimizationLevel.REPLICATED]

    def test_small_network_on_small_system(self, small_arch=None):
        arch = ArchConfig.scaled(16)
        graph = models.tiny_cnn()
        optimizer = MappingOptimizer(graph, arch, batch_size=2)
        mapping = optimizer.build(OptimizationLevel.FINAL)
        result = simulate(arch, lower_to_workload(mapping))
        assert result.completed
