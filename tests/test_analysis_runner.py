"""Tests for the analysis layer and the high-level runner (paper-facing results)."""

import math

import pytest

from repro import ArchConfig, OptimizationLevel, models, run_inference, run_optimization_study
from repro.analysis import (
    breakdown_summary,
    cluster_breakdown,
    compute_energy,
    compute_metrics,
    compute_waterfall,
    format_breakdown,
    format_comparison,
    format_group_efficiency,
    format_metrics,
    group_area_efficiency,
)
from repro.core import lower_to_workload
from repro.runner import format_study
from repro.sim import simulate


class TestMetrics:
    def test_headline_metrics_positive(self, resnet_final_result, resnet_final_mapping):
        metrics = compute_metrics(resnet_final_result, resnet_final_mapping)
        assert metrics.throughput_tops > 1.0
        assert metrics.images_per_second > 100
        assert metrics.energy_mj > 0
        assert metrics.power_w > 0
        assert metrics.energy_efficiency_tops_w > 0
        assert metrics.area_efficiency_gops_mm2 > 0
        assert metrics.used_clusters <= metrics.total_clusters

    def test_headline_metrics_in_paper_ballpark(self, resnet_final_result, resnet_final_mapping):
        """The final mapping should land in the same decade as the paper:
        20.2 TOPS, 3303 img/s, 42 GOPS/mm2, 6.5 TOPS/W."""
        metrics = compute_metrics(resnet_final_result, resnet_final_mapping)
        assert 10 < metrics.throughput_tops < 60
        assert 1500 < metrics.images_per_second < 12000
        assert 20 < metrics.area_efficiency_gops_mm2 < 130
        assert 1.5 < metrics.energy_efficiency_tops_w < 30

    def test_energy_breakdown_sums(self, resnet_final_result, resnet_final_mapping):
        energy = compute_energy(resnet_final_result, resnet_final_mapping)
        parts = energy.as_dict()
        total = parts.pop("total")
        assert total == pytest.approx(sum(parts.values()))
        assert parts["analog"] > 0

    def test_as_dict_round_trip(self, resnet_final_result, resnet_final_mapping):
        metrics = compute_metrics(resnet_final_result, resnet_final_mapping)
        flat = metrics.as_dict()
        assert flat["throughput_tops"] == pytest.approx(metrics.throughput_tops)


class TestBreakdown:
    def test_rows_cover_used_clusters(self, resnet_final_result, resnet_final_mapping):
        rows = cluster_breakdown(resnet_final_result, resnet_final_mapping)
        assert len(rows) >= resnet_final_mapping.n_used_clusters - 4
        makespan = resnet_final_result.makespan_cycles
        for row in rows[:50]:
            assert row.total == makespan
            assert row.sleep >= 0

    def test_mix_of_analog_and_digital_bound_clusters(self, resnet_final_result, resnet_final_mapping):
        rows = cluster_breakdown(resnet_final_result, resnet_final_mapping)
        bound = {row.analog_bound for row in rows}
        assert bound == {True, False}

    def test_summary_and_formatting(self, resnet_final_result, resnet_final_mapping):
        rows = cluster_breakdown(resnet_final_result, resnet_final_mapping)
        summary = breakdown_summary(rows)
        assert 0 < summary["mean_busy_fraction"] <= 1
        assert 0 < summary["analog_bound_fraction"] < 1
        text = format_breakdown(rows)
        assert "cluster" in text

    def test_empty_breakdown(self):
        assert breakdown_summary([])["n_clusters"] == 0


class TestWaterfall:
    def test_waterfall_monotonically_decreasing(self, resnet_final_mapping, resnet_final_result):
        waterfall = compute_waterfall(resnet_final_mapping, full_result=resnet_final_result)
        tops = [step.throughput_tops for step in waterfall.steps]
        assert tops == sorted(tops, reverse=True)
        assert waterfall.steps[0].name == "ideal"
        assert waterfall.total_degradation > 5

    def test_waterfall_step_lookup_and_format(self, resnet_final_mapping, resnet_final_result):
        waterfall = compute_waterfall(resnet_final_mapping, full_result=resnet_final_result)
        ideal = waterfall.step("ideal")
        assert ideal.throughput_tops == pytest.approx(resnet_final_mapping.arch.peak_tops)
        assert "communication" in waterfall.format()
        with pytest.raises(KeyError):
            waterfall.step("unknown")

    def test_global_mapping_step_matches_cluster_usage(self, resnet_final_mapping, resnet_final_result):
        waterfall = compute_waterfall(resnet_final_mapping, full_result=resnet_final_result)
        expected = resnet_final_mapping.arch.peak_tops * resnet_final_mapping.global_mapping_efficiency
        assert waterfall.step("global mapping").throughput_tops == pytest.approx(expected)

    def test_local_step_scales_the_global_bar(self, resnet_final_mapping, resnet_final_result):
        """The local-mapping bar is the global-mapping bar times the cell use
        of the used clusters, so its factor is 1 / local_mapping_efficiency
        (1.96 on ResNet-18 FINAL at 3x256x256), and the four factors
        multiply to the total."""
        waterfall = compute_waterfall(resnet_final_mapping, full_result=resnet_final_result)
        local = waterfall.step("local mapping").degradation_from_previous
        assert local == pytest.approx(1 / resnet_final_mapping.local_mapping_efficiency)
        assert local == pytest.approx(1.96, abs=0.005)
        factors = [step.degradation_from_previous for step in waterfall.steps[1:]]
        assert math.prod(factors) == pytest.approx(waterfall.total_degradation)


class TestGroupEfficiency:
    def test_groups_cover_resnet_shapes(self, resnet_final_mapping, paper_arch):
        compute_only = simulate(
            paper_arch, lower_to_workload(resnet_final_mapping, zero_communication=True)
        )
        rows = group_area_efficiency(resnet_final_mapping, compute_only)
        shapes = {row.ifm_shape for row in rows}
        assert "8x8x512" in shapes
        assert all(row.area_efficiency_gops_mm2 >= 0 for row in rows)
        assert sum(row.n_clusters for row in rows) <= resnet_final_mapping.arch.n_clusters

    def test_deepest_group_least_efficient_among_conv_groups(
        self, resnet_final_mapping, paper_arch
    ):
        compute_only = simulate(
            paper_arch, lower_to_workload(resnet_final_mapping, zero_communication=True)
        )
        rows = group_area_efficiency(resnet_final_mapping, compute_only)
        by_shape = {row.ifm_shape: row.area_efficiency_gops_mm2 for row in rows}
        # Fig. 7: the 8x8x512 group is far less area-efficient than the
        # 32x32x128 group.
        assert by_shape["8x8x512"] < by_shape["32x32x128"]
        text = format_group_efficiency(rows)
        assert "GOPS/mm2" in text


class TestRunner:
    def test_run_inference_small_system(self, small_arch, tiny_graph):
        report = run_inference(
            tiny_graph, small_arch, batch_size=2,
            with_waterfall=True, with_group_efficiency=True,
        )
        assert report.result.completed
        assert report.metrics.throughput_tops > 0
        assert report.waterfall is not None
        assert report.breakdown
        assert report.group_efficiency
        assert "throughput" in report.format()

    def test_run_optimization_study_ordering(self, small_arch):
        graph = models.residual_chain(n_blocks=2, input_shape=(3, 32, 32), width=16)
        reports = run_optimization_study(graph, small_arch, batch_size=2, with_breakdown=False)
        naive = reports[OptimizationLevel.NAIVE].metrics.throughput_tops
        final = reports[OptimizationLevel.FINAL].metrics.throughput_tops
        assert final >= naive
        table = format_study(reports)
        assert "naive" in table and "final" in table

    def test_report_formatting_helpers(self, small_arch, tiny_graph):
        report = run_inference(tiny_graph, small_arch, batch_size=2)
        assert "TOPS" in format_metrics(report.metrics)
        assert "mapping" in format_comparison([report.metrics])
