"""Ablation studies beyond the paper's figures.

Sec. VI discusses — without quantifying — several design levers: larger
crossbars, more/fewer clusters, the batch size that makes pipelining
worthwhile, and the cost of staging residuals in HBM.  These sweeps
quantify them with the declarative scenario subsystem: each study is a
:class:`~repro.scenarios.ScenarioGrid` executed by a shared
:class:`~repro.scenarios.SweepRunner`, so all sweeps pool one artifact
cache (the ResNet-18 graph is built once, repeated design points are
simulated once).  They run on reduced configurations so the whole harness
stays fast.
"""

import dataclasses

import pytest

from repro import ArchConfig, OptimizationLevel, Scenario, ScenarioGrid, SweepRunner
from repro.arch import HBMSpec
from repro.scenarios import (
    ArtifactCache,
    graph_stage,
    mapping_stage,
    simulation_stage,
    workload_stage,
)

#: every ablation sweeps around this ResNet-18 design point.
BASE = Scenario(model="resnet18", input_shape=(3, 256, 256), level="final")


@pytest.fixture(scope="module")
def runner():
    """One sweep runner (and artifact cache) shared by every ablation."""
    return SweepRunner(max_workers=1, cache=ArtifactCache())


def test_ablation_crossbar_size(runner):
    """Larger crossbars need fewer clusters but lose cell utilisation.

    Crossbars smaller than 256x256 are omitted: ResNet-18's deepest layers
    would then need more clusters than the system has (the feasibility cliff
    the paper's choice of 256x256 avoids).
    """
    print("\nAblation — crossbar size (256 clusters, batch 4)")
    grid = ScenarioGrid.from_axes(
        base=BASE.replace(n_clusters=256, batch_size=4),
        crossbar_size=(256, 384, 512),
    )
    outcomes = {o.scenario.crossbar_size: o for o in runner.run(grid)}
    for size, outcome in outcomes.items():
        print(
            f"  {size}x{size}: {outcome.metrics.throughput_tops:6.2f} TOPS, "
            f"{outcome.mapping.n_used_clusters:3d} clusters, "
            f"local mapping eff {outcome.mapping.local_mapping_efficiency:.2f}"
        )
    from repro.core import naive_cluster_count

    resnet = graph_stage(BASE, runner.cache)  # the cached ResNet-18 graph
    small_xbar_footprint = naive_cluster_count(
        resnet, outcomes[256].scenario.build_arch()
    )
    large_xbar_footprint = naive_cluster_count(
        resnet, outcomes[512].scenario.build_arch()
    )
    print(f"  naive footprint: {small_xbar_footprint} clusters (256x256) vs "
          f"{large_xbar_footprint} clusters (512x512)")
    assert large_xbar_footprint < small_xbar_footprint
    assert (
        outcomes[512].mapping.local_mapping_efficiency
        < outcomes[256].mapping.local_mapping_efficiency
    )


def test_ablation_batch_size(runner):
    """Pipelining needs batches: throughput collapses at batch 1 (mobile regime)."""
    print("\nAblation — batch size (512 clusters)")
    grid = ScenarioGrid.from_axes(base=BASE, batch_size=(1, 4, 16))
    tops = {}
    for outcome in runner.run(grid):
        batch = outcome.scenario.batch_size
        tops[batch] = outcome.metrics.throughput_tops
        print(f"  batch {batch:2d}: {tops[batch]:6.2f} TOPS, "
              f"{outcome.metrics.latency_per_image_ms:6.2f} ms/image")
    assert tops[16] > tops[4] > tops[1]
    assert tops[16] > 3 * tops[1]


def test_ablation_residual_storage_location(runner):
    """Residuals in HBM vs spare L1 (the Sec. V.4 comparison, quantified)."""
    print("\nAblation — residual storage location (batch 16)")
    grid = ScenarioGrid.from_axes(
        base=BASE.replace(batch_size=16),
        level=(OptimizationLevel.REPLICATED.value, OptimizationLevel.FINAL.value),
    )
    makespans = {}
    for outcome in runner.run(grid):
        level = outcome.scenario.level
        makespans[level] = outcome.simulation.makespan_ms
        where = "spare L1" if level == OptimizationLevel.FINAL.value else "HBM"
        print(f"  residuals in {where:8s}: {makespans[level]:6.2f} ms")
    gain = (
        makespans[OptimizationLevel.REPLICATED.value]
        / makespans[OptimizationLevel.FINAL.value]
    )
    print(f"  speed-up from on-chip residuals: {gain:.2f}x (paper: 1.9x)")
    assert gain > 1.2


def test_ablation_hbm_burst_size(runner):
    """Coarser HBM bursts recover part of the residual-in-HBM penalty.

    The HBM burst size is not a scenario axis (it needs a hand-built
    ``ArchConfig``), so this ablation drives the composable stage pipeline
    directly — same cache, custom architecture.
    """
    base = ArchConfig.paper()
    cache = runner.cache
    resnet = graph_stage(BASE, cache)  # the cached ResNet-18 graph
    print("\nAblation — HBM burst size with residuals staged in HBM (batch 8)")
    makespans = {}
    for burst in (512, 1024, 4096):
        arch = dataclasses.replace(base, hbm=HBMSpec(max_burst_bytes=burst))
        mapping = mapping_stage(
            resnet, arch, 8, OptimizationLevel.REPLICATED, cache=cache
        )
        workload = workload_stage(mapping, cache=cache)
        result = simulation_stage(arch, workload, cache=cache)
        makespans[burst] = result.makespan_cycles
        print(f"  burst {burst:5d} B: {result.makespan_ms:6.2f} ms")
    assert makespans[4096] <= makespans[512]


def test_bench_small_system_flow():
    """The uncached flow on a quarter-size system (mapping + simulation, batch 2)."""
    from repro import run_inference

    scenario = BASE.replace(n_clusters=384, batch_size=2)
    graph = scenario.build_graph()
    arch = scenario.build_arch()
    report = run_inference(graph, arch, batch_size=2, with_breakdown=False)
    assert report.result.completed
