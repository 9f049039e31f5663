"""Shared fixtures for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper.  The
expensive artefacts (the three ResNet-18 mappings and their simulations)
are computed once per session and shared, so the whole harness runs in a
few minutes on a laptop — the same order of magnitude the paper quotes for
its GVSOC runs.
"""

from __future__ import annotations

import pytest

from repro import ArchConfig, OptimizationLevel, models
from repro.analysis import compute_metrics
from repro.core import MappingOptimizer, lower_to_workload
from repro.sim import simulate

#: batch size used throughout the paper's evaluation.
PAPER_BATCH = 16


@pytest.fixture(scope="session")
def paper_arch() -> ArchConfig:
    """Table I architecture."""
    return ArchConfig.paper()


@pytest.fixture(scope="session")
def resnet18_graph():
    """ResNet-18 on 256x256 inputs."""
    return models.resnet18(input_shape=(3, 256, 256))


@pytest.fixture(scope="session")
def optimizer(resnet18_graph, paper_arch):
    """Mapping optimizer shared by all benchmark modules."""
    return MappingOptimizer(resnet18_graph, paper_arch, batch_size=PAPER_BATCH)


@pytest.fixture(scope="session")
def study(optimizer, paper_arch):
    """Mappings, workloads, simulation results and metrics for all three levels."""
    results = {}
    for level in OptimizationLevel.all():
        mapping = optimizer.build(level)
        workload = lower_to_workload(mapping)
        result = simulate(paper_arch, workload)
        metrics = compute_metrics(result, mapping, name=level.value)
        results[level] = {
            "mapping": mapping,
            "workload": workload,
            "result": result,
            "metrics": metrics,
        }
    return results


@pytest.fixture(scope="session")
def final_entry(study):
    """The fully-optimised (paper headline) design point."""
    return study[OptimizationLevel.FINAL]


@pytest.fixture(scope="session")
def compute_only_result(final_entry, paper_arch):
    """Final mapping simulated with all communication suppressed (Fig. 6/7)."""
    workload = lower_to_workload(final_entry["mapping"], zero_communication=True)
    return simulate(paper_arch, workload)
