"""Shared fixtures for the test suite.

Expensive artefacts (the ResNet-18 graph, the paper-scale architecture and
the full mapping study) are session-scoped so the suite stays fast.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.arch import ArchConfig
from repro.core import MappingOptimizer, OptimizationLevel, lower_to_workload
from repro.dnn import models
from repro.sim import simulate


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_store(tmp_path_factory):
    """Point the default on-disk artifact store at a session tempdir.

    The scenarios CLI persists artifacts under ``$REPRO_CACHE_DIR`` (or
    ``~/.cache/repro``) by default; tests must neither pollute nor be
    warmed by the developer's real store.  Forked sweep workers inherit
    the environment, so the isolation covers parallel runs too.
    """
    root = tmp_path_factory.mktemp("artifact-store")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(root)
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


#: how long a test's thread-pool workers get to finish after it returns
POOL_THREAD_GRACE_S = 5.0


@pytest.fixture(autouse=True)
def _no_pool_thread_outlives_the_test():
    """Fail a test that leaves a ``ThreadPoolExecutor`` worker running.

    A pool that is never shut down keeps its workers waiting for work for
    as long as it is referenced, and nothing else in a passing test would
    show it; a parallel sweep that forks then forks a threaded process.
    Workers of a pool shut down without waiting get a few seconds to
    finish their work first.  Only workers started during the test count,
    so one leak fails one test.
    """

    def workers():
        return {
            thread
            for thread in threading.enumerate()
            if thread.name.startswith("ThreadPoolExecutor-")
        }

    before = workers()
    yield
    deadline = time.monotonic() + POOL_THREAD_GRACE_S
    alive = []
    for thread in workers() - before:
        thread.join(max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            alive.append(thread.name)
    if alive:
        pytest.fail(f"thread-pool workers outlive the test: {', '.join(sorted(alive))}")


@pytest.fixture(scope="session")
def paper_arch() -> ArchConfig:
    """The Table I architecture (512 clusters)."""
    return ArchConfig.paper()


@pytest.fixture(scope="session")
def small_arch() -> ArchConfig:
    """A 16-cluster system used by most integration tests."""
    return ArchConfig.scaled(n_clusters=16, crossbar_size=256)


@pytest.fixture(scope="session")
def tiny_arch() -> ArchConfig:
    """A 4-cluster system with small crossbars for edge-case tests."""
    return ArchConfig.scaled(n_clusters=4, crossbar_size=64)


@pytest.fixture(scope="session")
def resnet18_graph():
    """ResNet-18 on 256x256 inputs (the paper's workload)."""
    return models.resnet18(input_shape=(3, 256, 256))


@pytest.fixture(scope="session")
def tiny_graph():
    """A small residual CNN for fast end-to-end tests."""
    return models.tiny_cnn(input_shape=(3, 32, 32), num_classes=10)


@pytest.fixture(scope="session")
def resnet_optimizer(resnet18_graph, paper_arch):
    """Mapping optimizer for ResNet-18 on the paper architecture."""
    return MappingOptimizer(resnet18_graph, paper_arch, batch_size=16)


@pytest.fixture(scope="session")
def resnet_final_mapping(resnet_optimizer):
    """Final (fully optimised) mapping of ResNet-18."""
    return resnet_optimizer.build(OptimizationLevel.FINAL)


@pytest.fixture(scope="session")
def resnet_final_result(resnet_final_mapping, paper_arch):
    """Simulated batch-16 run of the final ResNet-18 mapping."""
    workload = lower_to_workload(resnet_final_mapping)
    return simulate(paper_arch, workload)
