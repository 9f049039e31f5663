"""Benchmark runner: times the tier-0 scenarios and tracks the trajectory.

Run from the repo root::

    PYTHONPATH=src python -m repro.perf.bench            # write BENCH_PR<n>.json
    PYTHONPATH=src python -m repro.perf.bench --check    # exit 1 on >20% regression
    PYTHONPATH=src python -m repro.perf.bench --quick    # smaller, faster inputs

Scenarios (each emits ``<scenario>.<metric>`` keys; ``*_s`` keys are
wall-clock seconds, lower is better, and are the ones regression-checked;
``*_io_s`` keys are disk-bound timings gated at the looser
:data:`IO_REGRESSION_THRESHOLD`):

* ``micro_mvm`` — one tiled MVM through :class:`~repro.aimc.TiledMatrix`
  on both backends;
* ``analog_forward`` — a full ResNet-18 analog forward pass through
  :class:`~repro.aimc.AnalogExecutor` on both backends, the microbenchmark
  behind the vectorized-engine speedup claim;
* ``final_mapping`` — the event-driven ``simulate()`` of the fully
  optimised paper mapping, the tier-0 system-simulation hot path (built
  through the ``repro.scenarios`` stage pipeline; the timed region is the
  simulation stage alone);
* ``scenario_sweep`` — a three-axis design-space sweep through the
  scenario subsystem, cold (empty artifact cache) vs warm (every mapping
  and simulation served from the cache), the macrobenchmark behind the
  repeated-sweep speedup claim;
* ``sweep_persist`` — the same grid against the persistent on-disk
  artifact store: cold (empty store, every artifact built and spilled)
  vs warm-from-disk (fresh process-local cache, every mapping and
  simulation rehydrated from the store), the macrobenchmark behind the
  cross-invocation/cross-worker reuse claim;
* ``accuracy_sweep`` — a noise-preset x crossbar-size accuracy sweep
  through the scenario subsystem's ``execution`` axis (every point runs
  the analog functional model against the digital reference), cold vs
  warm: the warm run must serve every accuracy record — and the shared
  digital reference outputs — from the cache;
* ``sim_engine`` — a pure event-kernel microbenchmark (servers + credit
  stores churning a synthetic pipeline, no numpy, no workload build),
  isolating the dispatch-loop cost the bucketed engine optimises;
* ``sim_engine_table`` — the two event kernels head to head on the
  FINAL-mapping workload (compiled table lane vs object kernel):
  bit-identical results, so the speedup ratio isolates the dispatch
  mechanism and stays robust to host-speed drift;
* ``large_batch_sim`` — a batch-64 simulation of the naive paper mapping
  (256 pipeline jobs), full event-driven run vs the exact steady-state
  fast-forward (:mod:`repro.sim.steady_state`); the ``ff_speedup`` ratio
  is the macrobenchmark behind the fast-forward claim and both timings
  are regression-gated.
* ``fast_forward_final`` — the paper's headline mapping under the
  fast-forward: a 256-job batch-64 FINAL-mapping simulate, full run vs
  ``fast_forward=True`` on the reference object kernel (bit-identical
  results, asserted in ``tests/test_sim_fast_forward.py``); the
  ``ff_speedup`` ratio is the macrobenchmark behind the replica-symmetry
  certification claim and both timings are regression-gated.

The analog scenarios use a deterministic-read PCM config (programming
noise and converters on, fixed drift time, read noise off) so the
vectorized backend's device-state cache is active — the configuration the
fast path is designed for.

``--profile`` runs every selected scenario once under :mod:`cProfile` and
prints the top-20 functions by internal time, so perf work starts from
evidence instead of guesses; profile runs write no trajectory point.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..aimc import AnalogExecutor, NoiseModel, TiledMatrix
from ..core import OptimizationLevel
from ..dnn import models
from ..dnn.numerics import initialize_parameters, random_input
from ..sim.engine import CreditStore, Engine, Server
from ..sim.system import simulate
from ..sim.workload import PoissonArrivals
from ..scenarios import (
    ArtifactCache,
    ArtifactStore,
    Scenario,
    ScenarioGrid,
    SweepRunner,
    graph_stage,
    mapping_stage,
    simulation_stage,
    workload_stage,
)

#: relative slowdown versus the previous trajectory point that counts as a
#: regression (0.20 = 20% slower).
REGRESSION_THRESHOLD = 0.20

#: absolute slack (seconds) added on top of the relative threshold so that
#: scheduler jitter on sub-millisecond timings cannot trip the gate.
REGRESSION_SLACK_S = 1e-4

#: timings whose keys end in ``_io_s`` are dominated by filesystem latency
#: (the persistent-store scenarios); on containerised/CI storage their
#: best-of jitter routinely exceeds the 20% code-regression threshold, so
#: they are gated at this looser threshold instead — still catching
#: catastrophic regressions (a payload accidentally dragging the graph
#: along is a ~10x slowdown) without flaking on storage noise.
IO_REGRESSION_THRESHOLD = 1.5

#: trajectory files are ``BENCH_PR<n>.json`` at the repo root.
_RESULT_NAME = re.compile(r"^BENCH_PR(\d+)\.json$")


@dataclass(frozen=True)
class BenchConfig:
    """Sizes and repeat counts of the benchmark scenarios."""

    repeats: int = 5
    #: weight matrix of the tiled-MVM microbenchmark.
    micro_matrix_shape: Tuple[int, int] = (1024, 1024)
    micro_batch: int = 64
    crossbar_size: int = 256
    #: input of the ResNet-18 analog forward pass.  Deliberately small: the
    #: microbenchmark isolates the per-tile dispatch / device-state-derivation
    #: overhead the vectorized engine removes, which is independent of the
    #: pixel count, rather than the shared BLAS work that grows with it.
    forward_input: Tuple[int, int, int] = (3, 16, 16)
    forward_classes: int = 100
    #: batch size of the FINAL-mapping simulation (the paper uses 16).
    sim_batch: int = 16
    #: input of the FINAL-mapping network (the paper maps 256x256 inputs).
    sim_input: Tuple[int, int, int] = (3, 256, 256)
    #: cluster count of the simulated system; ``None`` = the paper's 512.
    sim_clusters: Optional[int] = None
    #: crossbar size of the scaled simulated system (paper value 256; the
    #: FINAL ResNet-18 mapping does not fit on smaller crossbars).
    sim_crossbar: int = 256
    #: the three-axis sweep of the scenario-cache macrobenchmark.  A small
    #: network keeps one grid run in the tens of milliseconds: the scenario
    #: times the orchestration + cache layer, not the simulator itself
    #: (``final_mapping`` covers that).
    sweep_model: str = "tiny_cnn"
    sweep_input: Tuple[int, int, int] = (3, 32, 32)
    sweep_classes: int = 10
    sweep_crossbars: Tuple[int, ...] = (128, 256)
    sweep_clusters: Tuple[int, ...] = (32, 64)
    sweep_batches: Tuple[int, ...] = (2, 4)
    #: noise presets of the accuracy-sweep macrobenchmark (crossed with
    #: ``sweep_crossbars`` on the ``sweep_model`` network).
    accuracy_presets: Tuple[str, ...] = ("ideal", "typical", "pessimistic", "drift")
    #: jobs pushed through the synthetic pipeline of the event-kernel
    #: microbenchmark (``sim_engine``).
    engine_jobs: int = 2000
    #: the batch-64 simulation macrobenchmark (``large_batch_sim``): the
    #: naive mapping is used because its pipeline is periodic from the
    #: first job, the regime the steady-state fast-forward certifies.
    large_batch: int = 64
    large_input: Tuple[int, int, int] = (3, 256, 256)
    large_clusters: int = 256
    #: requests of the open-system serving benchmark (``serving_sim``):
    #: Poisson arrivals offered at ~80% of the FINAL mapping's measured
    #: saturation rate.
    serving_batch: int = 48
    #: batch size of the FINAL-mapping fast-forward macrobenchmark
    #: (``fast_forward_final``): batch 64 on 256x256 inputs lowers to the
    #: 256-job macro the replica-symmetry certification targets.
    ff_final_batch: int = 64
    #: input and cluster count of the ``fast_forward_final`` macro.  These
    #: are pinned to the paper's headline configuration rather than shared
    #: with ``sim_input``/``sim_clusters``: certification needs the full
    #: 33/9/3-way replication structure, which the shrunken quick-mode
    #: mappings do not produce (their short pipelines refuse, and a
    #: refusing macro would time the fallback instead of the fast-forward).
    ff_final_input: Tuple[int, int, int] = (3, 256, 256)
    ff_final_clusters: Optional[int] = None
    scenarios: Tuple[str, ...] = (
        "micro_mvm",
        "analog_forward",
        "final_mapping",
        "scenario_sweep",
        "sweep_persist",
        "accuracy_sweep",
        "sim_engine",
        "sim_engine_table",
        "large_batch_sim",
        "fast_forward_final",
        "mapping_policies",
        "serving_sim",
    )

    @classmethod
    def quick(cls) -> "BenchConfig":
        """Small sizes for smoke runs and tests.

        Every scenario shrinks except ``fast_forward_final``, which keeps
        the paper-sized macro (see ``ff_final_input``) — ``repeats=1``
        keeps its cost to one full run plus one probe.
        """
        return cls(
            repeats=1,
            micro_matrix_shape=(192, 160),
            micro_batch=8,
            crossbar_size=64,
            forward_input=(3, 12, 12),
            forward_classes=10,
            sim_batch=4,
            sim_input=(3, 64, 64),
            sim_clusters=256,
            sweep_input=(3, 16, 16),
            sweep_crossbars=(64,),
            sweep_clusters=(16,),
            sweep_batches=(2, 4),
            accuracy_presets=("ideal", "typical"),
            engine_jobs=300,
            # 64 x 64 inputs lower to one tile per image: 64 jobs, the
            # smallest batch-64 run the fast-forward still engages on.
            large_input=(3, 64, 64),
        )


def _bench_noise() -> NoiseModel:
    """Deterministic-read PCM configuration: the device-state cache is valid."""
    return NoiseModel(
        programming_noise=True,
        read_noise=False,
        converter_quantization=True,
        drift_time_s=3600.0,
    )


def _time(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn`` after one warm-up call."""
    fn()  # warm caches (device state, BLAS thread pools, einsum paths)
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# --------------------------------------------------------------------------- #
# Scenarios
# --------------------------------------------------------------------------- #
def bench_micro_mvm(config: BenchConfig) -> Dict[str, float]:
    """One tiled MVM on both backends, same weights/inputs/noise."""
    rng = np.random.default_rng(0)
    weights = rng.normal(size=config.micro_matrix_shape)
    inputs = rng.normal(size=(config.micro_batch, config.micro_matrix_shape[0]))
    noise = _bench_noise()
    results: Dict[str, float] = {}
    for backend in ("reference", "vectorized"):
        tiled = TiledMatrix(
            weights,
            crossbar_rows=config.crossbar_size,
            crossbar_cols=config.crossbar_size,
            noise=noise,
            seed=0,
            backend=backend,
        )
        results[f"micro_mvm.{backend}_s"] = _time(lambda: tiled.mvm(inputs), config.repeats)
    results["micro_mvm.speedup"] = (
        results["micro_mvm.reference_s"] / results["micro_mvm.vectorized_s"]
    )
    return results


def bench_analog_forward(config: BenchConfig) -> Dict[str, float]:
    """ResNet-18 analog forward pass on both backends."""
    graph = models.resnet18(
        input_shape=config.forward_input, num_classes=config.forward_classes
    )
    parameters = initialize_parameters(graph, seed=0)
    image = random_input(graph, seed=1)
    noise = _bench_noise()
    results: Dict[str, float] = {}
    for backend in ("reference", "vectorized"):
        executor = AnalogExecutor(
            graph,
            parameters=parameters,
            noise=noise,
            crossbar_rows=config.crossbar_size,
            crossbar_cols=config.crossbar_size,
            seed=0,
            backend=backend,
        )
        results[f"analog_forward.{backend}_s"] = _time(
            lambda: executor.run_output(image), config.repeats
        )
    results["analog_forward.speedup"] = (
        results["analog_forward.reference_s"] / results["analog_forward.vectorized_s"]
    )
    return results


def bench_final_mapping(config: BenchConfig) -> Dict[str, float]:
    """Event-driven simulation of the fully optimised paper mapping.

    The flow runs through the scenario stage pipeline, but the mapping and
    lowering stages execute outside the timed region and the simulation
    stage runs uncached: the timing covers the event-driven simulation
    only, matching the ~520 ms seed baseline in ROADMAP.md.
    """
    scenario = Scenario(
        model="resnet18",
        input_shape=config.sim_input,
        batch_size=config.sim_batch,
        level=OptimizationLevel.FINAL.value,
        n_clusters=config.sim_clusters,
        crossbar_size=config.sim_crossbar,
    )
    graph = graph_stage(scenario)
    arch = scenario.build_arch()
    mapping = mapping_stage(graph, arch, scenario.batch_size, scenario.level_enum)
    workload = workload_stage(mapping)
    return {
        "final_mapping.simulate_s": _time(
            lambda: simulation_stage(arch, workload), config.repeats
        )
    }


def bench_scenario_sweep(config: BenchConfig) -> Dict[str, float]:
    """Three-axis sweep through the scenario subsystem, cold vs warm cache.

    ``cold_s`` runs the grid against a fresh :class:`ArtifactCache` (every
    mapping built, every point simulated); ``warm_s`` re-runs the identical
    grid against a cache populated by a previous run, so every stage is
    served from cached artifacts and only orchestration plus analysis
    execute.  The ratio is the repeated-sweep speedup the cache buys.
    """
    scenarios = _sweep_grid(config).expand()
    results: Dict[str, float] = {
        "scenario_sweep.cold_s": _time(
            lambda: SweepRunner(max_workers=1, cache=ArtifactCache()).run(scenarios),
            config.repeats,
        )
    }
    warm_runner = SweepRunner(max_workers=1, cache=ArtifactCache())
    warm_runner.run(scenarios)  # populate the cache once
    results["scenario_sweep.warm_s"] = _time(
        lambda: warm_runner.run(scenarios), config.repeats
    )
    results["scenario_sweep.cache_speedup"] = (
        results["scenario_sweep.cold_s"] / results["scenario_sweep.warm_s"]
    )
    return results


def _sweep_grid(config: BenchConfig) -> ScenarioGrid:
    """The three-axis grid shared by the cache and store macrobenchmarks."""
    return ScenarioGrid.from_axes(
        base=Scenario(
            model=config.sweep_model,
            input_shape=config.sweep_input,
            num_classes=config.sweep_classes,
            level=OptimizationLevel.FINAL.value,
        ),
        crossbar_size=config.sweep_crossbars,
        n_clusters=config.sweep_clusters,
        batch_size=config.sweep_batches,
    )


def bench_sweep_persist(config: BenchConfig) -> Dict[str, float]:
    """The scenario sweep against the persistent on-disk artifact store.

    ``cold_s`` runs the grid with a fresh in-memory cache against a fresh,
    empty store — every artifact is built *and spilled to disk*, so the
    cold timing includes the persistence overhead the store adds to a
    first run.  ``warm_disk_s`` re-runs the grid with a fresh in-memory
    cache against the populated store, the situation of a new CLI
    invocation or a parallel sweep worker: every mapping and simulation is
    rehydrated from disk, nothing is rebuilt.
    """
    scenarios = _sweep_grid(config).expand()
    root = tempfile.mkdtemp(prefix="repro-bench-store-")
    results: Dict[str, float] = {}
    try:

        def cold_run() -> None:
            cold_root = tempfile.mkdtemp(dir=root)
            SweepRunner(
                max_workers=1,
                cache=ArtifactCache(store=ArtifactStore(cold_root)),
            ).run(scenarios)

        results["sweep_persist.cold_io_s"] = _time(cold_run, config.repeats)

        warm_store = ArtifactStore(Path(root) / "warm")
        SweepRunner(
            max_workers=1, cache=ArtifactCache(store=warm_store)
        ).run(scenarios)  # populate the store once

        def warm_run() -> None:
            SweepRunner(
                max_workers=1, cache=ArtifactCache(store=warm_store)
            ).run(scenarios)

        results["sweep_persist.warm_disk_io_s"] = _time(warm_run, config.repeats)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    results["sweep_persist.disk_speedup"] = (
        results["sweep_persist.cold_io_s"] / results["sweep_persist.warm_disk_io_s"]
    )
    return results


def bench_accuracy_sweep(config: BenchConfig) -> Dict[str, float]:
    """Noise-preset x crossbar-size accuracy sweep, cold vs warm cache.

    Each point runs the full performance pipeline plus the accuracy stage
    (the vectorized analog model vs the digital reference) through
    ``SweepRunner``.  ``cold_s`` builds every accuracy record (the digital
    reference forward runs once per graph, shared across presets);
    ``warm_s`` re-runs the identical grid against the populated cache, so
    no executor — analog or digital — runs at all.
    """
    grid = ScenarioGrid.from_axes(
        base=Scenario(
            model=config.sweep_model,
            input_shape=config.sweep_input,
            num_classes=config.sweep_classes,
            n_clusters=config.sweep_clusters[0],
            batch_size=config.sweep_batches[0],
            level=OptimizationLevel.FINAL.value,
            execution="typical",
        ),
        name="accuracy-bench",
        crossbar_size=config.sweep_crossbars,
        execution=config.accuracy_presets,
    )
    scenarios = grid.expand()
    results: Dict[str, float] = {
        "accuracy_sweep.cold_s": _time(
            lambda: SweepRunner(max_workers=1, cache=ArtifactCache()).run(scenarios),
            config.repeats,
        )
    }
    warm_runner = SweepRunner(max_workers=1, cache=ArtifactCache())
    warm_runner.run(scenarios)  # populate the cache once
    results["accuracy_sweep.warm_s"] = _time(
        lambda: warm_runner.run(scenarios), config.repeats
    )
    results["accuracy_sweep.cache_speedup"] = (
        results["accuracy_sweep.cold_s"] / results["accuracy_sweep.warm_s"]
    )
    return results


def _kernel_churn(n_jobs: int, n_stages: int = 8) -> int:
    """Synthetic event-kernel load: a credit-gated pipeline of servers.

    Every job flows through ``n_stages`` capacity-1 servers, each guarded
    by a double-buffered credit store — the same primitive mix (and the
    same same-cycle cascade pattern) the system simulator produces, without
    any workload lowering or numpy in the way.
    """
    engine = Engine()
    servers = [Server(engine, f"s{i}") for i in range(n_stages)]
    credits = [CreditStore(engine, f"c{i}", initial=2) for i in range(n_stages)]

    def start(stage: int, job: int) -> None:
        credits[stage].acquire(
            lambda: servers[stage].submit(
                7 if stage % 2 else 11, lambda: done(stage, job)
            )
        )

    def done(stage: int, job: int) -> None:
        credits[stage].release()
        if stage + 1 < n_stages:
            engine.after(stage % 3, lambda: start(stage + 1, job))

    for job in range(n_jobs):
        engine.after(5 * job, lambda j=job: start(0, j))
    engine.run()
    return engine.events_processed


def bench_sim_engine(config: BenchConfig) -> Dict[str, float]:
    """Raw discrete-event kernel throughput (no numpy, no lowering)."""
    return {
        "sim_engine.kernel_s": _time(
            lambda: _kernel_churn(config.engine_jobs), config.repeats
        )
    }


def bench_sim_engine_table(config: BenchConfig) -> Dict[str, float]:
    """Both event kernels, head to head, same FINAL-mapping workload.

    The compiled table lane (:mod:`repro.sim.system_table`, the default)
    vs the object kernel, both simulating the FINAL ResNet-18 mapping with
    contention on in one process.  The results are bit-identical (asserted
    in ``tests/test_sim_kernel_equivalence.py``), so the timings isolate
    dispatch mechanism alone: integer transition tables over flat state
    vectors vs per-resource servers/barriers.  Measuring both sides in the
    same process makes ``speedup`` (python/table) robust to host-speed
    drift between trajectory points; ``table_s`` and ``python_s`` are also
    regression-gated individually.
    """
    scenario = Scenario(
        model="resnet18",
        input_shape=config.sim_input,
        batch_size=config.sim_batch,
        level=OptimizationLevel.FINAL.value,
        n_clusters=config.sim_clusters,
        crossbar_size=config.sim_crossbar,
    )
    graph = graph_stage(scenario)
    arch = scenario.build_arch()
    mapping = mapping_stage(graph, arch, scenario.batch_size, scenario.level_enum)
    workload = workload_stage(mapping)
    results = {
        "sim_engine_table.table_s": _time(
            lambda: simulate(arch, workload, engine="table"), config.repeats
        ),
        "sim_engine_table.python_s": _time(
            lambda: simulate(arch, workload, engine="python"), config.repeats
        ),
    }
    results["sim_engine_table.speedup"] = (
        results["sim_engine_table.python_s"] / results["sim_engine_table.table_s"]
    )
    return results


def bench_large_batch_sim(config: BenchConfig) -> Dict[str, float]:
    """Batch-64 simulation: full event-driven run vs steady-state fast-forward.

    The workload is the naive mapping of ResNet-18 (one replica per stage),
    whose pipeline is bottleneck-paced — and therefore exactly periodic —
    from the first job.  ``full_s`` times ``simulate()`` as-is; ``ff_s``
    times ``simulate(fast_forward=True)``, which probes a shortened run,
    certifies the period and extrapolates the rest analytically.  Both are
    regression-gated; ``ff_speedup`` is the headline ratio (the results
    are bit-identical — asserted in ``tests/test_sim_fast_forward.py``).
    """
    scenario = Scenario(
        model="resnet18",
        input_shape=config.large_input,
        batch_size=config.large_batch,
        level=OptimizationLevel.NAIVE.value,
        n_clusters=config.large_clusters,
        crossbar_size=config.sim_crossbar,
    )
    graph = graph_stage(scenario)
    arch = scenario.build_arch()
    mapping = mapping_stage(graph, arch, scenario.batch_size, scenario.level_enum)
    workload = workload_stage(mapping)
    results = {
        "large_batch_sim.full_s": _time(
            lambda: simulate(arch, workload), config.repeats
        ),
        "large_batch_sim.fast_forward_s": _time(
            lambda: simulate(arch, workload, fast_forward=True), config.repeats
        ),
    }
    results["large_batch_sim.ff_speedup"] = (
        results["large_batch_sim.full_s"] / results["large_batch_sim.fast_forward_s"]
    )
    return results


def bench_fast_forward_final(config: BenchConfig) -> Dict[str, float]:
    """The paper's headline FINAL mapping, full run vs fast-forward.

    Batch 64 on the paper-sized inputs lowers to a 256-job macro of the
    fully optimised ResNet-18 mapping — the workload the replica-symmetry
    certification exists for (its 33/9/3-way stage replications never
    settle into a ``MAX_WINDOW``-sized periodic window, so the pre-replica
    detector refused it).  Both sides run the reference object kernel
    contention-free — the regime the replica-symmetry argument certifies
    (link contention couples stages and is refused with a typed reason):
    ``full_s`` times ``simulate(engine="python", model_contention=False)``
    as-is, ``ff_s`` times the same call with ``fast_forward=True``, which
    probes a shortened run (on the table lane — the engines are
    bit-identical, and the probe needs its per-record observer),
    certifies every stage at its own anchor and extrapolates the rest in
    integer arithmetic.  Results are bit-identical (asserted
    in ``tests/test_sim_fast_forward.py`` and by the CI equivalence
    step); ``ff_speedup`` is the headline ratio and both timings are
    regression-gated.
    """
    scenario = Scenario(
        model="resnet18",
        input_shape=config.ff_final_input,
        batch_size=config.ff_final_batch,
        level=OptimizationLevel.FINAL.value,
        n_clusters=config.ff_final_clusters,
        crossbar_size=config.sim_crossbar,
    )
    graph = graph_stage(scenario)
    arch = scenario.build_arch()
    mapping = mapping_stage(graph, arch, scenario.batch_size, scenario.level_enum)
    workload = workload_stage(mapping)
    results = {
        "fast_forward_final.full_s": _time(
            lambda: simulate(
                arch, workload, engine="python", model_contention=False
            ),
            config.repeats,
        ),
        "fast_forward_final.ff_s": _time(
            lambda: simulate(
                arch,
                workload,
                engine="python",
                model_contention=False,
                fast_forward=True,
            ),
            config.repeats,
        ),
    }
    results["fast_forward_final.ff_speedup"] = (
        results["fast_forward_final.full_s"] / results["fast_forward_final.ff_s"]
    )
    return results


def bench_mapping_policies(config: BenchConfig) -> Dict[str, float]:
    """Mapping-stage cost of every registered policy, plus a policy sweep.

    Each ``<policy>_s`` timing is a cold ``mapping_stage`` call (no cache):
    optimizer construction, the balance pass where the policy needs one,
    and cluster allocation — i.e. what a mapping-region cache miss costs
    under each strategy.  The ladder policies share the balance pass
    through the optimizer, so naive/pipelined vs replicated/final also
    separates allocation cost from balance cost.  ``sweep_s`` runs the
    ladder plus a user-supplied schedule file end-to-end through a cold
    :class:`SweepRunner` — the mapping axis as a sweep dimension.
    """
    scenario = Scenario(
        model=config.sweep_model,
        input_shape=config.sweep_input,
        num_classes=config.sweep_classes,
        n_clusters=config.sweep_clusters[0],
        crossbar_size=config.sweep_crossbars[0],
        batch_size=config.sweep_batches[0],
    )
    graph = graph_stage(scenario)
    arch = scenario.build_arch()
    first_analog = next(
        node.name for node in graph.nodes if node.inputs and node.is_analog
    )
    tmpdir = Path(tempfile.mkdtemp(prefix="bench-sched-"))
    try:
        schedule = tmpdir / "schedule.toml"
        schedule.write_text(
            f'name = "bench"\n\n[layers.{first_analog}]\nreplication = 2\n'
        )
        specs = {
            "naive": "naive",
            "pipelined": "pipelined",
            "replicated": "replicated",
            "final": "final",
            # dense-layer replication only: modest enough to fit the quick
            # config's 16-cluster system alongside the schedule scenario
            "spatial": {"policy": "spatial", "dense": 2},
            "schedule": {"policy": "schedule", "path": str(schedule)},
        }
        results: Dict[str, float] = {}
        for name, spec in specs.items():
            results[f"mapping_policies.{name}_s"] = _time(
                lambda spec=spec: mapping_stage(
                    graph, arch, scenario.batch_size, spec
                ),
                config.repeats,
            )
        grid = ScenarioGrid(
            base=scenario,
            axes=(
                (
                    "mapping",
                    (
                        "naive",
                        "pipelined",
                        "replicated",
                        "final",
                        {"policy": "schedule", "path": str(schedule)},
                    ),
                ),
            ),
        )
        scenarios = grid.expand()
        results["mapping_policies.sweep_s"] = _time(
            lambda: SweepRunner(max_workers=1, cache=ArtifactCache()).run(scenarios),
            config.repeats,
        )
        return results
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def bench_serving_sim(config: BenchConfig) -> Dict[str, float]:
    """Open-system serving simulation: Poisson arrivals at ~80% load.

    Builds the FINAL mapping of the small sweep network, measures the
    closed run's steady-state service time per job, and offers Poisson
    arrivals at ~80% of that saturation rate — the stable-queue serving
    regime whose tail latencies the percentile metrics exist for.

    ``cold_s`` times the arrival-gated event-driven simulation itself (the
    steady-state fast-forward refuses open workloads, so this is always a
    full run — the launch-gating overhead is what regresses here);
    ``warm_s`` times the same point served through ``simulation_stage``
    from a warm artifact cache, i.e. the per-sweep-point cost of arrival
    resolution, schedule generation and content keying when the simulation
    itself is a hit.
    """
    scenario = Scenario(
        model=config.sweep_model,
        input_shape=config.sweep_input,
        num_classes=config.sweep_classes,
        n_clusters=config.sweep_clusters[0],
        crossbar_size=config.sweep_crossbars[0],
        batch_size=config.serving_batch,
        level=OptimizationLevel.FINAL.value,
    )
    graph = graph_stage(scenario)
    arch = scenario.build_arch()
    mapping = mapping_stage(graph, arch, scenario.batch_size, scenario.level_enum)
    workload = workload_stage(mapping)
    closed = simulate(arch, workload)
    mean_interarrival = closed.steady_state_cycles_per_job() / 0.8
    arrivals = {
        "process": "poisson",
        "mean_interarrival_cycles": float(mean_interarrival),
        "seed": 7,
    }
    open_workload = workload.with_arrivals(
        PoissonArrivals(float(mean_interarrival), seed=7).generate(workload.n_jobs)
    )
    results = {
        "serving_sim.cold_s": _time(
            lambda: simulate(arch, open_workload), config.repeats
        ),
    }
    cache = ArtifactCache()
    simulation_stage(arch, workload, arrivals=arrivals, cache=cache)  # prime
    results["serving_sim.warm_s"] = _time(
        lambda: simulation_stage(arch, workload, arrivals=arrivals, cache=cache),
        config.repeats,
    )
    return results


SCENARIOS: Dict[str, Callable[[BenchConfig], Dict[str, float]]] = {
    "micro_mvm": bench_micro_mvm,
    "analog_forward": bench_analog_forward,
    "final_mapping": bench_final_mapping,
    "scenario_sweep": bench_scenario_sweep,
    "sweep_persist": bench_sweep_persist,
    "accuracy_sweep": bench_accuracy_sweep,
    "sim_engine": bench_sim_engine,
    "sim_engine_table": bench_sim_engine_table,
    "large_batch_sim": bench_large_batch_sim,
    "fast_forward_final": bench_fast_forward_final,
    "mapping_policies": bench_mapping_policies,
    "serving_sim": bench_serving_sim,
}


def run_benchmarks(config: Optional[BenchConfig] = None) -> Dict[str, float]:
    """Run the configured scenarios and merge their metric dictionaries."""
    config = config if config is not None else BenchConfig()
    results: Dict[str, float] = {}
    for name in config.scenarios:
        results.update(SCENARIOS[name](config))
    return results


# --------------------------------------------------------------------------- #
# Trajectory files and regression comparison
# --------------------------------------------------------------------------- #
def find_previous_result(root: Path, exclude: Optional[Path] = None) -> Optional[Path]:
    """Latest ``BENCH_PR<n>.json`` under ``root`` (highest PR number)."""
    candidates: List[Tuple[int, Path]] = []
    for path in root.glob("BENCH_*.json"):
        if exclude is not None and path.resolve() == exclude.resolve():
            continue
        match = _RESULT_NAME.match(path.name)
        if match:
            candidates.append((int(match.group(1)), path))
    if not candidates:
        return None
    return max(candidates)[1]


def next_output_path(root: Path) -> Path:
    """``BENCH_PR<n+1>.json`` following the latest trajectory point."""
    previous = find_previous_result(root)
    if previous is None:
        return root / "BENCH_PR1.json"
    number = int(_RESULT_NAME.match(previous.name).group(1))
    return root / f"BENCH_PR{number + 1}.json"


def compare_results(
    old: Dict[str, float],
    new: Dict[str, float],
    threshold: float = REGRESSION_THRESHOLD,
    slack_s: float = REGRESSION_SLACK_S,
) -> List[str]:
    """Regression messages for every shared timing that got >threshold slower.

    Only ``*_s`` keys (wall-clock seconds, lower is better) are compared;
    derived metrics like speedups are informational.  ``slack_s`` absorbs
    absolute jitter on very small timings, and ``*_io_s`` keys (disk-bound
    scenarios) are gated at :data:`IO_REGRESSION_THRESHOLD` instead of
    ``threshold``.
    """
    regressions: List[str] = []
    for key in sorted(set(old) & set(new)):
        if not key.endswith("_s"):
            continue
        limit = IO_REGRESSION_THRESHOLD if key.endswith("_io_s") else threshold
        before, after = float(old[key]), float(new[key])
        if before > 0 and after > before * (1.0 + limit) + slack_s:
            # each message is self-contained: the scenario, the metric, both
            # values and the limit that was applied — a CI log line must be
            # actionable without opening the trajectory files.
            scenario = key.partition(".")[0]
            regressions.append(
                f"{key} (scenario {scenario!r}): "
                f"new {after * 1e3:.1f} ms vs baseline {before * 1e3:.1f} ms "
                f"(+{(after / before - 1.0) * 100.0:.0f}%, limit +{limit:.0%})"
            )
    return regressions


def missing_baselines(old: Dict[str, float], new: Dict[str, float]) -> List[str]:
    """Scenarios timed in ``new`` that have no ``*_s`` baseline in ``old``.

    A scenario added after the latest trajectory point has nothing to be
    gated against; that is legitimate — it enters the trajectory when the
    next point is written — but the gate must *say* it skipped the
    scenario rather than silently (or, worse, fatally) ignoring it:
    ``--check`` prints the returned names as "new scenario, skipped".
    """
    old_scenarios = {key.partition(".")[0] for key in old if key.endswith("_s")}
    new_scenarios = {key.partition(".")[0] for key in new if key.endswith("_s")}
    return sorted(new_scenarios - old_scenarios)


def load_payload(path: Path) -> Dict[str, object]:
    """One full trajectory file (schema, config and results)."""
    with path.open() as handle:
        return json.load(handle)


def load_results(path: Path) -> Dict[str, float]:
    """The ``results`` dictionary of one trajectory file."""
    return load_payload(path)["results"]


def comparable_configs(old_config: object, new_config: BenchConfig) -> bool:
    """Whether two trajectory points were measured with the same sizes.

    Timings from different scenario sizes (e.g. a ``--quick`` smoke run vs
    the full configuration) are not comparable; the regression gate must
    not fire across them.  ``repeats`` may differ — it affects variance,
    not the best-of timing being measured.  A newer ``BenchConfig`` may
    *grow* fields for newly added scenarios without severing the
    trajectory (only shared ``*_s`` keys are regression-checked anyway),
    but every field the old point recorded must still exist and match: a
    removed or renamed field means the old sizes can no longer be proven
    equal, so the gate must not compare across it.
    """
    if not isinstance(old_config, dict):
        return False
    new = {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in asdict(new_config).items()
    }
    # repeats affects variance only; scenario selection only gates which
    # timings exist, and disjoint timings are skipped by compare_results.
    old_keys = set(old_config) - {"repeats", "scenarios"}
    if not old_keys or not old_keys <= set(new):
        return False
    return all(old_config[key] == new[key] for key in old_keys)


def write_results(
    path: Path, results: Dict[str, float], config: BenchConfig
) -> None:
    """Write one trajectory point (schema 1)."""
    payload = {
        "schema": 1,
        "label": path.stem,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": asdict(config),
        "results": results,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def _format_table(results: Dict[str, float]) -> str:
    lines = []
    for key in sorted(results):
        value = results[key]
        unit = f"{value * 1e3:10.2f} ms" if key.endswith("_s") else f"{value:10.2f} x"
        lines.append(f"  {key:<32}{unit}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench",
        description="Time the tier-0 scenarios and track BENCH_*.json trajectory.",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the latest BENCH_*.json and exit 1 on a "
        f">{REGRESSION_THRESHOLD:.0%} regression; writes nothing",
    )
    parser.add_argument(
        "--quick", action="store_true", help="small inputs (smoke runs / CI)"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run each selected scenario once under cProfile and print the "
        "top-20 functions by internal time; writes no trajectory point",
    )
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats")
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        default=None,
        help="run only this scenario (repeatable)",
    )
    parser.add_argument(
        "--root", type=Path, default=Path("."), help="repo root holding BENCH_*.json"
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="output path (default BENCH_PR<n+1>.json)"
    )
    args = parser.parse_args(argv)

    config = BenchConfig.quick() if args.quick else BenchConfig()
    if args.repeats is not None:
        config = replace(config, repeats=args.repeats)
    if args.scenario:
        config = replace(config, scenarios=tuple(args.scenario))

    if args.profile:
        if args.check or args.output is not None:
            # profiling short-circuits the measurement/gate path; silently
            # ignoring --check would let a regression through with exit 0
            parser.error("--profile cannot be combined with --check or --output")
        import cProfile
        import pstats

        profile_config = replace(config, repeats=1)
        for name in config.scenarios:
            print(f"=== profile: {name} ===")
            profiler = cProfile.Profile()
            profiler.enable()
            SCENARIOS[name](profile_config)
            profiler.disable()
            pstats.Stats(profiler).sort_stats("tottime").print_stats(20)
        return 0

    results = run_benchmarks(config)
    print("benchmark results:")
    print(_format_table(results))

    # quick smoke runs never enter the BENCH_PR<n> trajectory: their sizes
    # are not comparable with the full configuration.
    if args.output is not None:
        output = args.output
    elif args.quick:
        output = args.root / "BENCH_QUICK.json"
    else:
        output = next_output_path(args.root)
    previous = find_previous_result(args.root, exclude=output)
    regressions: List[str] = []
    if previous is not None:
        payload = load_payload(previous)
        if comparable_configs(payload.get("config"), config):
            # a baseline written before a scenario existed must not break
            # the gate: the scenario's keys are simply not comparable yet.
            baseline = payload.get("results") or {}
            for name in missing_baselines(baseline, results):
                print(f"new scenario {name!r}: no baseline in {previous.name}, skipped")
            regressions = compare_results(baseline, results)
            if regressions:
                print(f"regressions vs {previous.name}:")
                for message in regressions:
                    print(f"  {message}")
            else:
                print(f"no regressions vs {previous.name}")
        else:
            print(
                f"configs differ from {previous.name} (e.g. --quick vs full); "
                "skipping regression comparison"
            )
    else:
        print("no previous BENCH_*.json to compare against")

    if args.check:
        return 1 if regressions else 0

    write_results(output, results, config)
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
