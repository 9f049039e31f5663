"""The four benchmark workloads and their traced recompositions.

Each workload runs in rounds.  A round is one *cold* unit of work and
*warm* units served from the persistent artifact store:

* ``headline_b16`` / ``batch64_ffwd``: one ``run_scenario(..., cache=None)``
  (cold op), then ``WARM_REPEATS`` runs of the same scenario, each through
  a fresh ``ArtifactCache`` on a store populated during set-up (warm ops);
* ``ladder_sweep``: one cold pass of the 18-point grid against an empty
  store (one op per point) and one warm pass over the populated store;
* ``analog_accuracy``: one ``accuracy_stage(..., cache=None)`` (cold op),
  then ``warm_repeats`` (100) times the same record served from the store.

Untraced rounds call the public one-call entry points only.  Traced rounds
recompose the same calls from the public stage functions, wrapping a span
around each call into a layer of the program; the recomposition is checked
against the one-call path (``result_mismatches`` / exact array equality)
so the per-layer numbers describe the same program.
"""

from __future__ import annotations

import gc
import math
import random
import shutil
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.aimc import AnalogExecutor, TiledMatrix
from repro.analysis.metrics import compute_metrics
from repro.dnn.numerics import ReferenceExecutor, initialize_parameters, random_input
from repro.scenarios import (
    AccuracyRecord,
    ArtifactCache,
    ArtifactStore,
    ExecutionSpec,
    Scenario,
    ScenarioGrid,
    ScenarioOutcome,
    SweepRunner,
    accuracy_stage,
    graph_stage,
    mapping_stage,
    run_scenario,
    simulation_stage,
    workload_stage,
)
from repro.scenarios.fingerprint import content_digest
from repro.sim import SimulationResult, SystemSimulator, fast_forward_simulate, result_mismatches

#: the workload seed at which the analog record is compared with its pin;
#: ``ExecutionSpec``'s own default seed.
DEFAULT_SEED = 0

#: warm ops per round of the single-op workloads (``Workload.warm_repeats``):
#: a warm op takes a few milliseconds next to a cold op's 0.15-2.5 s, so a
#: round repeats it to average out its jitter.
WARM_REPEATS = 10

#: Sec. VI headline of the paper (ResNet-18, FINAL mapping, batch 16,
#: 512 clusters), the reference of ``fidelity_err``.
PAPER_HEADLINE = {
    "throughput_tops": 20.2,
    "images_per_second": 3303,
    "area_efficiency_gops_mm2": 42.0,
    "energy_efficiency_tops_w": 6.5,
    "energy_mj": 15.0,
    "used_clusters": 322,
    "chip_area_mm2": 480.0,
}

HEADLINE = Scenario(
    model="resnet18", input_shape=(3, 256, 256), batch_size=16, level="final"
)

#: store regions whose builds and disk hits are reported (``graph`` and
#: ``reference_output`` are memory-only by design and left out).
STORE_REGIONS = ("optimizer", "mapping", "workload", "simulation", "accuracy")
#: regions a warm op must serve from the store for ``warm_hit_ratio``.
PERSISTED_REGIONS = ("mapping", "workload", "simulation", "accuracy")

COLD_STAGES = ("dnn.graph", "core.mapping", "core.lower", "sim.simulate", "analysis.metrics")
WARM_STAGES = tuple(
    f"scenarios.warm.{stage}" for stage in ("graph", "mapping", "lower", "simulate", "metrics")
)


def fidelity_err(metrics: Dict[str, float]) -> float:
    """Mean |ln(ours / paper)| over the Sec. VI headline values of a
    ``PerformanceMetrics.as_record()``."""
    return sum(
        abs(math.log(metrics[name] / paper)) for name, paper in PAPER_HEADLINE.items()
    ) / len(PAPER_HEADLINE)


def outcome_pin(outcome: ScenarioOutcome) -> Dict[str, object]:
    """The pinned part of a scenario outcome: simulation record + metrics."""
    return {
        "simulation": outcome.simulation.as_dict(),
        "metrics": outcome.metrics.as_record(),
    }


def model_aggregates(result: SimulationResult, outcome: ScenarioOutcome) -> Dict[str, float]:
    """Simulated-time statistics of one run (deterministic)."""
    tracer = result.tracer
    clusters = tracer.clusters.values()
    stages = tracer.stages.values()
    return {
        "model.makespan_cycles": result.makespan_cycles,
        "model.cycles_per_job": result.steady_state_cycles_per_job(),
        "model.analog_cycles": sum(c.analog for c in clusters),
        "model.digital_cycles": sum(c.digital for c in clusters),
        "model.comm_cycles": sum(c.communication for c in clusters),
        "model.sync_cycles": sum(c.synchronization for c in clusters),
        "model.input_stall_cycles": sum(s.input_stall for s in stages),
        "model.output_stall_cycles": sum(s.output_stall for s in stages),
        "model.hot_link_busy_cycles": max(tracer.link_busy.values(), default=0),
        "model.hbm_bytes": tracer.hbm_bytes,
        "model.noc_byte_hops": tracer.noc_byte_hops,
        "model.used_clusters": outcome.metrics.used_clusters,
    }


# --------------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------------- #
class Spans:
    """In-memory spans: ``[name, start, end, parent index, op id]`` rows."""

    def __init__(self) -> None:
        self.records: List[list] = []
        self._stack: List[int] = []
        self.op_id = -1

    @contextmanager
    def __call__(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.records)
        row = [name, time.perf_counter(), None, parent, self.op_id]
        self.records.append(row)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            row[2] = time.perf_counter()

    def totals(self) -> Dict[str, float]:
        """Summed duration per span name."""
        out: Dict[str, float] = {}
        for name, start, end, _, _ in self.records:
            out[name] = out.get(name, 0.0) + (end - start)
        return out


@dataclass
class Sample:
    """One timed op: ``kind`` is ``"cold"`` or ``"warm"``."""

    kind: str
    seconds: float
    ok: bool


def _timed(kind: str, op, check, spans: Optional[Spans]) -> Sample:
    """Time ``op()``; check its output outside the timed region.

    Cyclic garbage of earlier ops is collected before the clock starts, so
    no op pays for another's.
    """
    gc.collect()
    if spans is not None:
        spans.op_id += 1
    start = time.perf_counter()
    try:
        if spans is not None:
            with spans(f"op.{kind}"):
                output = op()
        else:
            output = op()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Sample(kind, time.perf_counter() - start, False)
    seconds = time.perf_counter() - start
    return Sample(kind, seconds, bool(check(output)))


# --------------------------------------------------------------------------- #
# Recompositions of the one-call entry points
# --------------------------------------------------------------------------- #
def traced_scenario(scenario: Scenario, spans: Spans, counters: "Counters"):
    """``run_scenario(scenario, cache=None)`` from its public stage calls.

    The simulation stage is opened up as ``simulate()`` does it: the
    fast-forward attempt, then (on refusal, or when not requested) the
    event-driven ``SystemSimulator`` run whose engine counts the events.
    """
    with spans("dnn.graph"):
        graph = graph_stage(scenario)
    arch = scenario.build_arch()
    with spans("core.mapping"):
        mapping = mapping_stage(
            graph,
            arch,
            scenario.batch_size,
            scenario.mapping_policy,
            reserve_clusters=scenario.reserve_clusters,
            max_replication=scenario.max_replication,
        )
    with spans("core.lower"):
        workload = workload_stage(mapping)
    options = dict(
        model_contention=scenario.model_contention,
        buffer_depth=scenario.buffer_depth,
        engine=scenario.engine,
    )
    with spans("sim.simulate"):
        result = refusal = None
        if scenario.fast_forward:
            counters.add("ffwd_attempted")
            with spans("sim.steady_state.attempt"):
                attempt = fast_forward_simulate(arch, workload, **options)
            if isinstance(attempt, SimulationResult):
                counters.add("ffwd_engaged")
                result = attempt
            else:
                refusal = attempt
                counters.refusals.add(str(attempt.reason))
        if result is None:
            simulator = SystemSimulator(arch, workload, **options)
            with spans("sim.full_run"):
                result = simulator.run()
            result.fast_forward_refusal = refusal
            counters.add("events", simulator.engine.events_processed)
    with spans("analysis.metrics"):
        metrics = compute_metrics(result, mapping, name=scenario.label)
    outcome = ScenarioOutcome(
        scenario=scenario,
        metrics=metrics,
        simulation=result.record(),
        mapping=mapping.record(),
        elapsed_s=0.0,
    )
    return outcome, result, (arch, workload)


def traced_cached_scenario(
    scenario: Scenario,
    cache: ArtifactCache,
    spans: Spans,
    names=COLD_STAGES,
    time_key: bool = False,
):
    """``run_scenario(scenario, cache)`` from its public stage calls.

    With ``time_key`` the workload's content digest (the simulation-stage
    key's expensive part, memoized on the workload) is computed in its own
    ``scenarios.key`` span before the simulation stage reuses it.
    """
    graph_name, mapping_name, lower_name, simulate_name, metrics_name = names
    with spans(graph_name):
        graph = graph_stage(scenario, cache)
    arch = scenario.build_arch()
    with spans(mapping_name):
        mapping = mapping_stage(
            graph,
            arch,
            scenario.batch_size,
            scenario.mapping_policy,
            cache=cache,
            reserve_clusters=scenario.reserve_clusters,
            max_replication=scenario.max_replication,
        )
    with spans(lower_name):
        workload = workload_stage(mapping, cache=cache)
    if time_key:
        with spans("scenarios.key"):
            content_digest(workload)
    with spans(simulate_name):
        result = simulation_stage(
            arch,
            workload,
            model_contention=scenario.model_contention,
            buffer_depth=scenario.buffer_depth,
            fast_forward=scenario.fast_forward,
            engine=scenario.engine,
            arrivals=scenario.arrivals,
            cache=cache,
        )
    with spans(metrics_name):
        metrics = compute_metrics(result, mapping, name=scenario.label)
    outcome = ScenarioOutcome(
        scenario=scenario,
        metrics=metrics,
        simulation=result.record(),
        mapping=mapping.record(),
        elapsed_s=0.0,
    )
    return outcome, result


def program_tiles(graph, parameters, execution: ExecutionSpec, crossbar_size: int, noise):
    """The ``AnalogExecutor`` constructor's device programming, tile by tile."""
    analog_nodes = graph.analog_nodes()
    layer_seeds = np.random.SeedSequence(execution.seed).spawn(len(analog_nodes))
    tiles = {}
    for node, layer_seed in zip(analog_nodes, layer_seeds):
        if getattr(node.layer, "groups", 1) != 1:
            continue  # depthwise layers stay on the digital reference
        tiles[node.node_id] = TiledMatrix(
            parameters[node.node_id].weight_matrix,
            crossbar_rows=crossbar_size,
            crossbar_cols=crossbar_size,
            noise=noise,
            seed=layer_seed,
            backend=execution.backend,
        )
    return tiles


def traced_accuracy(scenario: Scenario, execution: ExecutionSpec, spans: Spans, counters: "Counters"):
    """``accuracy_stage(graph_stage(scenario), execution)`` from public calls.

    Mirrors the stage's order of work: the digital reference (its own
    parameter init and forward), then the analog executor (parameter init,
    device programming) and the analog forward, whose per-layer MVMs are
    timed through ``ReferenceExecutor``'s ``mvm_hook``.
    """
    crossbar_size = scenario.crossbar_size
    with spans("dnn.graph"):
        graph = graph_stage(scenario)
    images = [
        random_input(graph, seed=np.random.SeedSequence((execution.seed, index)))
        for index in range(execution.n_inputs)
    ]
    with spans("dnn.init_params"):
        reference_parameters = initialize_parameters(graph, seed=execution.seed)
    with spans("dnn.reference"):
        reference_executor = ReferenceExecutor(graph, parameters=reference_parameters)
        references = [reference_executor.run_output(image) for image in images]
    with spans("dnn.init_params"):
        parameters = initialize_parameters(graph, seed=execution.seed)
    noise = execution.noise_model
    with spans("aimc.program"):
        tiles = program_tiles(graph, parameters, execution, crossbar_size, noise)
    layer_spans = {
        node.node_id: f"aimc.layer.{node.node_id}-{node.name}.mvm"
        for node in graph.analog_nodes()
    }

    def mvm_hook(node, inputs, weight_matrix):
        with spans(layer_spans[node.node_id]):
            return tiles[node.node_id].mvm(inputs)

    forward = ReferenceExecutor(graph, parameters=parameters, mvm_hook=mvm_hook)
    with spans("aimc.forward"):
        outputs = [forward.run_output(image) for image in images]
    counters.crossbars = sum(tiled.n_crossbars for tiled in tiles.values())
    squared_error = squared_reference = 0.0
    n_values = agreements = 0
    for output, reference in zip(outputs, references):
        squared_error += float(np.sum((output - reference) ** 2))
        squared_reference += float(np.sum(reference**2))
        n_values += reference.size
        agreements += int(np.argmax(output)) == int(np.argmax(reference))
    record = AccuracyRecord(
        backend=execution.backend,
        noise_label=execution.noise_label,
        crossbar_size=crossbar_size,
        n_inputs=execution.n_inputs,
        total_crossbars=counters.crossbars,
        rms_error=float(np.sqrt(squared_error / n_values)),
        reference_rms=float(np.sqrt(squared_reference / n_values)),
        top1_agreement=agreements / execution.n_inputs,
    )
    return record, graph, images, outputs


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
class Counters:
    """Per-layer counts gathered by traced rounds."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        self.refusals: set = set()
        self.crossbars = 0

    def add(self, name: str, amount: float = 1) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    def add_cache(self, cache: ArtifactCache, warm: bool) -> None:
        stats = cache.stats
        for region in STORE_REGIONS:
            self.add(f"builds.{region}", stats.miss_count(region))
            self.add(f"disk_hits.{region}", stats.disk_hit_count(region))
        if warm:
            for region in PERSISTED_REGIONS:
                served = stats.hit_count(region) + stats.disk_hit_count(region)
                self.add("warm_served", served)
                self.add("warm_lookups", served + stats.miss_count(region))


class Workload:
    """A benchmark workload: ``setup()`` once, then ``round(spans)`` repeatedly."""

    name = ""
    #: the host-speed probe parts (``worker.PROBE_PARTS``) whose mix of
    #: work is most like this workload's: event-loop interpreter work for
    #: the simulator-bound workloads.
    probe_parts = ("interpreter",)
    warm_repeats = WARM_REPEATS

    def __init__(self, seed: int, tmp: Path, pins: Dict[str, object]):
        self.seed = seed
        self.tmp = tmp
        self.pins = pins
        self.counters = Counters()
        #: recomposition mismatches found by traced rounds.
        self.trace_failures: List[str] = []

    def setup(self) -> List[Sample]:
        raise NotImplementedError

    def round(self, spans: Optional[Spans]) -> List[Sample]:
        raise NotImplementedError

    def trace_checks(self) -> List[str]:
        return list(self.trace_failures)

    def model_metrics(self) -> Dict[str, float]:
        """Simulated-time statistics of the last traced op (none by default)."""
        return {}

    def headline_fidelity(self) -> float:
        """``fidelity_err`` of the paper's headline point.

        Read from the headline pin, which ``headline_b16`` checks against
        the program's output on every op; that workload measures it.
        """
        return fidelity_err(self.pins["headline_b16"]["metrics"])

    def record_pins(self) -> object:
        raise NotImplementedError


def warm_ops(
    repeats: int, store: ArtifactStore, op, check, spans: Optional[Spans], counters: Counters
):
    """``repeats`` timed ``op(cache)`` calls, each on a fresh cache over ``store``."""
    samples = []
    for _ in range(repeats):
        cache = ArtifactCache(store=store)
        samples.append(_timed("warm", partial(op, cache), check, spans))
        if spans is not None:
            counters.add_cache(cache, warm=True)
    return samples


class ScenarioWorkload(Workload):
    """One paper-sized scenario: ``run_scenario`` cold and store-served."""

    scenario = HEADLINE

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.store = ArtifactStore(self.tmp / "store")
        self.warmed_up: Optional[ScenarioOutcome] = None
        self._last = None

    def _check(self, outcome: ScenarioOutcome) -> bool:
        return outcome_pin(outcome) == self.pins[self.name]

    def _warm_up(self) -> ScenarioOutcome:
        # builds everything and populates the store the warm ops read
        self.warmed_up = run_scenario(self.scenario, ArtifactCache(store=self.store))
        return self.warmed_up

    def setup(self) -> List[Sample]:
        return [_timed("warm-up", self._warm_up, self._check, None)]

    def _traced_cold(self, spans: Spans) -> ScenarioOutcome:
        outcome, result, inputs = traced_scenario(self.scenario, spans, self.counters)
        self._last = (result, inputs, outcome)
        return outcome

    def _warm(self, spans: Optional[Spans], cache: ArtifactCache) -> ScenarioOutcome:
        if spans is None:
            return run_scenario(self.scenario, cache)
        return traced_cached_scenario(self.scenario, cache, spans, WARM_STAGES, time_key=True)[0]

    def round(self, spans: Optional[Spans]) -> List[Sample]:
        if spans is None:
            cold = partial(run_scenario, self.scenario, None)
        else:
            cold = partial(self._traced_cold, spans)
        return [_timed("cold", cold, self._check, spans)] + warm_ops(
            self.warm_repeats, self.store, partial(self._warm, spans), self._check, spans,
            self.counters,
        )

    def trace_checks(self) -> List[str]:
        if self._last is None:
            return ["no traced op completed"]
        result, (arch, workload), outcome = self._last
        scenario = self.scenario
        reference = simulation_stage(
            arch,
            workload,
            model_contention=scenario.model_contention,
            buffer_depth=scenario.buffer_depth,
            fast_forward=scenario.fast_forward,
            engine=scenario.engine,
            arrivals=scenario.arrivals,
        )
        return self.trace_failures + [
            f"{self.name}: {m}" for m in result_mismatches(result, reference)
        ]

    def model_metrics(self) -> Dict[str, float]:
        if self._last is None:
            return {}
        result, _, outcome = self._last
        return model_aggregates(result, outcome)

    def record_pins(self):
        return outcome_pin(run_scenario(self.scenario, cache=None))


class HeadlineB16(ScenarioWorkload):
    """The paper's Sec. VI point: ResNet-18, FINAL, batch 16, 3x256x256."""

    name = "headline_b16"
    scenario = HEADLINE

    def headline_fidelity(self) -> float:
        """``fidelity_err`` of this workload's own (pin-checked) warm-up op."""
        return fidelity_err(self.warmed_up.metrics.as_record())


class Batch64FastForward(ScenarioWorkload):
    """The 256-job batch-64 macro with the steady-state fast-forward on."""

    name = "batch64_ffwd"
    scenario = HEADLINE.replace(batch_size=64, fast_forward=True)


class LadderSweep(Workload):
    """The mapping ladder over three models and two batch sizes at 3x64x64."""

    name = "ladder_sweep"
    grid = ScenarioGrid.from_axes(
        Scenario(input_shape=(3, 64, 64)),
        model=["resnet18", "resnet34", "mobilenet_v2"],
        level=["naive", "replicated", "final"],
        batch_size=[4, 16],
    )

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.points = self.grid.expand()
        self.rng = random.Random(self.seed)
        self.rounds = 0

    def _check(self, outcome: ScenarioOutcome) -> bool:
        return outcome_pin(outcome) == self.pins[self.name].get(outcome.label)

    def setup(self) -> List[Sample]:
        return self.round(None)

    def round(self, spans: Optional[Spans]) -> List[Sample]:
        order = self.rng.sample(self.points, len(self.points))
        root = self.tmp / f"store-{self.rounds}"
        self.rounds += 1
        store = ArtifactStore(root)
        samples: List[Sample] = []
        cold_results: Dict[str, SimulationResult] = {}
        for kind in ("cold", "warm"):
            cache = ArtifactCache(store=store)
            runner = SweepRunner(max_workers=1, cache=cache)
            for scenario in order:
                if spans is None:
                    op = lambda s=scenario: runner.run([s]).outcomes[0]  # noqa: E731
                else:
                    def op(s=scenario, kind=kind, cache=cache):
                        outcome, result = traced_cached_scenario(
                            s,
                            cache,
                            spans,
                            COLD_STAGES if kind == "cold" else WARM_STAGES,
                            time_key=kind == "warm",
                        )
                        if kind == "cold":
                            cold_results[s.label] = result
                        elif s.label in cold_results:
                            # the store round trip must be bit-identical
                            self.trace_failures.extend(
                                f"{s.label}: {m}"
                                for m in result_mismatches(cold_results[s.label], result)
                            )
                        return outcome
                samples.append(_timed(kind, op, self._check, spans))
            if spans is not None:
                self.counters.add_cache(cache, warm=kind == "warm")
        shutil.rmtree(root, ignore_errors=True)
        return samples

    def record_pins(self):
        runner = SweepRunner(max_workers=1, cache=None)
        return {o.label: outcome_pin(o) for o in runner.run(self.points).outcomes}


class AnalogAccuracy(Workload):
    """The functional AIMC path at the paper's input size, typical noise."""

    name = "analog_accuracy"
    scenario = HEADLINE
    # random draws and passes over large arrays, fresh per-op memory, BLAS
    # MVMs and the interpreter work between layers
    probe_parts = ("interpreter", "arrays", "blas", "stream")
    # a warm op (~1 ms) next to a ~2.5 s cold op: ten per round leave the
    # round mean at the mercy of one hiccup, a hundred cost ~5% of a round
    warm_repeats = 100

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.execution = ExecutionSpec(noise="typical", n_inputs=1, seed=self.seed)
        self.store = ArtifactStore(self.tmp / "store")
        self.expected: Optional[Dict[str, object]] = None
        self._last = None

    def _accuracy(self, cache: Optional[ArtifactCache]) -> AccuracyRecord:
        return accuracy_stage(
            graph_stage(self.scenario, cache),
            self.execution,
            crossbar_size=self.scenario.crossbar_size,
            cache=cache,
        )

    def _check(self, record: AccuracyRecord) -> bool:
        return record.as_dict() == self.expected

    def setup(self) -> List[Sample]:
        record = self._accuracy(ArtifactCache(store=self.store))
        # off the default seed, every op must reproduce the warm-up exactly
        self.expected = (
            self.pins[self.name] if self.seed == DEFAULT_SEED else record.as_dict()
        )
        return [Sample("warm-up", 0.0, self._check(record))]

    def _traced_cold(self, spans: Spans) -> AccuracyRecord:
        record, graph, images, outputs = traced_accuracy(
            self.scenario, self.execution, spans, self.counters
        )
        self._last = (graph, images, outputs)
        return record

    def round(self, spans: Optional[Spans]) -> List[Sample]:
        cold = partial(self._accuracy, None) if spans is None else partial(self._traced_cold, spans)
        return [_timed("cold", cold, self._check, spans)] + warm_ops(
            self.warm_repeats, self.store, self._accuracy, self._check, spans, self.counters
        )

    def trace_checks(self) -> List[str]:
        if self._last is None:
            return ["no traced op completed"]
        graph, images, outputs = self._last
        executor = AnalogExecutor(
            graph,
            noise=self.execution.noise_model,
            crossbar_rows=self.scenario.crossbar_size,
            crossbar_cols=self.scenario.crossbar_size,
            seed=self.execution.seed,
            backend=self.execution.backend,
        )
        failures = list(self.trace_failures)
        for index, (image, output) in enumerate(zip(images, outputs)):
            if not np.array_equal(executor.run_output(image), output):
                failures.append(f"analog output {index} differs from AnalogExecutor.run_output")
        return failures

    def record_pins(self):
        return self._accuracy(None).as_dict()


WORKLOADS = {
    cls.name: cls for cls in (HeadlineB16, Batch64FastForward, LadderSweep, AnalogAccuracy)
}
