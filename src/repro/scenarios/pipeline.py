"""The end-to-end flow as explicit, composable, cacheable stages.

The seed code ran every experiment through one monolithic call chain
(``MappingOptimizer`` → ``lower_to_workload`` → ``simulate`` → analysis).
This module splits that chain into named stages with a uniform contract:

* each stage is a pure function of its inputs (mapping and lowering are
  deterministic; the simulator has no randomness), so
* each stage may be served from an :class:`~repro.scenarios.cache.
  ArtifactCache` keyed by the content fingerprints of its inputs
  (:mod:`repro.scenarios.fingerprint`).

``run_scenario`` strings the stages together for one declarative
:class:`~repro.scenarios.spec.Scenario` and returns a
:class:`ScenarioOutcome` built from the lightweight record layer
(:class:`~repro.sim.system.SimulationRecord`,
:class:`~repro.core.mapping.MappingRecord`,
:class:`~repro.analysis.metrics.PerformanceMetrics`), which is what the
sweep engine ships between processes.  The high-level ``repro.run_inference``
API is built from the same stages, so in-process callers and spec-file
sweeps hit the same cache.

Scenarios with an ``execution`` block additionally run
:func:`accuracy_stage` — the functional (numerical) execution of the graph
through :class:`~repro.aimc.crossbar.AnalogExecutor` or the digital
:class:`~repro.dnn.numerics.ReferenceExecutor` — and their outcome carries
an :class:`AccuracyRecord` next to the timing records.

Module contract: every stage is a pure function of its inputs (the
accuracy stage included — all stochastic analog effects are seeded from
the spec), stage keys hash those inputs
(:mod:`repro.scenarios.fingerprint`), and every record type returned here
is picklable plain data.  Persisted artifact payloads carry their own
schema stamps; :data:`ACCURACY_PAYLOAD_VERSION` stamps the accuracy
stage's, and must be bumped whenever the accuracy computation's semantics
change without its inputs changing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from ..aimc.crossbar import AnalogExecutor
from ..analysis.metrics import PerformanceMetrics, compute_metrics
from ..arch.config import ArchConfig
from ..core.allocator import AllocationError
from ..core.mapping import MappingRecord, NetworkMapping
from ..core.optimizer import MappingOptimizer, OptimizationLevel
from ..core.policies import resolve_policy
from ..core.pipeline import lower_to_workload
from ..core.replication import naive_cluster_count
from ..dnn.graph import Graph
from ..dnn.numerics import (
    LayerParameters,
    ReferenceExecutor,
    initialize_parameters,
    random_input,
)
from ..sim.system import DEFAULT_ENGINE, SimulationRecord, SimulationResult, simulate
from ..sim.workload import Workload, resolve_arrivals
from .cache import ArtifactCache
from .fingerprint import (
    accuracy_key,
    arch_key,
    content_digest,
    fingerprint,
    graph_key,
    mapping_key,
    simulation_key,
    workload_key,
)
from .spec import ExecutionSpec, Scenario


# --------------------------------------------------------------------------- #
# Stages
# --------------------------------------------------------------------------- #
def graph_stage(scenario: Scenario, cache: Optional[ArtifactCache] = None) -> Graph:
    """Instantiate (or reuse) the scenario's DNN graph."""
    if cache is None:
        return scenario.build_graph()
    key = fingerprint(
        ("graph", scenario.model, scenario.input_shape, scenario.num_classes)
    )
    return cache.get_or_create(ArtifactCache.REGION_GRAPH, key, scenario.build_graph)


def optimizer_stage(
    graph: Graph,
    arch: ArchConfig,
    batch_size: int,
    *,
    reserve_clusters: int = 4,
    max_replication: int = 64,
    cache: Optional[ArtifactCache] = None,
) -> MappingOptimizer:
    """Build (or reuse) the mapping optimizer for one graph/arch/batch point.

    Reuse matters because the optimizer caches the pipeline-balance
    computation shared by the replicated and final mapping levels.
    """

    def build() -> MappingOptimizer:
        return MappingOptimizer(
            graph,
            arch,
            batch_size=batch_size,
            reserve_clusters=reserve_clusters,
            max_replication=max_replication,
        )

    if cache is None:
        return build()
    key = fingerprint(
        (
            "optimizer",
            graph_key(graph),
            arch_key(arch),
            batch_size,
            reserve_clusters,
            max_replication,
        )
    )
    return cache.get_or_create(ArtifactCache.REGION_OPTIMIZER, key, build)


def mapping_stage(
    graph: Graph,
    arch: ArchConfig,
    batch_size: int,
    level: Any,
    *,
    optimizer: Optional[MappingOptimizer] = None,
    cache: Optional[ArtifactCache] = None,
    reserve_clusters: int = 4,
    max_replication: int = 64,
) -> NetworkMapping:
    """Build (or reuse) the network mapping for one mapping policy.

    ``level`` accepts every spelling
    :func:`~repro.core.policies.resolve_policy` does — an
    :class:`OptimizationLevel` member (the historical name of this
    parameter), a registered policy name, an inline ``{"policy": ...}``
    mapping or a :class:`~repro.core.policies.MappingPolicy` instance —
    and dispatches the build through the policy registry.

    The cache key derives from the *inputs* of the deterministic mapping
    build (the resolved policy's fingerprint token among them), so a hit
    skips the optimizer (including its balance pass) entirely.  A
    caller-supplied ``optimizer`` overrides ``batch_size`` and the
    optimizer knobs (it was constructed with its own), and — when a cache
    is in play — must have been built for this very ``graph`` and
    ``arch``: the key is computed from the arguments, so a foreign
    optimizer would poison the cache for every later caller.
    """
    policy = resolve_policy(level)
    if optimizer is not None:
        if cache is not None and (
            optimizer.graph is not graph or optimizer.arch is not arch
        ):
            if (
                graph_key(optimizer.graph) != graph_key(graph)
                or arch_key(optimizer.arch) != arch_key(arch)
            ):
                raise ValueError(
                    "mapping_stage: the supplied optimizer was built for a "
                    "different graph/arch than the ones being keyed"
                )
        batch_size = optimizer.batch_size
        reserve_clusters = optimizer.reserve_clusters
        max_replication = optimizer.max_replication

    def build() -> NetworkMapping:
        opt = optimizer
        try:
            if opt is None:
                opt = optimizer_stage(
                    graph,
                    arch,
                    batch_size,
                    reserve_clusters=reserve_clusters,
                    max_replication=max_replication,
                    cache=cache,
                )
            return policy.build(opt)
        except AllocationError as error:
            # name the scenario fields and what the smallest mapping needs;
            # counted only here, so a mapping that fits never pays for it
            raise AllocationError(
                f"{error} — the mapping does not fit: n_clusters="
                f"{arch.n_clusters}, crossbar_size={arch.ima.rows}, "
                f"reserve_clusters={reserve_clusters}; the naive mapping "
                f"alone needs {naive_cluster_count(graph, arch)} clusters"
            ) from error

    if cache is None:
        return build()
    key = mapping_key(
        graph_key(graph),
        arch_key(arch),
        batch_size,
        policy,
        reserve_clusters,
        max_replication,
    )
    return cache.get_or_create(
        ArtifactCache.REGION_MAPPING,
        key,
        build,
        persist=True,
        dump=lambda mapping: mapping.to_payload(),
        load=lambda payload: NetworkMapping.from_payload(payload, graph, arch),
    )


def _mapping_content_key(mapping: NetworkMapping) -> str:
    """Content key of a built mapping (graph + arch + mapping decisions).

    ``build_mapping`` is a pure function of these three, so they identify
    the mapping without fingerprinting every per-layer placement.
    """
    return fingerprint(
        (
            "mapping-content",
            graph_key(mapping.graph),
            arch_key(mapping.arch),
            mapping.options,
        )
    )


def workload_stage(
    mapping: NetworkMapping,
    *,
    zero_communication: bool = False,
    cache: Optional[ArtifactCache] = None,
) -> Workload:
    """Lower (or reuse) the simulator workload of a mapping.

    With a cache, the build also computes the workload's content digest
    (:func:`~repro.scenarios.fingerprint.content_digest`) before the
    workload is persisted.  The memo lives in the workload's ``__dict__``,
    so it is pickled with the workload, and a workload served from the
    store keys its simulation without canonicalising the IR again.  The
    key (:func:`~repro.scenarios.fingerprint.workload_key`) hashes the
    mapping's content and the mapping and lowering versions.
    """
    if cache is None:
        return lower_to_workload(mapping, zero_communication=zero_communication)

    def build() -> Workload:
        workload = lower_to_workload(mapping, zero_communication=zero_communication)
        content_digest(workload)
        return workload

    key = workload_key(_mapping_content_key(mapping), zero_communication)
    # the workload IR is already plain data, so it is its own store payload
    return cache.get_or_create(
        ArtifactCache.REGION_WORKLOAD, key, build, persist=True
    )


def simulation_stage(
    arch: ArchConfig,
    workload: Workload,
    *,
    model_contention: bool = True,
    buffer_depth: int = 2,
    fast_forward: bool = False,
    engine: str = DEFAULT_ENGINE,
    arrivals: Any = None,
    cache: Optional[ArtifactCache] = None,
) -> SimulationResult:
    """Simulate (or reuse) one workload on one architecture.

    The key is fully content-addressed — the fingerprint of the
    architecture plus the workload IR itself — so two different sweeps
    that simulate the same point share one simulation, while architectures
    differing only in simulator-visible timing parameters (HBM burst size,
    link latencies) never collide even when they lower to identical IR.
    ``fast_forward`` enables the exact steady-state fast-forward
    (:mod:`repro.sim.steady_state`); it changes how the result is computed,
    never its metrics, but keys separately so the persisted
    ``fast_forwarded`` provenance flag stays truthful.  ``engine`` selects
    the event kernel (compiled table lane or object kernel); the kernels
    are bit-identical but key separately so a pinned-kernel sweep really
    exercises the kernel it pinned.

    ``arrivals`` accepts every spelling
    :func:`~repro.sim.workload.resolve_arrivals` does; when given, the
    resolved process generates the per-job arrival schedule and the
    workload is stamped with it.  The cache key hashes the resolved cycle
    tuple (two spellings generating the same schedule share one
    simulation; editing a trace file changes the key even though its path
    did not) next to the content digest of the workload as it was passed
    in, which the workload stage computed when it lowered it.  Stamping is
    a pure function of that workload and the schedule, so the pair
    identifies the simulated workload, and the stamped copy is never
    canonicalised.
    """
    given = workload
    process = resolve_arrivals(arrivals)
    if process is not None:
        workload = workload.with_arrivals(process.generate(workload.n_jobs))

    def build() -> SimulationResult:
        return simulate(
            arch,
            workload,
            model_contention=model_contention,
            buffer_depth=buffer_depth,
            fast_forward=fast_forward,
            engine=engine,
        )

    if cache is None:
        return build()
    key = simulation_key(
        arch_key(arch),
        content_digest(given),
        model_contention,
        buffer_depth,
        fast_forward,
        engine,
        arrivals=workload.arrival_cycles or None,
    )
    return cache.get_or_create(
        ArtifactCache.REGION_SIMULATION,
        key,
        build,
        persist=True,
        dump=lambda result: result.to_payload(),
        load=lambda payload: SimulationResult.from_payload(payload, arch, workload),
    )


# --------------------------------------------------------------------------- #
# Accuracy stage: functional execution vs the digital reference
# --------------------------------------------------------------------------- #
#: schema version of :meth:`AccuracyRecord.to_payload`.  Accuracy keys hash
#: the stage's *inputs* (graph, resolved noise model, backend, geometry,
#: seeds), so a change to how the metrics are computed — different error
#: aggregation, a new comparison input set — leaves keys unchanged and MUST
#: be accompanied by a bump here, or warm stores would serve stale records.
ACCURACY_PAYLOAD_VERSION = 1


@dataclass(frozen=True)
class AccuracyRecord:
    """Accuracy of one functional execution against the digital reference.

    Plain data (scalars only), picklable and JSON-safe — the accuracy
    stage's member of the record layer.  ``rms_error`` aggregates over all
    ``n_inputs`` evaluated images; ``top1_agreement`` is the fraction of
    them whose output argmax matches the digital reference's.
    """

    backend: str
    noise_label: str
    crossbar_size: int
    n_inputs: int
    #: crossbars instantiated by the analog model (0 on the digital backend).
    total_crossbars: int
    rms_error: float
    #: RMS of the digital reference outputs, for scale-free comparison.
    reference_rms: float
    top1_agreement: float

    @property
    def relative_rms_error(self) -> float:
        """RMS error normalised by the reference output RMS."""
        if self.reference_rms == 0.0:
            return 0.0 if self.rms_error == 0.0 else float("inf")
        return self.rms_error / self.reference_rms

    def as_dict(self) -> Dict[str, object]:
        """Plain-data rendering (JSON-safe) of the record."""
        return {
            "backend": self.backend,
            "noise_label": self.noise_label,
            "crossbar_size": self.crossbar_size,
            "n_inputs": self.n_inputs,
            "total_crossbars": self.total_crossbars,
            "rms_error": self.rms_error,
            "reference_rms": self.reference_rms,
            "relative_rms_error": self.relative_rms_error,
            "top1_agreement": self.top1_agreement,
        }

    # -- persistent-store payload -------------------------------------- #
    def to_payload(self) -> Dict[str, object]:
        """Storable rendering: the fields plus the payload schema stamp."""
        payload = {
            "backend": self.backend,
            "noise_label": self.noise_label,
            "crossbar_size": self.crossbar_size,
            "n_inputs": self.n_inputs,
            "total_crossbars": self.total_crossbars,
            "rms_error": self.rms_error,
            "reference_rms": self.reference_rms,
            "top1_agreement": self.top1_agreement,
        }
        payload["version"] = ACCURACY_PAYLOAD_VERSION
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "AccuracyRecord":
        """Inverse of :meth:`to_payload`; rejects stale schema stamps."""
        version = payload.get("version")
        if version != ACCURACY_PAYLOAD_VERSION:
            raise ValueError(
                f"accuracy payload version {version} does not match "
                f"{ACCURACY_PAYLOAD_VERSION} (stale artifact)"
            )
        fields = dict(payload)
        fields.pop("version")
        return cls(**fields)


def _accuracy_inputs(graph: Graph, execution: ExecutionSpec) -> List[np.ndarray]:
    """The deterministic input images one accuracy evaluation consumes."""
    return [
        random_input(graph, seed=np.random.SeedSequence((execution.seed, index)))
        for index in range(execution.n_inputs)
    ]


def reference_output_stage(
    graph: Graph,
    execution: ExecutionSpec,
    cache: Optional[ArtifactCache] = None,
    *,
    parameters: Optional[Dict[int, LayerParameters]] = None,
) -> List[np.ndarray]:
    """Digital reference outputs for one graph/seed/input-set point.

    Shared by every noise configuration of an accuracy sweep over the same
    graph: the digital forward pass runs once, not once per noise preset.
    The region is memory-only — the outputs are a pure function of the
    graph and the execution seeds and rebuild quickly, and the expensive
    cross-invocation artifact (the :class:`AccuracyRecord`) persists on
    its own.

    ``parameters`` lets a caller that already holds
    ``initialize_parameters(graph, seed=execution.seed)`` hand that very
    draw in instead of paying for it again; it is read only on a cache
    miss, and the key does not hash it, so it must be exactly that draw.
    """

    def build() -> List[np.ndarray]:
        executor = ReferenceExecutor(
            graph, parameters=parameters, seed=execution.seed
        )
        return [
            executor.run_output(image)
            for image in _accuracy_inputs(graph, execution)
        ]

    if cache is None:
        return build()
    key = fingerprint(
        ("reference-output", graph_key(graph), execution.seed, execution.n_inputs)
    )
    return cache.get_or_create(ArtifactCache.REGION_REFERENCE_OUTPUT, key, build)


def accuracy_stage(
    graph: Graph,
    execution: ExecutionSpec,
    *,
    crossbar_size: int = 256,
    cache: Optional[ArtifactCache] = None,
) -> AccuracyRecord:
    """Evaluate (or reuse) the functional accuracy of one execution point.

    Runs ``execution.n_inputs`` deterministic images through the selected
    backend — ``"digital"`` re-runs the floating-point reference (a
    zero-error control and determinism check), ``"vectorized"`` and
    ``"reference"`` run the tiled analog crossbar model at this scenario's
    crossbar geometry — and summarises output RMS error and top-1
    agreement against the digital reference.

    The computation is a pure function of its inputs (every stochastic
    analog effect is seeded from the spec), so the record is cached under
    :func:`~repro.scenarios.fingerprint.accuracy_key` and persisted to the
    artifact store with its own payload schema
    (:data:`ACCURACY_PAYLOAD_VERSION`).  Architecture axes the functional
    path never reads (cluster count, batch size) are not in the key, so
    one record serves every performance point sharing its graph, crossbar
    size and noise configuration.
    """

    # the digital backend reads neither the noise model nor the crossbar
    # geometry; normalising both out of the key (and the record) lets one
    # zero-error control record serve every noise/crossbar point of a grid
    # instead of building byte-identical copies per point.
    digital = execution.backend == "digital"
    record_noise_label = "n/a" if digital else execution.noise_label
    record_crossbar_size = 0 if digital else crossbar_size

    def build() -> AccuracyRecord:
        images = _accuracy_inputs(graph, execution)
        if digital:
            references = reference_output_stage(graph, execution, cache)
            # an independent run of the digital path: bit-for-bit equality
            # with the cached reference outputs is the determinism contract
            executor = ReferenceExecutor(
                graph, parameters=initialize_parameters(graph, seed=execution.seed)
            )
            total_crossbars = 0
        else:
            # the executor draws the parameters and returns while its pool
            # programs them; its one draw serves the digital reference (on
            # a cache miss), which runs meanwhile
            executor = AnalogExecutor(
                graph,
                noise=execution.noise_model,
                crossbar_rows=crossbar_size,
                crossbar_cols=crossbar_size,
                seed=execution.seed,
                backend=execution.backend,
            )
            references = reference_output_stage(
                graph, execution, cache, parameters=executor.parameters
            )
            total_crossbars = executor.total_crossbars
        squared_error = 0.0
        squared_reference = 0.0
        n_values = 0
        agreements = 0
        for image, reference in zip(images, references):
            output = executor.run_output(image)
            squared_error += float(np.sum((output - reference) ** 2))
            squared_reference += float(np.sum(reference**2))
            n_values += reference.size
            if int(np.argmax(output)) == int(np.argmax(reference)):
                agreements += 1
        return AccuracyRecord(
            backend=execution.backend,
            noise_label=record_noise_label,
            crossbar_size=record_crossbar_size,
            n_inputs=execution.n_inputs,
            total_crossbars=total_crossbars,
            rms_error=float(np.sqrt(squared_error / n_values)),
            reference_rms=float(np.sqrt(squared_reference / n_values)),
            top1_agreement=agreements / execution.n_inputs,
        )

    if cache is None:
        return build()
    key = accuracy_key(
        graph_key(graph),
        None if digital else execution.noise_model,
        execution.backend,
        record_crossbar_size,
        execution.seed,
        execution.n_inputs,
    )
    return cache.get_or_create(
        ArtifactCache.REGION_ACCURACY,
        key,
        build,
        persist=True,
        dump=lambda record: record.to_payload(),
        load=AccuracyRecord.from_payload,
    )


# --------------------------------------------------------------------------- #
# One scenario, end to end
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioOutcome:
    """Results of one scenario, in the lightweight record layer.

    Everything here is plain data (frozen dataclasses of scalars), so an
    outcome pickles cheaply across process boundaries and renders to JSON
    without custom encoders.
    """

    scenario: Scenario
    metrics: PerformanceMetrics
    simulation: SimulationRecord
    mapping: MappingRecord
    elapsed_s: float
    #: accuracy of the functional execution, when the scenario declared an
    #: ``execution`` block; None on performance-only scenarios.
    accuracy: Optional[AccuracyRecord] = None
    #: position of the scenario in the sweep's input list (-1 when the
    #: outcome was produced outside a sweep).  With ``on_error="record"``
    #: failures are reported separately, so this is the only way to realign
    #: outcomes with the scenarios a caller submitted.
    index: int = -1

    @property
    def label(self) -> str:
        """The scenario's display label."""
        return self.scenario.label

    def as_dict(self) -> Dict[str, object]:
        """Plain-data rendering (JSON-safe) of the outcome."""
        return {
            "scenario": self.scenario.as_dict(),
            "metrics": self.metrics.as_record(),
            "simulation": self.simulation.as_dict(),
            "mapping": self.mapping.as_dict(),
            "accuracy": self.accuracy.as_dict() if self.accuracy is not None else None,
            "elapsed_s": self.elapsed_s,
            "index": self.index,
        }


def run_scenario(
    scenario: Scenario, cache: Optional[ArtifactCache] = None
) -> ScenarioOutcome:
    """Execute one scenario through every stage and summarise the results."""
    start = time.perf_counter()
    graph = graph_stage(scenario, cache)
    arch = scenario.build_arch()
    mapping = mapping_stage(
        graph,
        arch,
        scenario.batch_size,
        scenario.mapping_policy,
        cache=cache,
        reserve_clusters=scenario.reserve_clusters,
        max_replication=scenario.max_replication,
    )
    workload = workload_stage(mapping, cache=cache)
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
    metrics = compute_metrics(result, mapping, name=scenario.label)
    accuracy = None
    if scenario.execution is not None:
        accuracy = accuracy_stage(
            graph,
            scenario.execution,
            crossbar_size=scenario.crossbar_size,
            cache=cache,
        )
    return ScenarioOutcome(
        scenario=scenario,
        metrics=metrics,
        simulation=result.record(),
        mapping=mapping.record(),
        accuracy=accuracy,
        elapsed_s=time.perf_counter() - start,
    )
