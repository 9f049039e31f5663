"""Workload intermediate representation consumed by the system simulator.

The mapping engine (:mod:`repro.core`) lowers a DNN graph plus a mapping
decision into this architecture-level IR: a list of pipeline *stages*, each
bound to a set of clusters, with per-job (per data tile) compute costs and
explicit data flows between stages, to/from the HBM, and to/from residual
storage locations.  The :class:`repro.sim.system.SystemSimulator` executes
this IR with the self-timed, credit-based flow control of Sec. IV.5 and
reports latency, per-cluster activity and traffic.

Keeping this IR independent of the DNN graph keeps the dependency direction
clean (``core`` depends on ``sim``, never the reverse) and makes the
simulator reusable for synthetic workloads in tests and ablations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .engine import SimulationError

#: kinds of data-flow endpoints.
ENDPOINT_STAGE = "stage"
ENDPOINT_HBM = "hbm"
ENDPOINT_STORAGE = "storage"


@dataclass(frozen=True)
class DataFlow:
    """One logical data stream feeding or draining a stage, per job.

    ``kind`` selects the remote endpoint: another pipeline stage, the HBM,
    or a *storage* location (the L1 of a spare cluster used to park residual
    tensors, Sec. V.4).  ``bytes_per_job`` is the payload exchanged for each
    pipeline job (one tile of one image).
    """

    kind: str
    bytes_per_job: int
    stage_id: Optional[int] = None
    storage_cluster: Optional[int] = None
    #: label used in reports (e.g. "ifm", "residual", "ofm"); residual flows
    #: must use a label unique to the tensor so writes and reads pair up.
    label: str = "data"
    #: overrides the simulator's default double-buffering depth for this
    #: flow; residual tensors parked in storage use a deeper buffer because
    #: the storage holds the whole tensor, decoupling producer and consumer.
    buffer_depth: Optional[int] = None
    #: number of separate DMA transfers the per-job payload is split into.
    #: Residual tensors are moved one feature-map column (``Cout x Hout``
    #: elements) at a time, so each chunk pays the target's access latency —
    #: this is what makes HBM-staged residuals expensive (Sec. V.4).
    transfers_per_job: int = 1

    def __post_init__(self) -> None:
        if self.kind not in (ENDPOINT_STAGE, ENDPOINT_HBM, ENDPOINT_STORAGE):
            raise ValueError(f"unknown data-flow kind {self.kind!r}")
        if self.bytes_per_job < 0:
            raise ValueError("bytes_per_job cannot be negative")
        if self.kind == ENDPOINT_STAGE and self.stage_id is None:
            raise ValueError("stage data flows need a stage_id")
        if self.kind == ENDPOINT_STORAGE and self.storage_cluster is None:
            raise ValueError("storage data flows need a storage_cluster")
        if self.buffer_depth is not None and self.buffer_depth <= 0:
            raise ValueError("buffer_depth must be positive when given")
        if self.transfers_per_job <= 0:
            raise ValueError("transfers_per_job must be positive")


def chunk_groups(n_bytes: int, n_chunks: int) -> Tuple[Tuple[int, int], ...]:
    """The DMA transfers a ``n_bytes`` payload moves as, in issue order.

    The payload is split into ``n_chunks`` transfers of ``ceil(n_bytes /
    n_chunks)`` bytes, the last ones taking what remains; a transfer left
    with nothing still moves one byte.  Runs of equal-size transfers are
    returned as ``(size, count)`` pairs.  A payload of at most one chunk is
    a single transfer of ``n_bytes``, with no 1-byte floor.
    """
    if n_chunks <= 1:
        return ((n_bytes, 1),)
    chunk = -(-n_bytes // n_chunks)
    groups: List[Tuple[int, int]] = []
    remaining = n_bytes
    for __ in range(n_chunks):
        size = min(chunk, remaining)
        remaining -= size
        size = max(1, size)
        if groups and groups[-1][0] == size:
            groups[-1] = (size, groups[-1][1] + 1)
        else:
            groups.append((size, 1))
    return tuple(groups)


@dataclass(frozen=True)
class StageCost:
    """Per-job compute cost of one pipeline stage.

    ``analog_cycles_per_job`` is the time one replica (one group of
    row/column-split IMAs working in parallel) needs for its share of a job;
    ``digital_cycles_per_job`` is the time the stage's digital clusters need
    for reductions / pooling / residual additions / requantisation of one
    job.  MAC and op counts are carried for the throughput and energy
    metrics.
    """

    analog_cycles_per_job: int = 0
    digital_cycles_per_job: int = 0
    analog_macs_per_job: int = 0
    digital_ops_per_job: int = 0
    #: bytes exchanged inside the stage per job (partial sums towards the
    #: reduction clusters, input broadcast across column splits).
    intra_stage_bytes_per_job: int = 0

    def __post_init__(self) -> None:
        for name in (
            "analog_cycles_per_job",
            "digital_cycles_per_job",
            "analog_macs_per_job",
            "digital_ops_per_job",
            "intra_stage_bytes_per_job",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")


@dataclass(frozen=True)
class StageDescriptor:
    """One pipeline stage bound to clusters, with its costs and data flows."""

    stage_id: int
    name: str
    #: one tuple of cluster ids per replica; all clusters of a replica work
    #: in parallel on the same job (row/column splits).  Empty for purely
    #: digital stages.
    analog_replicas: Tuple[Tuple[int, ...], ...] = ()
    #: clusters executing the digital part of the stage (reductions, pooling,
    #: residual additions); every job runs on all of them, one job at a
    #: time.  May be empty for pure analog stages whose requantisation is
    #: folded into the analog cost.
    digital_clusters: Tuple[int, ...] = ()
    cost: StageCost = field(default_factory=StageCost)
    inputs: Tuple[DataFlow, ...] = ()
    outputs: Tuple[DataFlow, ...] = ()

    def __post_init__(self) -> None:
        if not self.analog_replicas and self.cost.analog_cycles_per_job > 0:
            raise ValueError("analog cost requires at least one analog replica")

    # ------------------------------------------------------------------ #
    @property
    def replication(self) -> int:
        """Number of analog replicas (parallel jobs in flight)."""
        return max(1, len(self.analog_replicas))

    @property
    def is_analog(self) -> bool:
        """Whether the stage performs analog computation."""
        return bool(self.analog_replicas) and self.cost.analog_cycles_per_job > 0

    @property
    def clusters(self) -> Tuple[int, ...]:
        """All clusters used by the stage (deduplicated, sorted)."""
        members = {c for replica in self.analog_replicas for c in replica}
        members.update(self.digital_clusters)
        return tuple(sorted(members))

    @property
    def n_clusters(self) -> int:
        """Number of distinct clusters used by the stage."""
        return len(self.clusters)

    @property
    def io_cluster(self) -> Optional[int]:
        """Representative cluster charged with the stage's DMA traffic."""
        clusters = self.clusters
        return clusters[0] if clusters else None

    def input_flow_index(self, producer_id: int) -> int:
        """Index of the input flow this stage receives from stage ``producer_id``."""
        for index, flow in enumerate(self.inputs):
            if flow.kind == ENDPOINT_STAGE and flow.stage_id == producer_id:
                return index
        raise SimulationError(
            f"stage {self.stage_id} has no input flow from stage {producer_id}"
        )

    def credits(self, buffer_depth: int) -> Tuple[Tuple[int, ...], int]:
        """The stage's self-timed flow-control credits (Sec. IV.5).

        Returns the input credits of each input flow, in order, and the
        output slots.  A job starts only when its inputs have arrived and
        fewer than the output slots of earlier jobs still have undelivered
        outputs; a producer pushes a chunk only against an input credit,
        which the consumer returns when its compute has consumed the chunk.
        Each analog replica owns its own buffers, so both counts are
        scaled by the replication; otherwise data replication could never
        overlap more than ``buffer_depth`` jobs.  An input flow's own
        ``buffer_depth`` overrides the simulator's.  Both kernels size
        their credits here.
        """
        replication = self.replication
        inputs = tuple(
            (flow.buffer_depth if flow.buffer_depth is not None else buffer_depth)
            * replication
            for flow in self.inputs
        )
        return inputs, buffer_depth * replication


@dataclass
class Workload:
    """A complete pipelined workload: stages, job count and bookkeeping."""

    name: str
    stages: List[StageDescriptor]
    n_jobs: int
    batch_size: int
    tiles_per_image: int
    #: total MACs and digital ops for the whole batch (metrics denominator).
    total_macs: int = 0
    total_digital_ops: int = 0
    #: storage clusters used to park residuals (Sec. V.4 final mapping).
    storage_clusters: Tuple[int, ...] = ()
    #: per-job arrival times in cycles (open-system serving workloads).
    #: Empty means the closed-batch model: every job is available at t=0.
    #: When non-empty it must hold exactly ``n_jobs`` non-negative,
    #: non-decreasing timestamps; job ``j`` may not enter the pipeline (nor
    #: have its external input fetched) before cycle ``arrival_cycles[j]``.
    arrival_cycles: Tuple[int, ...] = ()

    #: ``arrival_cycles`` is omitted from the content fingerprint while it
    #: holds its default, so closed-batch workloads key byte-identically to
    #: their pre-arrivals rendering (see repro.scenarios.fingerprint).
    __fingerprint_omit_defaults__ = ("arrival_cycles",)

    def __post_init__(self) -> None:
        if self.n_jobs <= 0:
            raise ValueError("a workload needs at least one job")
        if self.batch_size <= 0 or self.tiles_per_image <= 0:
            raise ValueError("batch_size and tiles_per_image must be positive")
        ids = [stage.stage_id for stage in self.stages]
        if len(ids) != len(set(ids)):
            raise ValueError("stage ids must be unique")
        if self.arrival_cycles:
            arrivals = tuple(int(cycle) for cycle in self.arrival_cycles)
            if len(arrivals) != self.n_jobs:
                raise ValueError(
                    f"arrival_cycles has {len(arrivals)} entries for "
                    f"{self.n_jobs} jobs"
                )
            if arrivals[0] < 0:
                raise ValueError("arrival cycles cannot be negative")
            if any(b < a for a, b in zip(arrivals, arrivals[1:])):
                raise ValueError("arrival cycles must be non-decreasing")
            self.arrival_cycles = arrivals

    # ------------------------------------------------------------------ #
    def stage(self, stage_id: int) -> StageDescriptor:
        """Return a stage by identifier."""
        for stage in self.stages:
            if stage.stage_id == stage_id:
                return stage
        raise KeyError(f"no stage with id {stage_id}")

    @cached_property
    def used_clusters(self) -> Tuple[int, ...]:
        """All clusters used by any stage or as residual storage.

        Counted once per workload, which is never mutated after it is
        lowered (the content-digest memo assumes the same).  The store
        pickles a workload when it is lowered, before anything counts its
        clusters, so the count never rides a stored entry.
        """
        members = {c for stage in self.stages for c in stage.clusters}
        members.update(self.storage_clusters)
        return tuple(sorted(members))

    @property
    def n_used_clusters(self) -> int:
        """Number of distinct clusters used by the workload."""
        return len(self.used_clusters)

    @property
    def total_ops(self) -> int:
        """Total operations of the batch (1 MAC = 2 ops plus digital ops)."""
        return 2 * self.total_macs + self.total_digital_ops

    @property
    def is_open(self) -> bool:
        """Whether this is an open-system (arrival-driven) workload.

        The presence of an arrival schedule is what makes a workload open:
        the simulator gates job launch on the timestamps and records
        per-request sojourn.  Even an all-zero schedule (one burst at t=0)
        is open — it launches like the closed batch but reports request
        latencies, and carries a distinct content fingerprint.
        """
        return bool(self.arrival_cycles)

    def with_n_jobs(self, n_jobs: int) -> "Workload":
        """A copy of this workload processing a different number of jobs.

        Everything else — stages, costs, data flows, bookkeeping totals —
        is shared.  A run whose admission limit the steady-state
        fast-forward lowers to ``n_jobs`` drains exactly as this copy's run
        (:mod:`repro.sim.steady_state`).  An arrival schedule is
        truncated alongside the job count (a prefix stays a valid
        schedule); growing the job count of an open workload has no
        defined arrival times for the new jobs and is rejected.
        """
        arrivals = self.arrival_cycles
        if arrivals:
            if n_jobs > len(arrivals):
                raise ValueError(
                    f"cannot grow an open workload to {n_jobs} jobs: the "
                    f"arrival schedule only covers {len(arrivals)}"
                )
            arrivals = arrivals[:n_jobs]
        return dataclasses.replace(self, n_jobs=n_jobs, arrival_cycles=arrivals)

    def with_arrivals(self, arrival_cycles: Sequence[int]) -> "Workload":
        """A copy of this workload with a per-job arrival schedule.

        ``arrival_cycles`` must cover every job (longer schedules — e.g. a
        long trace driving a short run — are truncated to ``n_jobs``;
        shorter ones are an error, raised by validation).
        """
        return dataclasses.replace(
            self, arrival_cycles=tuple(arrival_cycles)[: self.n_jobs]
        )

    def final_stage(self) -> StageDescriptor:
        """The pipeline's last stage (the one producing the network output).

        A stage is *final* when none of its outputs feed another stage; with
        several such sinks (rare: multi-head networks) the highest stage id
        wins, matching the lowering pass's topological numbering.
        """
        if not self.stages:
            raise ValueError("workload has no stages")
        sinks = [
            stage
            for stage in self.stages
            if not any(flow.kind == ENDPOINT_STAGE for flow in stage.outputs)
        ]
        candidates = sinks if sinks else self.stages
        return max(candidates, key=lambda stage: stage.stage_id)

    def relay_inputs(self) -> Dict[Tuple[str, str], Tuple[int, int]]:
        """The stage input that reads back each relayed tensor.

        A tensor is relayed when a stage writes it to the HBM or to a
        storage cluster and a stage reads it: an output and an input of
        the same ``(kind, label)``.  Maps that pair to the ``(stage_id,
        input index)`` reading it; :meth:`validate` rejects a tensor that
        two inputs read.
        """
        written = self._stored_outputs()
        return {
            (flow.kind, flow.label): (stage.stage_id, index)
            for stage in self.stages
            for index, flow in enumerate(stage.inputs)
            if (flow.kind, flow.label) in written
        }

    def external_inputs(self) -> Tuple[Tuple[int, int], ...]:
        """The HBM and storage inputs that no stage writes (the network
        input), as ``(stage_id, input index)`` in stage order and then
        input order: the order in which the simulator issues their first
        fetches, which are its first events."""
        written = self._stored_outputs()
        return tuple(
            (stage.stage_id, index)
            for stage in self.stages
            for index, flow in enumerate(stage.inputs)
            if flow.kind != ENDPOINT_STAGE and (flow.kind, flow.label) not in written
        )

    def _stored_outputs(self) -> Set[Tuple[str, str]]:
        """``(kind, label)`` of every output written to the HBM or storage."""
        return {
            (flow.kind, flow.label)
            for stage in self.stages
            for flow in stage.outputs
            if flow.kind != ENDPOINT_STAGE
        }

    def validate(self, n_clusters: int) -> None:
        """Check stage references and cluster indices against the system
        size, and that every transfer the kernels would issue can move.

        A stored tensor (an HBM or storage ``(kind, label)`` some stage
        writes) that a stage reads is relayed from one writer to one
        reader, so a second writer or a second reader of it is rejected.
        Several writers of a tensor that no stage reads (the one network
        output of a multi-head graph) are accepted.
        A transfer from or to a stage without clusters has that end off
        chip; a non-empty flow, or any external feed, whose other end is
        off chip too is rejected.
        """
        ids = {stage.stage_id for stage in self.stages}
        on_chip: Dict[int, bool] = {}
        for stage in self.stages:
            clusters = stage.clusters
            on_chip[stage.stage_id] = bool(clusters)
            for cluster in clusters:
                if not 0 <= cluster < n_clusters:
                    raise ValueError(
                        f"stage {stage.stage_id} uses cluster {cluster}, but the "
                        f"system only has {n_clusters}"
                    )
            for flow in stage.inputs + stage.outputs:
                if flow.kind == ENDPOINT_STAGE and flow.stage_id not in ids:
                    raise ValueError(
                        f"stage {stage.stage_id} references unknown stage "
                        f"{flow.stage_id}"
                    )
                if flow.kind == ENDPOINT_STORAGE and not (
                    0 <= flow.storage_cluster < n_clusters
                ):
                    raise ValueError(
                        f"stage {stage.stage_id} references storage cluster "
                        f"{flow.storage_cluster} outside the system"
                    )
        writers: Dict[Tuple[str, str], List[int]] = {}
        for stage in self.stages:
            for flow in stage.outputs:
                if flow.kind != ENDPOINT_STAGE:
                    writers.setdefault((flow.kind, flow.label), []).append(
                        stage.stage_id
                    )
        written = writers.keys()
        readers: Dict[Tuple[str, str], int] = {}
        for stage in self.stages:
            for flow in stage.inputs:
                tensor = (flow.kind, flow.label)
                if tensor not in written:
                    continue
                if tensor in readers:
                    raise ValueError(
                        f"stored tensor {tensor} is read by stage "
                        f"{readers[tensor]} and by stage {stage.stage_id}; "
                        "a stored tensor is relayed to one reader"
                    )
                readers[tensor] = stage.stage_id
        for tensor in readers:
            first, *others = writers[tensor]
            if others:
                raise ValueError(
                    f"stored tensor {tensor} is written by stage {first} and "
                    f"by stage {others[0]}; a stored tensor that a stage "
                    "reads is relayed from one writer"
                )
        for stage in self.stages:
            if on_chip[stage.stage_id]:
                continue
            for index, flow in enumerate(stage.inputs):
                # an input that no stage writes is fed from the HBM, even
                # when empty; a stage input is checked as its producer's output
                fed = flow.kind != ENDPOINT_STAGE and (
                    (flow.kind, flow.label) not in written
                )
                if fed or (flow.kind == ENDPOINT_HBM and flow.bytes_per_job > 0):
                    raise _off_chip_transfer(stage, "input", index, flow)
            for index, flow in enumerate(stage.outputs):
                far_off_chip = flow.kind == ENDPOINT_HBM or (
                    flow.kind == ENDPOINT_STAGE and not on_chip[flow.stage_id]
                )
                if far_off_chip and flow.bytes_per_job > 0:
                    raise _off_chip_transfer(stage, "output", index, flow)


def _off_chip_transfer(
    stage: StageDescriptor, direction: str, index: int, flow: DataFlow
) -> ValueError:
    """The error for a flow of the cluster-less ``stage`` whose other end
    is off chip too."""
    far = (
        f"stage {flow.stage_id}"
        if flow.kind == ENDPOINT_STAGE
        else f"{flow.kind} {flow.label!r}"
    )
    return ValueError(
        f"stage {stage.stage_id} ({stage.name!r}) has no clusters, and its "
        f"{direction} flow {index} ({far}, {flow.bytes_per_job} bytes per job) "
        "has no on-chip end: a transfer needs at least one on-chip endpoint"
    )


# --------------------------------------------------------------------------- #
# Arrival processes (open-system serving workloads)
# --------------------------------------------------------------------------- #
class ArrivalError(ValueError):
    """Raised for invalid arrival-process specifications."""


class ArrivalTraceError(ArrivalError):
    """Raised for a malformed arrival trace file, naming the offending line."""

    def __init__(self, path: object, line_no: int, message: str) -> None:
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def load_arrival_trace(path: Union[str, Path]) -> Tuple[int, ...]:
    """Load per-job arrival cycles from an SWF-style trace file.

    The format follows the Standard Workload Format conventions used by
    cluster-simulator traces: lines starting with ``;`` are comments, blank
    lines are skipped, and each record is a whitespace-separated row whose
    **second** field is the job's arrival (submit) time, here in cycles.
    Remaining fields are ignored, so real SWF files load unmodified.

    Malformed records raise :class:`ArrivalTraceError` naming the file and
    the 1-based line number; arrival times must be non-negative integers
    and non-decreasing across records.
    """
    path = Path(path)
    arrivals: List[int] = []
    try:
        lines = path.read_text().splitlines()
    except OSError as error:
        raise ArrivalError(f"cannot read arrival trace {path}: {error}") from error
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        fields = line.split()
        if len(fields) < 2:
            raise ArrivalTraceError(
                path, line_no, f"expected at least 2 fields, got {len(fields)}"
            )
        try:
            arrival = int(fields[1])
        except ValueError:
            raise ArrivalTraceError(
                path, line_no, f"arrival time {fields[1]!r} is not an integer"
            ) from None
        if arrival < 0:
            raise ArrivalTraceError(
                path, line_no, f"arrival time {arrival} is negative"
            )
        if arrivals and arrival < arrivals[-1]:
            raise ArrivalTraceError(
                path,
                line_no,
                f"arrival time {arrival} decreases below {arrivals[-1]}",
            )
        arrivals.append(arrival)
    if not arrivals:
        raise ArrivalError(f"arrival trace {path} contains no records")
    return tuple(arrivals)


@dataclass(frozen=True)
class DeterministicArrivals:
    """Evenly spaced arrivals: job ``j`` at ``start + j * interval`` cycles."""

    interval_cycles: int
    start_cycle: int = 0

    def __post_init__(self) -> None:
        if self.interval_cycles < 0:
            raise ArrivalError("interval_cycles cannot be negative")
        if self.start_cycle < 0:
            raise ArrivalError("start_cycle cannot be negative")

    def generate(self, n_jobs: int) -> Tuple[int, ...]:
        return tuple(
            self.start_cycle + j * self.interval_cycles for j in range(n_jobs)
        )


@dataclass(frozen=True)
class PoissonArrivals:
    """Poisson arrivals: i.i.d. exponential inter-arrival times, seeded.

    Inter-arrival draws come from ``numpy.random.default_rng(seed)`` with
    the given mean, are accumulated in float and rounded half-even to
    integer cycles — rounding a non-decreasing cumulative sum preserves
    monotonicity, so the schedule is always valid.  The same seed yields
    the same timestamp sequence on every run.
    """

    mean_interarrival_cycles: float
    seed: int = 0
    start_cycle: int = 0

    def __post_init__(self) -> None:
        if self.mean_interarrival_cycles <= 0:
            raise ArrivalError("mean_interarrival_cycles must be positive")
        if self.start_cycle < 0:
            raise ArrivalError("start_cycle cannot be negative")

    def generate(self, n_jobs: int) -> Tuple[int, ...]:
        import numpy as np

        rng = np.random.default_rng(self.seed)
        gaps = rng.exponential(self.mean_interarrival_cycles, size=n_jobs)
        times = self.start_cycle + np.cumsum(gaps)
        return tuple(int(t) for t in np.rint(times))


@dataclass(frozen=True)
class BurstyArrivals:
    """Bursty arrivals: bursts of ``burst_size`` jobs every ``burst_interval``.

    Job ``j`` arrives at ``start + (j // burst_size) * burst_interval`` —
    the whole burst lands on one cycle, modelling synchronized request
    spikes (the worst case for tail latency).
    """

    burst_size: int
    burst_interval_cycles: int
    start_cycle: int = 0

    def __post_init__(self) -> None:
        if self.burst_size <= 0:
            raise ArrivalError("burst_size must be positive")
        if self.burst_interval_cycles < 0:
            raise ArrivalError("burst_interval_cycles cannot be negative")
        if self.start_cycle < 0:
            raise ArrivalError("start_cycle cannot be negative")

    def generate(self, n_jobs: int) -> Tuple[int, ...]:
        return tuple(
            self.start_cycle + (j // self.burst_size) * self.burst_interval_cycles
            for j in range(n_jobs)
        )


@dataclass(frozen=True)
class TraceArrivals:
    """Arrivals replayed from an SWF-style trace file (see
    :func:`load_arrival_trace`).  A trace longer than the run is truncated
    to the first ``n_jobs`` records; a shorter one is an error."""

    path: str

    def generate(self, n_jobs: int) -> Tuple[int, ...]:
        arrivals = load_arrival_trace(self.path)
        if len(arrivals) < n_jobs:
            raise ArrivalError(
                f"arrival trace {self.path} has {len(arrivals)} records but "
                f"the workload runs {n_jobs} jobs"
            )
        return arrivals[:n_jobs]


#: registered arrival-process kinds, by spec name.
ARRIVAL_PROCESSES: Dict[str, type] = {
    "deterministic": DeterministicArrivals,
    "poisson": PoissonArrivals,
    "bursty": BurstyArrivals,
    "trace": TraceArrivals,
}


def resolve_arrivals(spec: object) -> Optional[object]:
    """Normalise an arrival spelling into an arrival-process instance.

    Accepted spellings (the ones the scenario spec and CLI produce):

    * ``None`` — closed batch, returned unchanged;
    * an arrival-process instance (anything with ``generate``) — itself;
    * a string — treated as an SWF-style trace file path;
    * a mapping with a ``"process"`` key naming a registered kind plus its
      keyword parameters, e.g. ``{"process": "poisson",
      "mean_interarrival_cycles": 400, "seed": 7}``;
    * an iterable of ``(key, value)`` pairs — the frozen spelling of the
      mapping, as stored on :class:`~repro.scenarios.spec.Scenario`.
    """
    if spec is None:
        return None
    if hasattr(spec, "generate"):
        return spec
    if isinstance(spec, (str, Path)):
        return TraceArrivals(str(spec))
    if not isinstance(spec, Mapping):
        try:
            spec = dict(spec)
        except (TypeError, ValueError):
            raise ArrivalError(
                f"cannot interpret arrival spec of type {type(spec).__name__}"
            ) from None
    params = dict(spec)
    name = params.pop("process", None)
    if name is None:
        raise ArrivalError(
            "arrival spec mappings need a 'process' key naming one of: "
            + ", ".join(sorted(ARRIVAL_PROCESSES))
        )
    try:
        cls = ARRIVAL_PROCESSES[name]
    except KeyError:
        raise ArrivalError(
            f"unknown arrival process {name!r}; registered: "
            + ", ".join(sorted(ARRIVAL_PROCESSES))
        ) from None
    try:
        return cls(**params)
    except TypeError as error:
        raise ArrivalError(f"invalid {name} arrival parameters: {error}") from None
