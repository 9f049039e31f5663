"""System-level simulator: executes a :class:`~repro.sim.workload.Workload`.

The simulator implements the self-timed, credit-based data-flow execution
model of Sec. IV.5 on top of the event kernel:

* every pipeline stage owns an *analog* server (capacity = number of
  replicas) and a *digital* server (capacity 1: each job's digital work
  runs on all of the stage's digital clusters, one job at a time);
* producers push tiles to consumers through the contention-aware NoC model,
  but only after acquiring a credit from the consumer's double-buffered
  input slot, which is how back-pressure propagates;
* residual tensors routed through the HBM or through a spare cluster's L1
  (Sec. V.4) generate two transfers — a write at production time and a
  read just before consumption — so their traffic lands on the HBM
  controller or on the NoC exactly as in the paper;
* every activity is attributed to clusters through the
  :class:`~repro.sim.tracer.Tracer`, producing the per-cluster breakdowns
  of Fig. 5.
"""

from __future__ import annotations

import dataclasses
import heapq
import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .steady_state import FastForwardRefusal

from ..arch.config import ArchConfig
from .engine import Barrier, CreditStore, Engine, Server, SimulationError
from .noc import NocModel
from .system_table import TableProgram
from .tracer import Tracer
from .workload import (
    DataFlow,
    ENDPOINT_HBM,
    ENDPOINT_STAGE,
    ENDPOINT_STORAGE,
    StageDescriptor,
    Workload,
    chunk_groups,
)


#: schema version of :meth:`SimulationResult.to_payload`.  Bump on any
#: change to the payload structure or to the simulator semantics the
#: payload freezes; loaders reject mismatched payloads and re-simulate.
#: The tracer's :class:`~repro.sim.tracer.ClusterActivity` and
#: :class:`~repro.sim.tracer.StageActivity` records pickle positionally,
#: so their field order is part of the payload: reordering, adding or
#: removing a field needs a bump (the order is pinned in
#: ``tests/test_scenarios_store.py``).  An entry whose records were pickled
#: the default dataclass way, as a field dict, still loads, and a
#: positional entry loads in any code whose records have these fields in
#: this order, so adopting the positional form moved no version.
#: Version 2: per-stage completion traces ride the tracer and the payload
#: carries the ``fast_forwarded`` flag.  The ``engine`` selection is
#: deliberately *not* part of the payload and never bumps this version:
#: the kernels are bit-identical (asserted in
#: ``tests/test_sim_kernel_equivalence.py``), so a payload carries no
#: trace of which kernel produced it.
#: Version 3: open-system workloads — the tracer (which ships inside the
#: payload) gained the per-request completion map behind the request
#: latency percentiles, and job launch is gated on
#: ``Workload.arrival_cycles``.  Closed-batch results are bit-identical
#: to version 2, but a v2 payload cannot prove it was not produced by a
#: pre-gating simulator on an open workload, so every stale payload is
#: re-simulated once.
#: Version 4: the steady-state fast-forward gained the replica-symmetry
#: certification path and typed refusals.  The payload carries the
#: ``fast_forward_refusal`` (why a requested fast-forward fell back to
#: the full run), and the tracer records per-stage replica-group shapes;
#: v3 payloads of fast-forward scenarios cannot distinguish "ran full
#: because refused" from "ran full because never attempted", so they are
#: re-simulated once.
#: Version 5: the object kernel books a queued burst's link drain and DMA
#: start at issue, as the table lane always has, so ``engine="python"``
#: results change on same-cycle ties under contention (table-lane results
#: are unchanged); v4 payloads cannot say which kernel made them, so every
#: one is re-simulated once.
#: Version 6: both kernels queue a contended transfer's landing when it
#: enters the NoC, and an HBM burst books the earliest-free channel then,
#: instead of joining its link drain and channel completion in a barrier;
#: every event keeps its cycle, but a landing now runs before a same-cycle
#: event queued while its transfer was in flight, and with more than one
#: HBM channel the pick rule changed, so every v5 payload is re-simulated
#: once.
#: Version 7: the replica-symmetry certification path is gone, so a
#: contention-off run whose effective window exceeds the certification cap
#: now refuses ``window-too-large`` before probing.  A stored v6
#: fast-forward result may carry provenance this code no longer produces
#: (engagement by that path, or a refusal reason that no longer exists),
#: and the pickled tracer lost its per-stage replica-group field, so every
#: v6 payload is re-simulated once.
#: Version 8: the fast-forward certifies inside the one run instead of on
#: a separate probe, so a refused run's ``probes`` record changed and some
#: runs that refused now engage; every v7 payload is re-simulated once.
#: Version 9: with contention off, a burst to or from the HBM lands one hop
#: after the later of its serialisation and its channel service, as it does
#: on idle links and an idle channel with contention on; it used to land
#: one hop after its channel service alone, which is earlier when the
#: channel is faster than the links.  Table I's 100-cycle access latency
#: makes the channel the slower, so no shipped configuration's result
#: moves, but a v8 payload cannot say which rule produced it.
#: Version 10: a finished run's tracer lists its clusters in ascending id
#: and its links in ascending name (:meth:`~repro.sim.tracer.Tracer.order_records`)
#: instead of in the order the run first touched them.  Every value is the
#: same, but the pickled tracer keeps its dicts' order, so a v9 payload
#: would load in the old order.
SIMULATION_PAYLOAD_VERSION = 10

#: valid values of the ``engine`` argument of :func:`simulate` /
#: :class:`SystemSimulator`: the object kernel, kept as the readable
#: reference, and the compiled state-machine lane
#: (:mod:`repro.sim.system_table`), bit-identical to it.
SIMULATION_ENGINES = ("python", "table")

#: the engine every ``engine`` argument and field defaults to.
DEFAULT_ENGINE = "table"


def check_engine(engine: str) -> None:
    """Raise :class:`ValueError` unless ``engine`` is one of
    :data:`SIMULATION_ENGINES`."""
    if engine not in SIMULATION_ENGINES:
        raise ValueError(
            f"unknown simulation engine {engine!r}; "
            f"expected one of {SIMULATION_ENGINES}"
        )


def check_run_options(model_contention: bool, buffer_depth: int) -> None:
    """Raise :class:`ValueError`, naming the argument and its value, unless
    ``model_contention`` is a bool and ``buffer_depth`` a non-bool integer
    (numpy integers included) of at least 1."""
    if not isinstance(model_contention, bool):
        raise ValueError(f"model_contention must be a bool, got {model_contention!r}")
    if (
        isinstance(buffer_depth, bool)
        or not isinstance(buffer_depth, numbers.Integral)
        or buffer_depth < 1
    ):
        raise ValueError(
            f"buffer_depth must be an integer of at least 1, got {buffer_depth!r}"
        )


@dataclass(frozen=True)
class SimulationRecord:
    """Lightweight, picklable summary of one simulated run.

    The full :class:`SimulationResult` drags the workload IR and the tracer
    along — megabytes of per-cluster state that sweep orchestration neither
    needs nor wants to ship between processes.  This record is the flat
    result layer the scenario subsystem serialises: plain scalars only, so
    it crosses process boundaries and lands in JSON reports unchanged.
    """

    workload_name: str
    arch_name: str
    batch_size: int
    n_jobs: int
    makespan_cycles: int
    makespan_ms: float
    steady_state_cycles_per_job: float
    completed: bool
    n_used_clusters: int
    hbm_bytes: int
    noc_bytes: int
    noc_byte_hops: int
    local_bytes: int
    n_transfers: int
    model_contention: bool
    #: whether the run was produced by the steady-state fast-forward
    #: (:mod:`repro.sim.steady_state`); every other field is bit-identical
    #: to the full event-driven run it replaces.
    fast_forwarded: bool = False
    #: when a requested fast-forward was refused, the refusal *reason*
    #: slug (one of :data:`repro.sim.steady_state.REFUSAL_REASONS`);
    #: ``None`` when the fast-forward engaged or was never requested.
    fast_forward_refusal: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary (JSON-safe) rendering of the declared fields."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SimulationRecord":
        """Inverse of :meth:`as_dict`."""
        return cls(**payload)


@dataclass
class SimulationResult:
    """Everything the analysis layer needs from one simulated run."""

    workload: Workload
    arch: ArchConfig
    makespan_cycles: int
    tracer: Tracer
    #: jobs completed per stage (should equal n_jobs everywhere).
    jobs_completed: Dict[int, int] = field(default_factory=dict)
    model_contention: bool = True
    #: completion cycles of the last two jobs of the final pipeline stage
    #: (one on a one-job run).
    final_stage_completions: Tuple[int, ...] = ()
    #: whether the steady-state fast-forward produced this result (the
    #: record fields are bit-identical to the full run either way).
    fast_forwarded: bool = False
    #: the typed refusal (:class:`repro.sim.steady_state.FastForwardRefusal`)
    #: explaining why a *requested* fast-forward fell back to the full
    #: event-driven run; ``None`` when it engaged or was never requested.
    #: Provenance, like :attr:`fast_forwarded`: the simulated quantities
    #: are bit-identical either way.
    fast_forward_refusal: Optional["FastForwardRefusal"] = None

    @property
    def makespan_seconds(self) -> float:
        """End-to-end latency of the batch, in seconds."""
        return self.makespan_cycles * self.arch.cycle_time_ns * 1e-9

    @property
    def makespan_ms(self) -> float:
        """End-to-end latency of the batch, in milliseconds."""
        return self.makespan_seconds * 1e3

    @property
    def completed(self) -> bool:
        """Whether every stage processed every job."""
        return all(
            count == self.workload.n_jobs for count in self.jobs_completed.values()
        )

    def steady_state_cycles_per_job(self) -> float:
        """Observed cycles per job once the pipeline is full.

        The head and tail of the pipeline (filling and draining, visible as
        the latency staircase of Fig. 5D) are excluded by construction:
        dividing the makespan by the job count over-estimates the
        steady-state interval, so we use the difference between the last two
        job completion times of the final stage when available, and only
        fall back to ``makespan / n_jobs`` when they are not (single-job
        workloads, truncated runs, or results built without them).
        """
        times = self.final_stage_completions
        if len(times) >= 2 and times[-1] > times[-2]:
            return float(times[-1] - times[-2])
        return self.makespan_cycles / max(1, self.workload.n_jobs)

    # ------------------------------------------------------------------ #
    # Per-stage completion traces (the Fig. 5D latency staircase)
    # ------------------------------------------------------------------ #
    @property
    def stage_completions(self) -> Dict[int, Tuple[int, ...]]:
        """Completion cycle of every job of every stage, in completion order.

        Keyed by stage id; each value has one entry per pipeline job.  The
        traces ride the tracer, so they survive the artifact store round
        trip.
        """
        return {
            stage_id: tuple(trace)
            for stage_id, trace in self.tracer.stage_completions.items()
        }

    def completion_trace(self, stage_id: int) -> Tuple[int, ...]:
        """The completion trace of one stage (empty when not recorded)."""
        return tuple(self.tracer.stage_completions.get(stage_id, ()))

    # ------------------------------------------------------------------ #
    # Per-request sojourn (open-system workloads)
    # ------------------------------------------------------------------ #
    @property
    def request_completions(self) -> Dict[int, int]:
        """Final-stage completion cycle per request, in completion order.

        Keyed by job index; populated only on open (arrival-driven)
        workloads.  Rides the tracer, so it survives the artifact-store
        round trip like the stage completion traces.
        """
        return dict(self.tracer.request_completions)

    def request_latencies(self) -> Tuple[int, ...]:
        """Sojourn time (arrival → final-stage completion) per request.

        Indexed by job: entry ``j`` is
        ``request_completions[j] - arrival_cycles[j]``, in cycles.  Empty
        on closed-batch runs, which record no request completions.
        """
        arrivals = self.workload.arrival_cycles
        completions = self.request_completions
        if not arrivals or not completions:
            return ()
        return tuple(
            completions[job] - arrivals[job] for job in sorted(completions)
        )

    # ------------------------------------------------------------------ #
    # Compact serialisation (the on-disk artifact store)
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, object]:
        """Version-stamped serialisation without the workload and arch.

        The content key addressing a simulation result hashes the
        architecture and the workload IR, so a loader necessarily holds
        both and :meth:`from_payload` re-attaches them.  The tracer — the
        per-cluster/per-stage activity the breakdown analyses mine — ships
        whole: it is plain counters, and dropping it would make a
        disk-served result a second-class citizen.
        """
        return {
            "version": SIMULATION_PAYLOAD_VERSION,
            "makespan_cycles": self.makespan_cycles,
            "tracer": self.tracer,
            "jobs_completed": dict(self.jobs_completed),
            "model_contention": self.model_contention,
            "final_stage_completions": tuple(self.final_stage_completions),
            "fast_forwarded": self.fast_forwarded,
            "fast_forward_refusal": (
                self.fast_forward_refusal.to_payload()
                if self.fast_forward_refusal is not None
                else None
            ),
        }

    @classmethod
    def from_payload(
        cls, payload: Dict[str, object], arch: ArchConfig, workload: Workload
    ) -> "SimulationResult":
        """Inverse of :meth:`to_payload`, given the architecture and workload.

        Raises :class:`ValueError` on a payload produced under a different
        :data:`SIMULATION_PAYLOAD_VERSION`; callers serving cached payloads
        treat that as a miss and re-simulate.
        """
        version = payload.get("version")
        if version != SIMULATION_PAYLOAD_VERSION:
            raise ValueError(
                f"simulation payload version {version!r} does not match "
                f"{SIMULATION_PAYLOAD_VERSION} (stale artifact)"
            )
        refusal_payload = payload.get("fast_forward_refusal")
        if refusal_payload is not None:
            from .steady_state import FastForwardRefusal

            refusal = FastForwardRefusal.from_payload(refusal_payload)
        else:
            refusal = None
        return cls(
            workload=workload,
            arch=arch,
            makespan_cycles=payload["makespan_cycles"],
            tracer=payload["tracer"],
            jobs_completed=dict(payload["jobs_completed"]),
            model_contention=payload["model_contention"],
            final_stage_completions=tuple(payload["final_stage_completions"]),
            fast_forwarded=bool(payload["fast_forwarded"]),
            fast_forward_refusal=refusal,
        )

    def record(self) -> SimulationRecord:
        """The lightweight, serialisable summary of this result."""
        return SimulationRecord(
            workload_name=self.workload.name,
            arch_name=self.arch.name,
            batch_size=self.workload.batch_size,
            n_jobs=self.workload.n_jobs,
            makespan_cycles=self.makespan_cycles,
            makespan_ms=self.makespan_ms,
            steady_state_cycles_per_job=self.steady_state_cycles_per_job(),
            completed=self.completed,
            n_used_clusters=self.workload.n_used_clusters,
            hbm_bytes=self.tracer.hbm_bytes,
            noc_bytes=self.tracer.noc_bytes,
            noc_byte_hops=self.tracer.noc_byte_hops,
            local_bytes=self.tracer.local_bytes,
            n_transfers=self.tracer.n_transfers,
            model_contention=self.model_contention,
            fast_forwarded=self.fast_forwarded,
            fast_forward_refusal=(
                self.fast_forward_refusal.reason
                if self.fast_forward_refusal is not None
                else None
            ),
        )


class _StageRuntime:
    """Mutable per-stage state during a simulation run."""

    def __init__(self, sim: "SystemSimulator", descriptor: StageDescriptor):
        self.sim = sim
        self.desc = descriptor
        engine = sim.engine
        self.analog_server = Server(
            engine,
            f"stage[{descriptor.stage_id}].analog",
            capacity=descriptor.replication,
        )
        self.digital_server = Server(engine, f"stage[{descriptor.stage_id}].digital")
        input_credits, output_slots = descriptor.credits(sim.buffer_depth)
        #: per-input-flow credit stores (double-buffered tiles).
        self.input_credits: List[CreditStore] = [
            CreditStore(engine, f"stage[{descriptor.stage_id}].in[{i}]", credits)
            for i, credits in enumerate(input_credits)
        ]
        #: bounded output slots: a job may only start when one is free.  This
        #: is condition (b) of the paper's self-timed rule ("the consumers
        #: are ready to accept the output data of chunk N-1").
        self.output_slots = CreditStore(
            engine, f"stage[{descriptor.stage_id}].out_slots", output_slots
        )
        #: per-input-flow count of delivered jobs.
        self.delivered: List[int] = [0] * len(descriptor.inputs)
        #: the descriptor's representative DMA cluster, resolved once —
        #: ``StageDescriptor.io_cluster`` recomputes the sorted cluster set
        #: on every access, and the routing hot path reads it per flow of
        #: every job.
        self.io_cluster = descriptor.io_cluster
        self.next_job = 0
        self.jobs_completed = 0
        #: arrival gate for *source* stages (no input flows at all): those
        #: stages inject jobs spontaneously, so on an open workload they
        #: must hold job ``j`` until ``arrival_cycles[j]``.  Stages with
        #: inputs are gated transitively — their jobs only exist once the
        #: (gated) external feed or an upstream stage delivers tiles.
        self._gated_arrivals: Optional[Tuple[int, ...]] = (
            sim.workload.arrival_cycles
            if sim.workload.arrival_cycles and not descriptor.inputs
            else None
        )
        # register for per-stage statistics
        sim.tracer.stage(descriptor.stage_id, descriptor.name)

    # ------------------------------------------------------------------ #
    # Input side
    # ------------------------------------------------------------------ #
    def deliver(self, flow_index: int, job_index: int) -> None:
        """Record the arrival of one input tile and start jobs if possible.

        Tiles of the same flow are interchangeable in cost, so only the
        arrival *count* matters; minor reordering introduced by the NoC does
        not affect the timing model.
        """
        self.delivered[flow_index] += 1
        self._try_start()

    def _inputs_ready(self, job_index: int) -> bool:
        for count in self.delivered:
            if count <= job_index:
                return False
        return True

    def _try_start(self) -> None:
        arrivals = self._gated_arrivals
        # read the limit on every pass: a final stage without compute ends
        # a job inside this loop, and the fast-forward may lower it there
        while self.next_job < self.sim.job_limit and self._inputs_ready(self.next_job):
            if arrivals is not None:
                arrival = arrivals[self.next_job]
                if arrival > self.sim.engine._now:
                    # Sleep until the next request arrives.  Only the kick
                    # in :meth:`SystemSimulator.run` and this wakeup ever
                    # call ``_try_start`` on an input-less stage, so at
                    # most one wakeup is pending at a time.
                    self.sim.engine.at(arrival, self._try_start)
                    return
            job_index = self.next_job
            self.next_job += 1
            self.output_slots.acquire(lambda j=job_index: self._start_job(j))

    # ------------------------------------------------------------------ #
    # Compute
    # ------------------------------------------------------------------ #
    def _start_job(self, job_index: int) -> None:
        start = self.sim.engine.now
        if self.desc.is_analog:
            duration = self.desc.cost.analog_cycles_per_job
            replica = self.desc.analog_replicas[job_index % self.desc.replication]
            self.analog_server.submit(
                duration,
                lambda: self._after_analog(job_index, start, duration, replica),
            )
        else:
            self._run_digital(job_index, start, analog_cycles=0)

    def _after_analog(
        self, job_index: int, start: int, duration: int, replica: Tuple[int, ...]
    ) -> None:
        now = self.sim.engine.now
        record_analog_job = self.sim.tracer.record_analog_job
        for cluster in replica:
            record_analog_job(cluster, duration, now)
        intra = self.desc.cost.intra_stage_bytes_per_job
        if intra > 0 and self.desc.digital_clusters:
            src = replica[0] if replica else self.io_cluster
            dst = self.desc.digital_clusters[0]
            self.sim.send_bytes(
                src,
                dst,
                intra,
                lambda: self._run_digital(job_index, start, duration),
            )
        else:
            self._run_digital(job_index, start, duration)

    def _run_digital(self, job_index: int, start: int, analog_cycles: int) -> None:
        duration = self.desc.cost.digital_cycles_per_job
        if duration <= 0:
            self._after_compute(job_index, start, analog_cycles, 0)
            return

        def done() -> None:
            now = self.sim.engine.now
            for cluster in self.desc.digital_clusters:
                self.sim.tracer.record_cluster(cluster, "digital", duration, now)
            self._after_compute(job_index, start, analog_cycles, duration)

        self.digital_server.submit(duration, done)

    # ------------------------------------------------------------------ #
    # Output side
    # ------------------------------------------------------------------ #
    def _after_compute(
        self, job_index: int, start: int, analog_cycles: int, digital_cycles: int
    ) -> None:
        now = self.sim.engine.now
        self.sim.tracer.record_stage_job(
            self.desc.stage_id, start, now, analog_cycles, digital_cycles
        )
        # The compute has consumed its input tiles: their L1 slots are free,
        # so producers may push the next chunk (condition (a) of the
        # self-timed rule).
        for credit in self.input_credits:
            credit.release()
        outputs = self.desc.outputs
        if not outputs:
            self._job_done(job_index)
            return
        barrier = Barrier(len(outputs), lambda: self._job_done(job_index))
        for flow in outputs:
            self.sim.route_output(self, flow, job_index, barrier.arrive)

    def _job_done(self, job_index: int) -> None:
        self.jobs_completed += 1
        # The job's outputs have been handed to their consumers: its output
        # buffer slot is free again.
        self.output_slots.release()
        self.sim.job_finished(self.desc.stage_id, job_index)


class SystemSimulator:
    """Executes a workload on an architecture configuration."""

    def __init__(
        self,
        arch: ArchConfig,
        workload: Workload,
        model_contention: bool = True,
        buffer_depth: int = 2,
        engine: str = DEFAULT_ENGINE,
    ):
        check_engine(engine)
        check_run_options(model_contention, buffer_depth)
        workload.validate(arch.n_clusters)
        self.arch = arch
        self.workload = workload
        self.buffer_depth = buffer_depth
        self.engine_kind = engine
        self.tracer = Tracer()
        self.engine = Engine()
        if engine == "table":
            # compiled state-machine lane: the whole workload lifecycle —
            # stages, flows, NoC links, HBM channels — is compiled by
            # TableProgram below, so no object NoC model exists.
            self.noc: Optional[NocModel] = None
        else:
            self.noc = NocModel(
                self.engine, arch, tracer=self.tracer, model_contention=model_contention
            )
        self.model_contention = model_contention
        #: jobs the stages may admit and the external feeds fetch; the
        #: fast-forward lowers it mid-run, and the run drains as that many.
        self.job_limit = workload.n_jobs
        #: (stage, input flow index) of every external feed, on either kernel.
        self._feeds: List[Tuple[object, int]] = []
        #: per-cluster DMA channel free-at cycles, kept as heaps.
        self._dma_slots: Dict[int, List[int]] = {}
        self._stages: Dict[int, _StageRuntime] = {}
        #: on open workloads, completions of this stage are the request
        #: completions the sojourn metrics are computed from; ``None``
        #: disables per-request recording on closed batches, keeping their
        #: tracers (and therefore payloads) bit-identical to pre-arrivals
        #: runs.
        self._request_stage_id: Optional[int] = (
            workload.final_stage().stage_id if workload.arrival_cycles else None
        )
        # memoized per-size DMA/communication cycle counts (hot path)
        self._dma_cycle_memo: Dict[int, int] = {}
        self._comm_cycle_memo: Dict[int, int] = {}
        # Map (kind, label) of relayed flows (HBM / storage residuals) to the
        # consumer stage and flow index expecting them.
        self._relay_targets: Dict[Tuple[str, str], Tuple[int, int]] = {}
        #: whether :meth:`run` has been called: a simulator runs once.
        self._ran = False
        if engine == "table":
            self._table: Optional[TableProgram] = TableProgram(self)
        else:
            self._table = None

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        for descriptor in self.workload.stages:
            self._stages[descriptor.stage_id] = _StageRuntime(self, descriptor)
        self._relay_targets = self.workload.relay_inputs()
        # Kick off externally-fed inputs (network IFM fetched from HBM).
        for stage_id, flow_index in self.workload.external_inputs():
            runtime = self._stages[stage_id]
            self._start_external_feed(
                runtime, flow_index, runtime.desc.inputs[flow_index]
            )

    def _start_external_feed(
        self, runtime: _StageRuntime, flow_index: int, flow: DataFlow
    ) -> None:
        """Feed a stage input directly from the HBM (the network input).

        On an open workload the fetch of job ``j`` is additionally held
        until ``arrival_cycles[j]``: the request's input data does not
        exist before the request arrives, so neither prefetch nor credit
        acquisition may happen earlier.  Closed workloads (empty arrival
        schedule) take the unconditional path, event for event.
        """
        arrivals = self.workload.arrival_cycles
        self._feeds.append((runtime, flow_index))

        def fetch(job_index: int) -> None:
            if job_index >= self.job_limit:
                return

            def granted() -> None:
                dst = runtime.io_cluster

                def delivered() -> None:
                    self._attribute_communication(dst, flow.bytes_per_job)
                    runtime.deliver(flow_index, job_index)
                    fetch(job_index + 1)

                self.noc.transfer_bytes(None, dst, flow.bytes_per_job, delivered)

            def acquire() -> None:
                runtime.input_credits[flow_index].acquire(granted)

            if arrivals and arrivals[job_index] > self.engine._now:
                self.engine.at(arrivals[job_index], acquire)
            else:
                acquire()

        fetch(0)

    # ------------------------------------------------------------------ #
    # Data movement helpers
    # ------------------------------------------------------------------ #
    def _dma_cycles(self, n_bytes: int) -> int:
        cycles = self._dma_cycle_memo.get(n_bytes)
        if cycles is None:
            cycles = self.arch.cluster.dma_cycles(n_bytes)
            self._dma_cycle_memo[n_bytes] = cycles
        return cycles

    def _attribute_communication(self, cluster: Optional[int], n_bytes: int) -> None:
        if cluster is None:
            return
        cycles = self._comm_cycle_memo.get(n_bytes)
        if cycles is None:
            cycles = self.arch.cluster.delivery_cycles(n_bytes)
            self._comm_cycle_memo[n_bytes] = cycles
        self.tracer.record_communication(cluster, cycles, self.engine._now)

    def send_bytes(
        self, src: Optional[int], dst: Optional[int], n_bytes: int, on_done
    ) -> None:
        """Move ``n_bytes`` from ``src`` to ``dst`` (cluster ids or ``None`` = HBM)."""
        if n_bytes <= 0:
            self.engine.after(0, on_done)
            return

        def start_noc() -> None:
            def finished() -> None:
                self._attribute_communication(dst, n_bytes)
                on_done()

            self.noc.transfer_bytes(src, dst, n_bytes, finished)

        if src is None:
            start_noc()
            return
        engine = self.engine
        now = engine._now
        duration = self._dma_cycles(n_bytes)
        self.tracer.record_communication(src, duration, now + duration)
        # The cluster's DMA channels are interchangeable FIFO slots with
        # durations fixed at submission, so a burst starts on the
        # earliest-free one and its start is known, and booked, at issue.
        slots = self._dma_slots.get(src)
        if slots is None:
            slots = self._dma_slots[src] = [0] * self.arch.cluster.dma_channels
        free_at = slots[0]
        if free_at <= now:
            heapq.heapreplace(slots, now + duration)
            engine.after(duration, start_noc)
        else:
            heapq.heapreplace(slots, free_at + duration)
            engine.at(free_at, lambda: engine.after(duration, start_noc))

    def send_chunked(
        self,
        src: Optional[int],
        dst: Optional[int],
        n_bytes: int,
        n_chunks: int,
        on_done,
    ) -> None:
        """Move ``n_bytes`` as ``n_chunks`` independent transfers.

        Each chunk is a separate DMA burst paying its own access latency at
        the destination; chunks are issued concurrently and ``on_done``
        fires when the last one lands.
        """
        if n_bytes <= 0 or n_chunks <= 1:
            self.send_bytes(src, dst, n_bytes, on_done)
            return
        barrier = Barrier(n_chunks, on_done)
        for size, count in chunk_groups(n_bytes, n_chunks):
            for __ in range(count):
                self.send_bytes(src, dst, size, barrier.arrive)

    # ------------------------------------------------------------------ #
    # Output routing
    # ------------------------------------------------------------------ #
    def route_output(
        self, runtime: _StageRuntime, flow: DataFlow, job_index: int, on_done
    ) -> None:
        """Deliver one output flow of one job to its destination."""
        src = runtime.io_cluster
        if flow.kind == ENDPOINT_STAGE:
            consumer = self._stages[flow.stage_id]
            flow_index = consumer.desc.input_flow_index(runtime.desc.stage_id)
            self._send_with_credit(
                src,
                consumer,
                flow_index,
                flow.bytes_per_job,
                job_index,
                on_done,
                n_chunks=flow.transfers_per_job,
            )
        elif flow.kind in (ENDPOINT_HBM, ENDPOINT_STORAGE):
            storage_cluster = (
                flow.storage_cluster if flow.kind == ENDPOINT_STORAGE else None
            )

            def written() -> None:
                # The producer's obligation ends once the tile sits in the
                # residual storage (HBM or a spare cluster's L1): the storage
                # holds the whole tensor, so the producer never stalls on the
                # far-downstream consumer.
                on_done()
                target = self._relay_targets.get((flow.kind, flow.label))
                if target is None:
                    return
                consumer_id, flow_index = target
                consumer = self._stages[consumer_id]
                # The read towards the consumer is issued as soon as the
                # consumer has a free residual buffer slot (self-timed
                # prefetch); it does not gate the producer.
                self._send_with_credit(
                    storage_cluster,
                    consumer,
                    flow_index,
                    flow.bytes_per_job,
                    job_index,
                    lambda: None,
                    n_chunks=flow.transfers_per_job,
                )

            self.send_chunked(
                src, storage_cluster, flow.bytes_per_job, flow.transfers_per_job, written
            )
        else:  # pragma: no cover - DataFlow validates kinds
            raise SimulationError(f"unknown flow kind {flow.kind!r}")

    def _send_with_credit(
        self,
        src: Optional[int],
        consumer: _StageRuntime,
        flow_index: int,
        n_bytes: int,
        job_index: int,
        on_done,
        n_chunks: int = 1,
    ) -> None:
        def granted() -> None:
            dst = consumer.io_cluster

            def delivered() -> None:
                consumer.deliver(flow_index, job_index)
                on_done()

            self.send_chunked(src, dst, n_bytes, n_chunks, delivered)

        consumer.input_credits[flow_index].acquire(granted)

    # ------------------------------------------------------------------ #
    # Run
    # ------------------------------------------------------------------ #
    def job_finished(self, stage_id: int, job_index: int) -> None:
        """Called by stage runtimes when a job finishes: records the
        stage's completion (and, on open workloads, the request's)."""
        now = self.engine._now
        self.tracer.record_stage_completion(stage_id, now)
        if stage_id == self._request_stage_id:
            self.tracer.record_request_completion(job_index, now)

    def admitted_jobs(self) -> int:
        """One past the latest job a stage has admitted or an external feed
        fetched (a feed fetches job ``j + 1`` once it delivers job ``j``)."""
        stages = self._table.stages if self._table is not None else self._stages.values()
        return max(
            [stage.next_job for stage in stages]
            + [stage.delivered[index] + 1 for stage, index in self._feeds]
        )

    def snapshot_activity(self):
        """Mid-run snapshot of counters and per-cluster/stage/link activity.

        Returns ``(counters, clusters, stages, links)``: the aggregate
        traffic counters ``(now, hbm_bytes, noc_bytes, noc_byte_hops,
        local_bytes, n_transfers)``, per-cluster 6-tuples ``(analog,
        digital, communication, synchronization, jobs, last_busy_cycle)``,
        per-stage 7-tuples ``(jobs_completed, analog_busy, digital_busy,
        input_stall, output_stall, first_job_start, last_job_end)`` and a
        per-link busy-cycles dict.  The steady-state fast-forward reads this
        at final-stage completions; the hook exists because the table
        engine counts cluster/link activity per record source and traffic
        per chunk group, expands the counts into dense vectors and the
        tracer's traffic counters only when it flushes, and materialises
        the vectors into the tracer at the end of the run.  On the table
        engine this call flushes first, which only moves counts into the
        vectors and counters: it never changes the run's result.  Both
        engines list the clusters in ascending id.
        """
        if self._table is not None:
            return self._table.snapshot_activity()
        tracer = self.tracer
        counters = (
            self.engine._now,
            tracer.hbm_bytes,
            tracer.noc_bytes,
            tracer.noc_byte_hops,
            tracer.local_bytes,
            tracer.n_transfers,
        )
        clusters = {
            cid: (
                act.analog,
                act.digital,
                act.communication,
                act.synchronization,
                act.jobs,
                act.last_busy_cycle,
            )
            for cid, act in sorted(tracer.clusters.items())
        }
        stages = {
            sid: (
                rec.jobs_completed,
                rec.analog_busy,
                rec.digital_busy,
                rec.input_stall,
                rec.output_stall,
                rec.first_job_start,
                rec.last_job_end,
            )
            for sid, rec in tracer.stages.items()
        }
        return counters, clusters, stages, dict(tracer.link_busy)

    def run(self) -> SimulationResult:
        """Run the workload to completion and return the results.

        A simulator runs once: its tracer and queue belong to the result,
        so a second call raises :class:`SimulationError`.
        """
        if self._ran:
            raise SimulationError(
                "a SystemSimulator runs once; build a new one to run the "
                "workload again"
            )
        self._ran = True
        if self._table is not None:
            table = self._table
            table.build()
            table.start()
            self.engine.run()
            table.finalize()
            jobs_completed = table.jobs_completed_by_stage()
        else:
            self._build()
            # Stages with no inputs at all (rare: constant generators) start
            # immediately.
            for runtime in self._stages.values():
                if not runtime.desc.inputs:
                    runtime._try_start()
            self.engine.run()
            jobs_completed = {
                stage_id: runtime.jobs_completed
                for stage_id, runtime in self._stages.items()
            }
        self.tracer.order_records()
        incomplete = {
            sid: count
            for sid, count in jobs_completed.items()
            if count != self.job_limit
        }
        if incomplete:
            raise SimulationError(
                f"simulation finished with incomplete stages: {incomplete} "
                f"(expected {self.job_limit} jobs each); the workload "
                "data-flow graph is inconsistent"
            )
        makespan = self.tracer.makespan
        # drained run: drop the event rows so a long-lived holder of this
        # simulator (sweep workers, the steady-state fast-forward) does not
        # retain them (see ``Engine.reset``).
        self.engine.reset()
        final_stage = self.workload.final_stage()
        final_trace = self.tracer.stage_completions.get(final_stage.stage_id, ())
        return SimulationResult(
            workload=self.workload,
            arch=self.arch,
            makespan_cycles=makespan,
            tracer=self.tracer,
            jobs_completed=jobs_completed,
            model_contention=self.model_contention,
            final_stage_completions=tuple(final_trace[-2:]),
        )


def simulate(
    arch: ArchConfig,
    workload: Workload,
    model_contention: bool = True,
    buffer_depth: int = 2,
    fast_forward: bool = False,
    engine: str = DEFAULT_ENGINE,
) -> SimulationResult:
    """Convenience wrapper: build a simulator and run the workload.

    With ``fast_forward=True`` the steady-state fast-forward
    (:mod:`repro.sim.steady_state`) runs the workload once, watching it;
    when the pipeline's event pattern is verifiably periodic with a window
    of at most :data:`~repro.sim.steady_state.MAX_WINDOW` jobs, the run
    stops admitting jobs early and the rest are extrapolated analytically.
    The returned result is bit-identical to the full run (asserted over
    the model zoo in ``tests/test_sim_fast_forward.py``) and carries
    ``fast_forwarded=True``.  Otherwise the full run is returned with the
    typed refusal attached (``fast_forward_refusal``); a refusal decided
    from the workload alone costs nothing, one decided in the run costs
    only its snapshots, so ``fast_forward=True`` is always safe, merely
    not always faster.

    ``engine`` selects the event kernel: ``"table"`` (default,
    :data:`DEFAULT_ENGINE`) runs the compiled state-machine lane
    (:mod:`repro.sim.system_table`), which replaces the per-event
    callbacks with opcode dispatch over flat state vectors; ``"python"``
    runs the object kernel, the readable reference.
    Both produce bit-identical results (asserted in
    ``tests/test_sim_kernel_equivalence.py``); the switch exists as a
    safety net and as a sweepable scenario axis.  Any other value raises
    :class:`ValueError`.
    """
    check_engine(engine)
    refusal = None
    if fast_forward:
        from .steady_state import fast_forward_simulate

        outcome = fast_forward_simulate(
            arch,
            workload,
            model_contention=model_contention,
            buffer_depth=buffer_depth,
            engine=engine,
        )
        if isinstance(outcome, SimulationResult):
            return outcome
        refusal = outcome
    simulator = SystemSimulator(
        arch,
        workload,
        model_contention=model_contention,
        buffer_depth=buffer_depth,
        engine=engine,
    )
    result = simulator.run()
    result.fast_forward_refusal = refusal
    return result
