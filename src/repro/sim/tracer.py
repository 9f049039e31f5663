"""Activity tracing and per-cluster accounting.

The paper's per-cluster plots (Fig. 5B/C/D) break the execution time of each
cluster into computation, communication, synchronisation and sleep, and mark
each cluster as analog-bound or digital-bound.  The :class:`Tracer` collects
exactly that information during the event simulation, plus the aggregate
traffic counters (NoC byte-hops, HBM bytes) the energy model consumes.

A stored simulation result pickles its tracer whole, one
:class:`ClusterActivity` per used cluster.  Both activity records pickle
as a constructor call on their fields in declaration order (``__reduce__``),
so unpickling one costs one ``__init__`` instead of a class lookup plus a
field dict.  That order is therefore part of the stored payload's format,
and changing it needs a ``SIMULATION_PAYLOAD_VERSION`` bump.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import DefaultDict, Dict, Iterable, List, Optional, Tuple

#: categories of cluster activity tracked by the tracer.
CATEGORIES = ("analog", "digital", "communication", "synchronization")


@dataclass
class ClusterActivity:
    """Accumulated activity of one cluster, in cycles."""

    cluster_id: int
    analog: int = 0
    digital: int = 0
    communication: int = 0
    #: no kernel writes this yet: it reads 0.
    synchronization: int = 0
    #: time of the last recorded activity completion on this cluster.
    last_busy_cycle: int = 0
    #: number of pipeline jobs whose compute ran on this cluster.
    jobs: int = 0

    @property
    def busy(self) -> int:
        """Total busy cycles (all categories)."""
        return self.analog + self.digital + self.communication + self.synchronization

    @property
    def compute(self) -> int:
        """Compute cycles only (analog + digital)."""
        return self.analog + self.digital

    @property
    def is_analog_bound(self) -> bool:
        """Whether the cluster spends more compute time on the IMA than the cores."""
        return self.analog >= self.digital

    def sleep(self, makespan: int) -> int:
        """Idle cycles over a run of ``makespan`` total cycles."""
        return max(0, makespan - self.busy)

    def __reduce__(self):
        return ClusterActivity, _cluster_values(self)


_cluster_values = attrgetter(*(f.name for f in fields(ClusterActivity)))


@dataclass
class StageActivity:
    """Accumulated activity of one pipeline stage."""

    stage_id: int
    name: str = ""
    jobs_completed: int = 0
    analog_busy: int = 0
    digital_busy: int = 0
    #: no kernel writes the two stall fields yet: they read 0.
    input_stall: int = 0
    output_stall: int = 0
    first_job_start: Optional[int] = None
    last_job_end: int = 0

    @property
    def busy(self) -> int:
        """Total compute-busy cycles of the stage."""
        return self.analog_busy + self.digital_busy

    @property
    def active_span(self) -> int:
        """Cycles between the stage's first job start and last job end."""
        if self.first_job_start is None:
            return 0
        return max(0, self.last_job_end - self.first_job_start)

    def __reduce__(self):
        return StageActivity, _stage_values(self)


_stage_values = attrgetter(*(f.name for f in fields(StageActivity)))


class Tracer:
    """Collects per-cluster, per-stage and traffic statistics during a run."""

    def __init__(self):
        self.clusters: Dict[int, ClusterActivity] = {}
        self.stages: Dict[int, StageActivity] = {}
        # traffic counters
        self.noc_bytes = 0
        self.noc_byte_hops = 0
        self.hbm_bytes = 0
        self.local_bytes = 0
        self.n_transfers = 0
        # per-link busy cycles, for hot-spot analysis
        self.link_busy: DefaultDict[str, int] = defaultdict(int)
        self.makespan = 0
        #: full per-stage job-completion traces: stage_id -> completion
        #: cycle of every job, in completion order.  This is the raw data
        #: behind the Fig. 5D latency staircase and the steady-state
        #: detector (see ``docs/simulator.md`` for the schema).
        self.stage_completions: Dict[int, List[int]] = {}
        #: per-request completion cycles of open-system (arrival-driven)
        #: workloads: job index -> cycle at which the *final* pipeline
        #: stage finished that job.  Insertion order is completion order.
        #: Together with ``Workload.arrival_cycles`` this defines the
        #: request sojourn time; empty on closed-batch runs.
        self.request_completions: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Cluster activity
    # ------------------------------------------------------------------ #
    def cluster(self, cluster_id: int) -> ClusterActivity:
        """Return (creating if needed) the activity record of a cluster."""
        if cluster_id not in self.clusters:
            self.clusters[cluster_id] = ClusterActivity(cluster_id)
        return self.clusters[cluster_id]

    def record_cluster(
        self, cluster_id: int, category: str, cycles: int, end_cycle: int
    ) -> None:
        """Add ``cycles`` of activity of ``category`` to one cluster."""
        if cycles < 0:
            raise ValueError("cycles cannot be negative")
        activity = self.clusters.get(cluster_id)
        if activity is None:
            if category not in CATEGORIES:
                # validate before creating state: a rejected call must not
                # leave a phantom all-zero cluster behind
                raise ValueError(f"unknown activity category {category!r}")
            activity = self.cluster(cluster_id)
        cycles = int(cycles)
        # dispatch without setattr/getattr: this runs for every compute and
        # communication event of the simulation.
        if category == "analog":
            activity.analog += cycles
        elif category == "digital":
            activity.digital += cycles
        elif category == "communication":
            activity.communication += cycles
        elif category == "synchronization":
            activity.synchronization += cycles
        else:
            raise ValueError(f"unknown activity category {category!r}")
        end_cycle = int(end_cycle)
        if end_cycle > activity.last_busy_cycle:
            activity.last_busy_cycle = end_cycle
        if end_cycle > self.makespan:
            self.makespan = end_cycle

    def record_communication(
        self, cluster_id: int, cycles: int, end_cycle: int
    ) -> None:
        """Fast lane of :meth:`record_cluster` for the ``communication``
        category, which fires once per DMA burst and dominates the tracer's
        call count on transfer-heavy workloads.  Semantics are identical to
        ``record_cluster(cluster_id, "communication", cycles, end_cycle)``.
        """
        activity = self.clusters.get(cluster_id)
        if activity is None:
            activity = self.cluster(cluster_id)
        activity.communication += cycles
        if end_cycle > activity.last_busy_cycle:
            activity.last_busy_cycle = end_cycle
        if end_cycle > self.makespan:
            self.makespan = end_cycle

    def record_analog_job(
        self, cluster_id: int, cycles: int, end_cycle: int
    ) -> None:
        """``record_cluster(..., "analog", ...)`` plus one job on the cluster.

        An analog stage charges every cluster of the serving replica once
        per job, the densest tracer call site of replicated mappings, so
        one call does both with one dictionary lookup.
        """
        activity = self.clusters.get(cluster_id)
        if activity is None:
            activity = self.cluster(cluster_id)
        activity.analog += cycles
        activity.jobs += 1
        if end_cycle > activity.last_busy_cycle:
            activity.last_busy_cycle = end_cycle
        if end_cycle > self.makespan:
            self.makespan = end_cycle

    # ------------------------------------------------------------------ #
    # Stage activity
    # ------------------------------------------------------------------ #
    def stage(self, stage_id: int, name: str = "") -> StageActivity:
        """Return (creating if needed) the activity record of a stage."""
        if stage_id not in self.stages:
            self.stages[stage_id] = StageActivity(stage_id, name)
        record = self.stages[stage_id]
        if name and not record.name:
            record.name = name
        return record

    def record_stage_job(
        self,
        stage_id: int,
        start_cycle: int,
        end_cycle: int,
        analog_cycles: int,
        digital_cycles: int,
    ) -> None:
        """Record one completed job of a pipeline stage."""
        record = self.stage(stage_id)
        record.jobs_completed += 1
        record.analog_busy += int(analog_cycles)
        record.digital_busy += int(digital_cycles)
        if record.first_job_start is None or start_cycle < record.first_job_start:
            record.first_job_start = int(start_cycle)
        record.last_job_end = max(record.last_job_end, int(end_cycle))
        self.makespan = max(self.makespan, int(end_cycle))

    def record_stage_completion(self, stage_id: int, cycle: int) -> None:
        """Append one job-completion cycle to a stage's completion trace.

        Completion means the job's outputs have been handed to their
        consumers (the stage's output-buffer slot is free again), so the
        final stage's last entry coincides with the end of the run.
        """
        trace = self.stage_completions.get(stage_id)
        if trace is None:
            trace = self.stage_completions[stage_id] = []
        trace.append(int(cycle))

    def record_request_completion(self, job_index: int, cycle: int) -> None:
        """Record the final-stage completion of one request (open workloads).

        Completion uses the same definition as
        :meth:`record_stage_completion` — the job's outputs have been
        handed to their consumers — so the request sojourn covers the full
        arrival → delivery path.
        """
        self.request_completions[int(job_index)] = int(cycle)

    # ------------------------------------------------------------------ #
    # Traffic
    # ------------------------------------------------------------------ #
    def record_transfer(
        self,
        n_bytes: int,
        n_hops: int,
        to_hbm: bool = False,
        links: Iterable[str] = (),
        busy_cycles: int = 0,
        local: bool = False,
    ) -> None:
        """Record one DMA transfer and its footprint on the interconnect."""
        self.n_transfers += 1
        if local:
            self.local_bytes += int(n_bytes)
            return
        self.noc_bytes += int(n_bytes)
        self.noc_byte_hops += int(n_bytes) * int(n_hops)
        if to_hbm:
            self.hbm_bytes += int(n_bytes)
        for link in links:
            self.link_busy[link] += int(busy_cycles)

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    def busiest_links(self, top: int = 10) -> List[Tuple[str, int]]:
        """The ``top`` most-occupied links (name, busy cycles)."""
        ranked = sorted(self.link_busy.items(), key=lambda item: item[1], reverse=True)
        return ranked[:top]
