"""Compiled state-machine lane of the system simulator (``engine="table"``).

:class:`TableProgram` compiles a :class:`~repro.sim.workload.Workload`
once, before the first event, into integer transition state consumed by
the opcode rows of :class:`~repro.sim.engine.Engine`:

* each stage becomes a :class:`_CompiledStage` — flat per-job vectors
  (``job_start``, ``out_pending``), dense credit/occupancy counters
  (analog busy count, digital busy flag, per-input credits, output
  slots) and integer waiter queues — replacing the object kernel's
  per-stage ``Server``/``CreditStore``/``Barrier`` web and all its
  per-job closures;
* each data flow becomes a :class:`_Flow` with precompiled chunk
  :class:`_Group` records (size, count, DMA duration, serialization,
  channel service, delivery attribution — every per-transfer quantity
  the object kernel recomputes or memo-looks-up per event, from the same
  :func:`~repro.sim.noc.burst_timing`), the external inputs fetched from
  the HBM included;
* NoC links, per-cluster DMA channels and HBM channels become dense
  vectors (busy-until, busy cycles, free-at heaps) updated by indexed
  arithmetic inside the opcode handlers.  A capacity-1 FIFO link with
  durations fixed at submission is deterministic — it drains a new burst
  at ``max(now, busy_until) + serialization`` — and so is an HBM channel
  (:func:`~repro.sim.noc.book_hbm_channel`, shared with the object
  kernel), so a contended transfer is one busy-until pass over its route,
  an HBM channel booking when it goes to or from the HBM, and one landing
  row, queued when it enters the NoC in both kernels;
* the chunks of one group that find a free DMA channel at issue enter the
  NoC at the same cycle, in rows adjacent in the scheduling order, so
  they travel as one ``OP_NOC_BURST`` row that carries their count and
  does the work of all of them in one handler call, and land through one
  ``OP_BURST_LANDED`` row; a chunk that waits for a busy DMA channel is a
  burst of one.

The hot handlers append their rows to the engine's columns and push the
keys (``cycle << ROW_BITS | row``) themselves, as
:meth:`~repro.sim.engine.Engine.sched_op` does without the call; the rare
paths go through ``sched_op``.

The **legality rule** for compiling a lifecycle step: a step may be
table-compiled only when its *successor and timing are fully determined at
schedule time* from integer state (server finishes, credit grants and
their FIFO cascades, chunk fan-outs, HBM channel bookings — all
deterministic given event order).  Every transfer qualifies, an external
feed's fetch → grant → deliver recursion included: its delivery fetches
the next job, so every credit waiter is a packed ``flow_id * n_jobs +
job``.  The only callables the lane queues are the wake-ups that hold a
job until its arrival cycle on an open workload and the deferred NoC
entry of a chunk that waits for a busy DMA channel.

Equivalence contract: every event this program schedules lands at the
same cycle, in the same place of the scheduling order, as the object
kernel's equivalent event — the compiled handlers replicate the object
kernel's synchronous callback chains (server ``on_done``-then-dequeue
order, credit FIFO grants, output-barrier arrivals, the
``written``-then-relay order of storage flows) statement for statement.
Three deliberate differences are in granularity only: the equal-size
chunks of one burst share a single source-side communication record of
``duration * count`` cycles where the object kernel records each chunk
(the cluster totals are the same); one ``OP_NOC_BURST`` row stands for
``k`` adjacent NoC-entry events of the object kernel (so the table lane
dispatches fewer events; nothing runs between events adjacent in the
scheduling order, so nothing can observe the difference); and one
``OP_BURST_LANDED`` row stands for the ``k`` landings of a burst, at the
last landing's cycle and place in the order (the earlier landings only
add to the destination's sums and running maxima, and cannot complete the
flow).  Live :class:`~repro.sim.tracer.StageActivity` and stage
completions stay on the tracer.  Per-cluster and per-link activity is
counted per *record source* — a :class:`_Source` for each analog replica,
for each stage's digital clusters and for the source and delivery side of
each chunk group, and a route's booked cycles on its :class:`_Plan` — so
a record touches one object, not every cluster and link it charges; and
each chunk group counts the chunks it sent for the tracer's traffic
counters.
``TableProgram._flush`` expands the counts made since the last flush into
dense per-cluster and per-link arrays and the traffic counters, and notes
which clusters have a record; :meth:`TableProgram.finalize` materialises
the arrays into the tracer, whose order ``SystemSimulator.run`` then sets
(``SystemSimulator.snapshot_activity`` flushes, then reads the dense form
and the counters mid-run).  Bit-identity against the object kernel is
asserted by ``tests/test_sim_kernel_equivalence.py``.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappush, heapreplace
from typing import Dict, List, Optional, Set, Tuple

from ..arch.interconnect import Route
from .engine import K_OP_BASE, ROW_BITS, Engine
from .noc import book_hbm_channel, burst_timing
from .tracer import ClusterActivity
from .workload import ENDPOINT_STAGE, ENDPOINT_STORAGE, chunk_groups

#: opcode kinds (jump-table index = kind - K_OP_BASE, in this order).
OP_ANALOG_DONE = K_OP_BASE + 0  # arg: stage_slot * n_jobs + job
OP_DIGITAL_DONE = K_OP_BASE + 1  # arg: stage_slot * n_jobs + job
OP_FLOW_NULL = K_OP_BASE + 2  # arg: flow_id * n_jobs + job (zero-byte send)
OP_NOC_BURST = K_OP_BASE + 3  # arg: k * burst_stride + group_id * n_jobs + job
OP_BURST_LANDED = K_OP_BASE + 4  # arg: k * burst_stride + group_id * n_jobs + job

#: flow kinds.
F_DIRECT = 0  # producer stage -> consumer stage (credit-gated)
F_WRITE = 1  # producer stage -> HBM / storage cluster
F_READ = 2  # HBM / storage cluster -> consumer stage (relay prefetch)
F_INTRA = 3  # analog replica -> first digital cluster (partial sums)
F_FEED = 4  # HBM -> consumer stage: an input no stage writes (one chunk)


class _Plan:
    """Dense route constants for one (src, dst) endpoint pair."""

    __slots__ = (
        "route",
        "lids",
        "hop",
        "involves_hbm",
        "busy",
        "flushed",
    )

    def __init__(self, route: Route, lids: Tuple[int, ...], involves_hbm: bool):
        self.route = route
        self.lids = lids
        self.hop = route.hop_latency_cycles
        self.involves_hbm = involves_hbm
        #: cycles the compiled groups booked on every link of the route,
        #: and how many of them ``TableProgram._flush`` has added to the
        #: per-link totals.
        self.busy = 0
        self.flushed = 0


class _Source:
    """A fixed set of clusters that every one of its records charges alike.

    Each record adds ``cycles`` to every cluster of ``clusters`` and ends
    at a cycle no earlier than the record before, so the hot path only
    counts records (``count``) and keeps the latest end (``last``);
    ``TableProgram._flush`` adds the ``count - flushed`` records made since
    the last flush to the dense per-cluster lists.
    """

    __slots__ = ("clusters", "cycles", "count", "flushed", "last")

    def __init__(self, clusters: Tuple[int, ...], cycles: int):
        self.clusters = clusters
        self.cycles = cycles
        self.count = 0
        self.flushed = 0
        self.last = 0


def _fold(
    sources: List[_Source],
    totals: List[int],
    last_busy: List[int],
    latest: int,
    used: Set[int],
    jobs: Optional[List[int]] = None,
) -> int:
    """Add each source's unflushed records to ``totals`` (and one job per
    record to ``jobs``), raise ``last_busy`` and add the clusters of a
    source's first records to ``used``; return the latest end seen."""
    for source in sources:
        n = source.count - source.flushed
        if n:
            if not source.flushed:
                used.update(source.clusters)
            source.flushed = source.count
            cycles = n * source.cycles
            end = source.last
            for cluster in source.clusters:
                totals[cluster] += cycles
                if end > last_busy[cluster]:
                    last_busy[cluster] = end
            if jobs is not None:
                for cluster in source.clusters:
                    jobs[cluster] += n
            if end > latest:
                latest = end
    return latest


class _Group:
    """One equal-size chunk group of a flow: all per-burst constants."""

    __slots__ = (
        "gid",
        "flow",
        "size",
        "count",
        "dma_dur",
        "comm_cycles",
        "dst",
        "plan",
        "byte_hops",
        "ser",
        "chan_cycles",
        "uncont_lat",
        "dma",
        "delivery",
        "sent",
    )

    def __init__(self, gid, flow, size, count, dma_dur, comm_cycles, dst, plan, hbm):
        self.gid = gid
        self.flow = flow
        self.size = size
        self.count = count
        self.dma_dur = dma_dur
        self.comm_cycles = comm_cycles
        self.dst = dst
        self.plan = plan  # None for local (same-cluster) handoffs
        # burst constants precomputed off the hot path
        if plan is None:
            self.byte_hops = self.ser = self.chan_cycles = self.uncont_lat = 0
        else:
            self.byte_hops = size * plan.route.n_hops
            self.ser, self.chan_cycles, self.uncont_lat = burst_timing(
                plan.route, size, hbm
            )
        #: record sources of the source-side DMA (``None`` from the HBM)
        #: and of the delivery attribution (``None`` into the HBM).
        self.dma: Optional[_Source] = None
        self.delivery: Optional[_Source] = None
        #: chunks that entered the NoC (or were handed off locally) since
        #: the last ``TableProgram._flush``, which adds their traffic to
        #: the tracer's counters.
        self.sent = 0


class _Flow:
    """One compiled data flow (an edge of the stage data-flow graph)."""

    __slots__ = (
        "fid",
        "kind",
        "src",
        "producer",
        "consumer",
        "flow_index",
        "relay",
        "groups",
        "total_chunks",
        "zero",
        "pending",
        "dma_slots",
    )

    def __init__(self, fid, kind, src, producer, consumer, flow_index):
        self.fid = fid
        self.kind = kind
        self.src = src
        self.producer = producer
        self.consumer = consumer
        self.flow_index = flow_index
        self.relay: Optional["_Flow"] = None  # F_WRITE -> its F_READ
        self.groups: Tuple[_Group, ...] = ()
        self.total_chunks = 0
        self.zero = False
        #: per-job count of chunks still in flight.
        self.pending: List[int] = []
        #: the free-at heap of the source cluster's DMA channels (``None``
        #: from the HBM), shared by every flow from that cluster.
        self.dma_slots: Optional[List[int]] = None


class _CompiledStage:
    """Flat per-stage state: counters, waiter queues, per-job vectors."""

    __slots__ = (
        "slot",
        "sid",
        "desc",
        "activity",
        "io_cluster",
        "is_analog",
        "analog_d",
        "analog_record",
        "repl",
        "analog_sources",
        "digital_d",
        "digital_source",
        "an_busy",
        "an_wait",
        "dg_busy",
        "dg_wait",
        "n_inputs",
        "in_credits",
        "in_wait",
        "delivered",
        "out_credits",
        "out_wait",
        "out_flows",
        "intra_flows",
        "next_job",
        "jobs_completed",
        "job_start",
        "out_pending",
        "arrival_gate",
    )


class TableProgram:
    """Compiles one workload run into table-dispatched integer state."""

    def __init__(self, sim) -> None:
        engine = sim.engine
        self.sim = sim
        self._job_finished = sim.job_finished
        self.engine: Engine = engine
        # the engine's queue: the hot handlers append their rows to its
        # columns and push their keys themselves, as ``sched_op`` does
        self._heap = engine._heap
        self._kinds = engine._kind
        self._args = engine._arg
        self.tracer = sim.tracer
        self.arch = sim.arch
        self.workload = sim.workload
        self.model_contention = sim.model_contention
        self.topology = sim.arch.topology()
        self._nj = sim.workload.n_jobs
        self._cluster = sim.arch.cluster
        self._dma_channels = self._cluster.dma_channels
        # program tables
        self.stages: List[_CompiledStage] = []
        self.flows: List[_Flow] = []
        self.groups: List[_Group] = []
        self._by_sid: Dict[int, _CompiledStage] = {}
        # dense cluster activity (materialised into the tracer at finalize);
        # the compiled records count per source and reach these lists at
        # each _flush
        n_clusters = sim.arch.n_clusters
        self._cl_analog = [0] * n_clusters
        self._cl_digital = [0] * n_clusters
        self._cl_comm = [0] * n_clusters
        self._cl_jobs = [0] * n_clusters
        self._cl_last = [0] * n_clusters
        #: the clusters that have a record: those of every source whose
        #: records a flush has folded.
        self._cl_used: Set[int] = set()
        self._mk = 0
        self._analog_sources: List[_Source] = []
        self._digital_sources: List[_Source] = []
        #: source-side DMA and delivery sources, which both charge
        #: communication cycles.
        self._comm_sources: List[_Source] = []
        # dense link state, ids assigned in plan-creation route order
        self._link_ids: Dict[str, int] = {}
        self._link_names: List[str] = []
        self._link_until: List[int] = []
        self._link_busy: List[int] = []
        self._plans: Dict[Optional[int], Dict[Optional[int], _Plan]] = {}
        self._plan_list: List[_Plan] = []
        # per-channel free-at cycles of the HBM, kept as a heap
        self._hbm_free_at = [0] * sim.arch.hbm.n_channels
        # per-cluster DMA channel free-at cycles, kept as heaps
        self._dma_slots: Dict[int, List[int]] = {}
        #: payload stride of the burst count in an OP_NOC_BURST row (one
        #: past the largest ``group_id * n_jobs + job``; set by build).
        self._burst_stride = 0

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def build(self) -> None:
        """Compile stages, flows and feeds; registers engine handlers.

        Stage registration and the external feeds' first fetches happen
        in the order of ``SystemSimulator._build`` (the feeds in
        :meth:`~repro.sim.workload.Workload.external_inputs` order), so
        that the first events (feed fetches) are scheduled identically.
        """
        workload = self.workload
        sim = self.sim
        nj = self._nj
        for slot, desc in enumerate(workload.stages):
            st = _CompiledStage()
            st.slot = slot
            st.sid = desc.stage_id
            st.desc = desc
            st.io_cluster = desc.io_cluster
            st.is_analog = desc.is_analog
            st.analog_d = desc.cost.analog_cycles_per_job
            st.analog_record = st.analog_d if st.is_analog else 0
            st.repl = desc.replication
            st.analog_sources = tuple(
                self._source(replica, st.analog_d, self._analog_sources)
                for replica in desc.analog_replicas
            )
            st.digital_d = desc.cost.digital_cycles_per_job
            st.digital_source = self._source(
                desc.digital_clusters, st.digital_d, self._digital_sources
            )
            st.an_busy = 0
            st.an_wait = deque()
            st.dg_busy = False
            st.dg_wait = deque()
            st.n_inputs = len(desc.inputs)
            in_credits, st.out_credits = desc.credits(sim.buffer_depth)
            st.in_credits = list(in_credits)
            st.in_wait = [deque() for __ in desc.inputs]
            st.delivered = [0] * st.n_inputs
            st.out_wait = deque()
            st.next_job = 0
            st.jobs_completed = 0
            st.job_start = [0] * nj
            st.out_pending = [0] * nj
            st.out_flows = ()
            st.intra_flows = None
            # arrival gate for source stages (mirrors _StageRuntime)
            st.arrival_gate = (
                workload.arrival_cycles
                if workload.arrival_cycles and not desc.inputs
                else None
            )
            self.stages.append(st)
            self._by_sid[desc.stage_id] = st
            st.activity = self.tracer.stage(desc.stage_id, desc.name)
        relays = workload.relay_inputs()
        # output flows (consumers must all exist first)
        for st in self.stages:
            out: List[_Flow] = []
            for flow in st.desc.outputs:
                if flow.kind == ENDPOINT_STAGE:
                    consumer = self._by_sid[flow.stage_id]
                    flow_index = consumer.desc.input_flow_index(st.sid)
                    out.append(
                        self._make_flow(
                            F_DIRECT,
                            st.io_cluster,
                            consumer.io_cluster,
                            flow.bytes_per_job,
                            flow.transfers_per_job,
                            producer=st,
                            consumer=consumer,
                            flow_index=flow_index,
                        )
                    )
                    continue
                storage = flow.storage_cluster if flow.kind == ENDPOINT_STORAGE else None
                write = self._make_flow(
                    F_WRITE,
                    st.io_cluster,
                    storage,
                    flow.bytes_per_job,
                    flow.transfers_per_job,
                    producer=st,
                )
                target = relays.get((flow.kind, flow.label))
                if target is not None:
                    consumer_id, flow_index = target
                    consumer = self._by_sid[consumer_id]
                    write.relay = self._make_flow(
                        F_READ,
                        storage,
                        consumer.io_cluster,
                        flow.bytes_per_job,
                        flow.transfers_per_job,
                        consumer=consumer,
                        flow_index=flow_index,
                    )
                out.append(write)
            st.out_flows = tuple(out)
            intra = st.desc.cost.intra_stage_bytes_per_job
            if st.is_analog and intra > 0 and st.desc.digital_clusters:
                dst = st.desc.digital_clusters[0]
                st.intra_flows = tuple(
                    self._make_flow(
                        F_INTRA,
                        replica[0] if replica else st.io_cluster,
                        dst,
                        intra,
                        1,
                        producer=st,
                    )
                    for replica in st.desc.analog_replicas
                )
        # external inputs (the network IFM fetched from the HBM) move one
        # chunk per job whatever their transfers_per_job, as in the object
        # kernel
        feeds: List[_Flow] = []
        for stage_id, flow_index in workload.external_inputs():
            st = self._by_sid[stage_id]
            feeds.append(
                self._make_flow(
                    F_FEED,
                    None,
                    st.io_cluster,
                    st.desc.inputs[flow_index].bytes_per_job,
                    1,
                    consumer=st,
                    flow_index=flow_index,
                )
            )
            sim._feeds.append((st, flow_index))
        self.engine.set_handlers(
            (
                self._op_analog_done,
                self._op_digital_done,
                self._op_flow_null,
                self._op_noc_burst,
                self._op_burst_landed,
            )
        )
        self._burst_stride = len(self.groups) * nj
        # the feeds' first fetches are the run's first events, scheduled
        # as SystemSimulator._build schedules them
        for flow in feeds:
            self._fetch(flow, 0)

    def _make_flow(
        self,
        kind: int,
        src: Optional[int],
        dst: Optional[int],
        n_bytes: int,
        n_chunks: int,
        producer: Optional[_CompiledStage] = None,
        consumer: Optional[_CompiledStage] = None,
        flow_index: int = 0,
    ) -> _Flow:
        flow = _Flow(len(self.flows), kind, src, producer, consumer, flow_index)
        self.flows.append(flow)
        if n_bytes <= 0 and kind != F_FEED:
            # send_bytes(n <= 0) moves nothing, where an external feed of no
            # bytes is still one local transfer (NocModel.transfer_bytes)
            flow.zero = True
            return flow
        flow.pending = [0] * self._nj
        if src is not None:
            slots = self._dma_slots.get(src)
            if slots is None:
                slots = self._dma_slots[src] = [0] * self._dma_channels
            flow.dma_slots = slots
        grouped = chunk_groups(n_bytes, n_chunks)
        flow.total_chunks = sum(count for __, count in grouped)
        plan = None if src == dst or n_bytes <= 0 else self._plan(src, dst)
        hbm = self.arch.hbm if plan is not None and plan.involves_hbm else None
        groups: List[_Group] = []
        for size, count in grouped:
            dma_dur = 0
            if src is not None:
                dma_dur = self._cluster.dma_cycles(size)
            comm = 0
            if dst is not None:
                comm = self._cluster.delivery_cycles(size)
            group = _Group(len(self.groups), flow, size, count, dma_dur, comm, dst, plan, hbm)
            if src is not None:
                group.dma = self._source((src,), dma_dur, self._comm_sources)
            if dst is not None:
                group.delivery = self._source((dst,), comm, self._comm_sources)
            self.groups.append(group)
            groups.append(group)
        flow.groups = tuple(groups)
        return flow

    @staticmethod
    def _source(
        clusters: Tuple[int, ...], cycles: int, kind: List[_Source]
    ) -> Optional[_Source]:
        """A record source charging ``cycles`` to ``clusters`` per record,
        appended to ``kind`` (a list ``_flush`` folds); ``None`` when
        there are no clusters to charge."""
        if not clusters:
            return None
        source = _Source(clusters, cycles)
        kind.append(source)
        return source

    def _plan(self, src: Optional[int], dst: Optional[int]) -> _Plan:
        by_dst = self._plans.get(src)
        if by_dst is None:
            by_dst = self._plans[src] = {}
        plan = by_dst.get(dst)
        if plan is not None:
            return plan
        route = self.topology.route_between(src, dst)
        link_ids = self._link_ids
        ids: List[int] = []
        for name in route.links:
            lid = link_ids.get(name)
            if lid is None:
                lid = len(link_ids)
                link_ids[name] = lid
                self._link_names.append(name)
                self._link_until.append(0)
                self._link_busy.append(0)
            ids.append(lid)
        plan = _Plan(route, tuple(ids), src is None or dst is None)
        by_dst[dst] = plan
        self._plan_list.append(plan)
        return plan

    # ------------------------------------------------------------------ #
    # Run control
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Kick off input-less stages (mirrors ``SystemSimulator.run``)."""
        for st in self.stages:
            if not st.desc.inputs:
                self._try_start(st)

    def jobs_completed_by_stage(self) -> Dict[int, int]:
        return {st.sid: st.jobs_completed for st in self.stages}

    def _flush(self) -> None:
        """Expand the records counted since the last flush into the dense
        per-cluster and per-link lists (and the makespan).

        Exact at any point of the run: every record of a source adds the
        same cycles to the same clusters, so ``n`` records are one addition
        of ``n`` times as much; a source's ends never decrease, so its
        latest end is the running maximum of its records; a cluster has a
        record once one of its sources has; and a route's booked cycles go
        to each of its links.
        """
        last_busy = self._cl_last
        used = self._cl_used
        latest = _fold(
            self._analog_sources, self._cl_analog, last_busy, self._mk, used,
            self._cl_jobs,
        )
        latest = _fold(self._digital_sources, self._cl_digital, last_busy, latest, used)
        self._mk = _fold(self._comm_sources, self._cl_comm, last_busy, latest, used)
        link_busy = self._link_busy
        for plan in self._plan_list:
            cycles = plan.busy - plan.flushed
            if cycles:
                plan.flushed = plan.busy
                for lid in plan.lids:
                    link_busy[lid] += cycles
        tracer = self.tracer
        for group in self.groups:
            n = group.sent
            if n:
                group.sent = 0
                tracer.n_transfers += n
                size = n * group.size
                plan = group.plan
                if plan is None:
                    tracer.local_bytes += size
                    continue
                tracer.noc_bytes += size
                tracer.noc_byte_hops += n * group.byte_hops
                if plan.involves_hbm:
                    tracer.hbm_bytes += size

    def finalize(self) -> None:
        """Materialise the dense activity lanes into the tracer.

        A cluster gets a record when one of its sources has a record, and
        a link when a route booked cycles on it, as in the object kernel;
        ``SystemSimulator.run`` then puts the records in the tracer's
        order.  The makespan is the latest record end or stage-job end.
        """
        self._flush()
        mk = self._mk
        for st in self.stages:
            if st.activity.last_job_end > mk:
                mk = st.activity.last_job_end
        tracer = self.tracer
        clusters = tracer.clusters
        for cid in self._cl_used:
            clusters[cid] = ClusterActivity(
                cid,
                analog=self._cl_analog[cid],
                digital=self._cl_digital[cid],
                communication=self._cl_comm[cid],
                synchronization=0,
                last_busy_cycle=self._cl_last[cid],
                jobs=self._cl_jobs[cid],
            )
        link_busy = tracer.link_busy
        for name, busy in zip(self._link_names, self._link_busy):
            if busy:
                link_busy[name] = busy
        if mk > tracer.makespan:
            tracer.makespan = mk

    def snapshot_activity(self):
        """Mid-run activity snapshot (the steady-state fast-forward's hook).

        Flushes first, so the dense lists hold every record made so far.
        Clusters are listed in ascending id, and links that have booked
        cycles.
        """
        self._flush()
        tracer = self.tracer
        counters = (
            self.engine._now,
            tracer.hbm_bytes,
            tracer.noc_bytes,
            tracer.noc_byte_hops,
            tracer.local_bytes,
            tracer.n_transfers,
        )
        analog = self._cl_analog
        digital = self._cl_digital
        comm = self._cl_comm
        jobs = self._cl_jobs
        last = self._cl_last
        clusters = {
            cid: (analog[cid], digital[cid], comm[cid], 0, jobs[cid], last[cid])
            for cid in sorted(self._cl_used)
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
        links = {
            name: busy for name, busy in zip(self._link_names, self._link_busy) if busy
        }
        return counters, clusters, stages, links

    # ------------------------------------------------------------------ #
    # Stage lifecycle (compiled _StageRuntime)
    # ------------------------------------------------------------------ #
    def _try_start(self, st: _CompiledStage) -> None:
        sim = self.sim
        arrivals = st.arrival_gate
        # the limit is read on every pass, as in _StageRuntime._try_start
        while st.next_job < sim.job_limit:
            job = st.next_job
            for count in st.delivered:
                if count <= job:
                    return
            if arrivals is not None:
                arrival = arrivals[job]
                if arrival > self.engine._now:
                    # single pending wakeup, same as _StageRuntime._try_start
                    self.engine.at(arrival, lambda: self._try_start(st))
                    return
            st.next_job = job + 1
            # output_slots.acquire(start_job)
            if st.out_credits > 0 and not st.out_wait:
                st.out_credits -= 1
                self._start_job(st, job)
            else:
                st.out_wait.append(job)

    def _start_job(self, st: _CompiledStage, job: int) -> None:
        now = self.engine._now
        st.job_start[job] = now
        if st.is_analog:
            # analog Server.submit (capacity = replication)
            if st.an_busy < st.repl and not st.an_wait:
                st.an_busy += 1
                kinds = self._kinds
                heappush(self._heap, (now + st.analog_d) << ROW_BITS | len(kinds))
                kinds.append(OP_ANALOG_DONE)
                self._args.append(st.slot * self._nj + job)
            else:
                st.an_wait.append(job)
        else:
            self._run_digital(st, job)

    def _op_analog_done(self, arg: int) -> None:
        nj = self._nj
        slot = arg // nj
        st = self.stages[slot]
        job = arg - slot * nj
        st.an_busy -= 1
        engine = self.engine
        now = engine._now
        dur = st.analog_d
        source = st.analog_sources[job % st.repl]
        if source is not None:
            source.count += 1
            source.last = now
        intra = st.intra_flows
        if intra is not None:
            self._issue_flow(intra[job % st.repl], job)
        else:
            self._run_digital(st, job)
        # Server._finish: completion first, then start one queued job
        if st.an_wait and st.an_busy < st.repl:
            st.an_busy += 1
            kinds = self._kinds
            heappush(self._heap, (now + dur) << ROW_BITS | len(kinds))
            kinds.append(OP_ANALOG_DONE)
            self._args.append(arg - job + st.an_wait.popleft())

    def _run_digital(self, st: _CompiledStage, job: int) -> None:
        dur = st.digital_d
        if dur <= 0:
            self._after_compute(st, job, 0)
            return
        # digital Server.submit (capacity 1): a job queued behind others
        # waits even when the server is free
        if not st.dg_busy and not st.dg_wait:
            st.dg_busy = True
            kinds = self._kinds
            heappush(self._heap, (self.engine._now + dur) << ROW_BITS | len(kinds))
            kinds.append(OP_DIGITAL_DONE)
            self._args.append(st.slot * self._nj + job)
        else:
            st.dg_wait.append(job)

    def _op_digital_done(self, arg: int) -> None:
        nj = self._nj
        slot = arg // nj
        st = self.stages[slot]
        job = arg - slot * nj
        st.dg_busy = False
        engine = self.engine
        now = engine._now
        dur = st.digital_d
        source = st.digital_source
        if source is not None:
            source.count += 1
            source.last = now
        self._after_compute(st, job, dur)
        if st.dg_wait and not st.dg_busy:
            st.dg_busy = True
            kinds = self._kinds
            heappush(self._heap, (now + dur) << ROW_BITS | len(kinds))
            kinds.append(OP_DIGITAL_DONE)
            self._args.append(arg - job + st.dg_wait.popleft())

    def _after_compute(self, st: _CompiledStage, job: int, digital_cycles: int) -> None:
        now = self.engine._now
        # record_stage_job on the live StageActivity
        act = st.activity
        act.jobs_completed += 1
        act.analog_busy += st.analog_record
        act.digital_busy += digital_cycles
        start = st.job_start[job]
        if act.first_job_start is None or start < act.first_job_start:
            act.first_job_start = start
        if now > act.last_job_end:
            act.last_job_end = now
        # input credits released: producers may push the next chunk.  The
        # waiter queues hold packed flow_id * n_jobs + job ints —
        # CreditStore.release's FIFO drain.
        nj = self._nj
        in_credits = st.in_credits
        flows = self.flows
        for index in range(st.n_inputs):
            in_credits[index] += 1
            wait = st.in_wait[index]
            while in_credits[index] > 0 and wait:
                waiter = wait.popleft()
                in_credits[index] -= 1
                fid = waiter // nj
                self._issue_flow(flows[fid], waiter - fid * nj)
        out = st.out_flows
        if not out:
            self._job_done(st, job)
            return
        # Barrier(len(outputs), job_done) + route_output per flow
        st.out_pending[job] = len(out)
        for flow in out:
            if flow.kind == F_DIRECT:
                self._acquire_and_issue(flow, job)
            else:
                self._issue_flow(flow, job)

    def _acquire_and_issue(self, flow: _Flow, job: int) -> None:
        """CreditStore.acquire on the consumer's input buffer, then send."""
        consumer = flow.consumer
        index = flow.flow_index
        credits = consumer.in_credits
        if credits[index] > 0 and not consumer.in_wait[index]:
            credits[index] -= 1
            self._issue_flow(flow, job)
        else:
            consumer.in_wait[index].append(flow.fid * self._nj + job)

    def _job_done(self, st: _CompiledStage, job: int) -> None:
        st.jobs_completed += 1
        # output_slots.release(): FIFO-start queued jobs
        st.out_credits += 1
        wait = st.out_wait
        while st.out_credits > 0 and wait:
            st.out_credits -= 1
            self._start_job(st, wait.popleft())
        self._job_finished(st.sid, job)

    def _output_arrived(self, st: _CompiledStage, job: int) -> None:
        """One output flow of ``job`` delivered (a Barrier.arrive)."""
        remaining = st.out_pending[job] - 1
        st.out_pending[job] = remaining
        if remaining == 0:
            self._job_done(st, job)

    def _complete_flow(self, flow: _Flow, job: int) -> None:
        """All chunks of (flow, job) have landed: run the delivery chain."""
        kind = flow.kind
        if kind == F_DIRECT:
            # consumer.deliver(...) then the producer's barrier arrive
            consumer = flow.consumer
            consumer.delivered[flow.flow_index] += 1
            self._try_start(consumer)
            self._output_arrived(flow.producer, job)
        elif kind == F_INTRA:
            self._run_digital(flow.producer, job)
        elif kind == F_WRITE:
            # written(): the producer's obligation ends at the storage,
            # then the relay read prefetches towards the consumer
            self._output_arrived(flow.producer, job)
            read = flow.relay
            if read is not None:
                self._acquire_and_issue(read, job)
        else:  # F_READ (the producer was released at write) or F_FEED
            consumer = flow.consumer
            consumer.delivered[flow.flow_index] += 1
            self._try_start(consumer)
            if kind == F_FEED:
                self._fetch(flow, job + 1)

    def _fetch(self, flow: _Flow, job: int) -> None:
        """Fetch ``job``'s external input (``_start_external_feed``'s fetch).

        Nothing past the admission limit is fetched.  On an open workload
        the credit is acquired when the request arrives, not before.
        """
        if job >= self.sim.job_limit:
            return
        arrivals = self.workload.arrival_cycles
        if arrivals and arrivals[job] > self.engine._now:
            self.engine.at(arrivals[job], partial(self._acquire_and_issue, flow, job))
        else:
            self._acquire_and_issue(flow, job)

    # ------------------------------------------------------------------ #
    # Data movement (compiled send_chunked / send_bytes)
    # ------------------------------------------------------------------ #
    def _issue_flow(self, flow: _Flow, job: int) -> None:
        engine = self.engine
        nj = self._nj
        if flow.zero:
            # send_bytes(n <= 0): one zero-delay event, no records
            engine.sched_op(engine._now, OP_FLOW_NULL, flow.fid * nj + job)
            return
        flow.pending[job] = flow.total_chunks
        src = flow.src
        if src is None:
            # HBM-sourced: no DMA, chunks enter the NoC synchronously
            for group in flow.groups:
                self._enter_noc(group, group.gid * nj + job, group.count)
            return
        slots = flow.dma_slots
        now = engine._now
        stride = self._burst_stride
        for group in flow.groups:
            dur = group.dma_dur
            count = group.count
            # one source-side record of the group's chunks
            source = group.dma
            source.count += count
            source.last = now + dur
            arg = group.gid * nj + job
            # the slot vector is kept as a heap: only the minimum free-at
            # value is observable (channels are interchangeable), so the
            # earliest-free scan of the object kernel collapses to a peek
            # plus a sift — identical burst timing.  The chunks that find
            # a free channel are a prefix of the group (a sift never lowers
            # the minimum below ``now`` again), and their NoC-entry rows
            # would be adjacent at cycle ``now + dur``: one burst row
            # carries them all.  A chunk that waits for a channel enters
            # through a row of its own, deferred from the channel's free
            # cycle.
            free = 0
            while free < count and slots[0] <= now:
                heapreplace(slots, now + dur)
                free += 1
            if free:
                kinds = self._kinds
                heappush(self._heap, (now + dur) << ROW_BITS | len(kinds))
                kinds.append(OP_NOC_BURST)
                self._args.append(free * stride + arg)
            for __ in range(count - free):
                free_at = slots[0]
                heapreplace(slots, free_at + dur)
                engine.defer_op(free_at, dur, OP_NOC_BURST, stride + arg)

    def _op_flow_null(self, arg: int) -> None:
        fid = arg // self._nj
        self._complete_flow(self.flows[fid], arg - fid * self._nj)

    def _op_noc_burst(self, arg: int) -> None:
        """``k`` same-group bursts enter the NoC together (``k`` in ``arg``)."""
        stride = self._burst_stride
        k = arg // stride
        arg -= k * stride
        self._enter_noc(self.groups[arg // self._nj], arg, k)

    def _enter_noc(self, group: _Group, arg: int, k: int) -> None:
        """``k`` bursts of ``group`` enter the NoC, in order (transfer_bytes).

        The same as ``k`` one-burst entries run back to back, which is what
        ``k`` rows adjacent in the scheduling order do: each only adds to
        the counters, books the route (and an HBM channel) and queues its
        landing.  So the counters grow once by ``k`` times as much, every
        link is booked once for ``k`` serialisations, and under contention
        burst ``i`` drains at ``start + i * ser``, where ``start`` is
        ``max(now, busy_until)`` over the route's links (a route between
        two endpoints always has one), and lands one hop later, or one hop
        after its HBM channel finishes if that is later.  Only the last
        landing can complete the flow, and the others only add to the
        destination's sums and running maxima, so one OP_BURST_LANDED row
        at the last landing's cycle and place in the order does what the
        ``k`` landings do.  Uncontended and local bursts land all ``k``
        chunks at one cycle.
        """
        now = self.engine._now
        plan = group.plan
        group.sent += k
        if plan is None:
            # local (same-cluster) handoff: no NoC involvement
            landed = now
        else:
            occupied = k * group.ser
            plan.busy += occupied
            if not self.model_contention:
                landed = now + group.uncont_lat
            else:
                busy_until = self._link_until
                start = now
                for lid in plan.lids:
                    queued = busy_until[lid]
                    if queued > now:
                        busy_until[lid] = queued + occupied
                        if queued > start:
                            start = queued
                    else:
                        busy_until[lid] = now + occupied
                # drains and channel finishes both grow with the burst's
                # index, so the last burst lands last
                landed = start + occupied
                if plan.involves_hbm:
                    free_at = self._hbm_free_at
                    service = group.chan_cycles
                    for __ in range(k):
                        finish = book_hbm_channel(free_at, now, service)
                    if finish > landed:
                        landed = finish
                landed += plan.hop
        kinds = self._kinds
        heappush(self._heap, landed << ROW_BITS | len(kinds))
        kinds.append(OP_BURST_LANDED)
        self._args.append(k * self._burst_stride + arg)

    def _op_burst_landed(self, arg: int) -> None:
        """The last landing of a burst of ``k`` (``k`` in ``arg``): what
        the burst's ``k`` landings do together."""
        stride = self._burst_stride
        k = arg // stride
        arg -= k * stride
        nj = self._nj
        gid = arg // nj
        group = self.groups[gid]
        # delivery-side DMA attribution (none into the HBM)
        source = group.delivery
        if source is not None:
            source.count += k
            source.last = self.engine._now
        flow = group.flow
        job = arg - gid * nj
        remaining = flow.pending[job] - k
        flow.pending[job] = remaining
        if remaining == 0:
            self._complete_flow(flow, job)
