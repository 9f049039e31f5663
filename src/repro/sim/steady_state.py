"""Steady-state detection and exact fast-forward of periodic pipeline runs.

The pipelined dataflow of the paper's execution model is *periodic* after
warm-up: with constant per-job costs and self-timed flow control, the whole
event pattern — job completions, transfers, credit hand-offs — repeats with
some period of ``W`` jobs and ``D`` cycles.  Once the pattern repeats, the
remaining jobs are redundant simulation work: running ``W`` more jobs shifts
everything after the insertion point by exactly ``D`` cycles and adds
exactly one window's worth of activity and traffic.

:func:`fast_forward_simulate` exploits this *without approximating*, along
two certification paths:

1. **Global path.** Simulate a shortened copy of the workload (a few dozen
   jobs), snapshot every recorded quantity at each final-stage completion,
   and find the smallest window ``W ≤ MAX_WINDOW`` whose per-window
   increments are identical over :data:`MIN_WINDOWS` consecutive windows.
   All stages share one anchor; extrapolation shifts the probe's drain tail
   and adds ``t×`` the certified window increment to every counter.

2. **Replica-symmetry path** (``model_contention=False`` only).  The
   paper's headline FINAL mapping replicates stages 33/9/3-way, so its
   effective window ``lcm(replication, digital_slots)`` exceeds
   ``MAX_WINDOW`` and the global path refuses.  Replicas of a stage are
   timing-interchangeable under round-robin dispatch, so each stage's
   completion trace is periodic with *its own* window and anchor (an
   upstream stage may free-run several jobs ahead of a late bottleneck).
   The replica path certifies every stage at its own anchor, rebuilds the
   probe's event population from an exact per-stage/per-phase ledger of the
   engine's record stream (verified event-for-event against the probe),
   extends every completion trace by integer recurrence, and re-derives
   per-cluster busy horizons from the certified event families.  Any
   mismatch — ledger vs. probe, a non-periodic event family, a producer
   whose run-ahead would hit its credit ceiling beyond the probe — refuses
   the fast-forward instead of risking a wrong answer.

Both paths are exact: integer arithmetic throughout, and the result is
bit-identical to the full run (asserted over the model zoo and the FINAL
ResNet-18 mapping in ``tests/test_sim_fast_forward.py``).

When certification fails the function returns a typed
:class:`FastForwardRefusal` naming the reason (see
:data:`REFUSAL_REASONS`); :func:`repro.sim.system.simulate` then falls back
to the full event-driven simulation and attaches the refusal to the result,
so ``fast_forward=True`` is always safe, merely not always faster.  See
``docs/simulator.md`` for the correctness argument.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..arch.config import ArchConfig
from .system import DEFAULT_ENGINE, SimulationResult, SystemSimulator
from .system_table import STAGE_JOB
from .workload import (
    ENDPOINT_HBM,
    ENDPOINT_STAGE,
    ENDPOINT_STORAGE,
    StageDescriptor,
    Workload,
    chunk_groups,
)

logger = logging.getLogger(__name__)

#: below this job count a probe costs about as much as the full run.
MIN_JOBS = 48

#: aimed probe size, in jobs; the probe must contain the pipeline fill plus
#: at least ``(MIN_WINDOWS + 1)`` steady windows plus the drain.
PROBE_TARGET = 24

#: the probe size is chosen ``≡ n_jobs (mod PROBE_ALIGN)`` so that every
#: window length dividing this value yields an integer window count without
#: a second probe (global path only; the per-stage path needs no alignment).
PROBE_ALIGN = 12

#: largest candidate window (jobs) considered by the global detector.
MAX_WINDOW = 12

#: consecutive identical windows required to certify steadiness.
MIN_WINDOWS = 3

# --------------------------------------------------------------------- #
# Typed refusals
# --------------------------------------------------------------------- #

#: the workload's effective window exceeds what the active path can certify.
REFUSAL_WINDOW_TOO_LARGE = "window-too-large"
#: arrival-driven workload: a probe sees only the schedule's prefix.
REFUSAL_OPEN_WORKLOAD = "open-workload"
#: the probe ran but some quantity failed periodicity certification.
REFUSAL_NON_PERIODIC = "non-periodic-probe"
#: the run is too short for a probe to amortise (or to settle).
REFUSAL_PROBE_TOO_SHORT = "probe-too-short"
#: a free-running producer would hit its credit ceiling beyond the probe,
#: changing the event pattern after the certified region.
REFUSAL_FREE_RUN_HORIZON = "free-run-horizon"
#: one cluster serves two analog replicas of one stage, so a replica's
#: jobs no longer map one-to-one onto its clusters' activity.
REFUSAL_REPLICAS_SHARE_CLUSTERS = "replicas-share-clusters"

#: every reason a :class:`FastForwardRefusal` may carry.
REFUSAL_REASONS = (
    REFUSAL_WINDOW_TOO_LARGE,
    REFUSAL_OPEN_WORKLOAD,
    REFUSAL_NON_PERIODIC,
    REFUSAL_PROBE_TOO_SHORT,
    REFUSAL_FREE_RUN_HORIZON,
    REFUSAL_REPLICAS_SHARE_CLUSTERS,
)


@dataclass(frozen=True)
class FastForwardRefusal:
    """A structured explanation of why fast-forward did not engage.

    ``reason`` is one of :data:`REFUSAL_REASONS`; ``detail`` is a free-form
    human-readable elaboration; ``probes`` records every probe attempt and
    rejected candidate window, so coverage cliffs are visible instead of
    silently degrading to the full run.
    """

    reason: str
    detail: str = ""
    probes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.reason not in REFUSAL_REASONS:
            raise ValueError(f"unknown refusal reason {self.reason!r}")

    def __str__(self) -> str:
        return f"{self.reason}: {self.detail}" if self.detail else self.reason

    def to_payload(self) -> Dict[str, object]:
        return {
            "reason": self.reason,
            "detail": self.detail,
            "probes": list(self.probes),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "FastForwardRefusal":
        return cls(
            reason=str(payload["reason"]),
            detail=str(payload.get("detail", "")),
            probes=tuple(payload.get("probes", ())),
        )


_ClusterSnap = Dict[int, Tuple[int, int, int, int, int, int]]
_StageSnap = Dict[int, Tuple]
_LinkSnap = Dict[str, int]


class _ProbeSimulator(SystemSimulator):
    """A system simulator that snapshots state at final-stage completions.

    Snapshots are taken at identical event positions (the ``job_finished``
    call of the final stage), so window-to-window comparisons are exact.
    """

    def __init__(
        self, arch, workload, model_contention, buffer_depth, engine=DEFAULT_ENGINE
    ):
        super().__init__(
            arch,
            workload,
            model_contention=model_contention,
            buffer_depth=buffer_depth,
            engine=engine,
        )
        self._final_stage_id = workload.final_stage().stage_id
        #: (now, hbm_bytes, noc_bytes, noc_byte_hops, local_bytes, n_transfers)
        self.counter_snaps: List[Tuple[int, ...]] = []
        self.cluster_snaps: List[_ClusterSnap] = []
        self.stage_snaps: List[_StageSnap] = []
        self.link_snaps: List[_LinkSnap] = []

    def job_finished(self, stage_id: int, job_index: int) -> None:
        super().job_finished(stage_id, job_index)
        if stage_id == self._final_stage_id:
            # snapshot_activity is engine-aware: the table engine serves
            # clusters/links from its dense mid-run lanes, the object
            # kernel from the tracer — identical values either way.
            counters, clusters, stages, links = self.snapshot_activity()
            self.counter_snaps.append(counters)
            self.cluster_snaps.append(clusters)
            self.stage_snaps.append(stages)
            self.link_snaps.append(links)


@dataclass
class _Plan:
    """A certified extrapolation: window, period and per-quantity deltas."""

    window: int  # W, in jobs
    period: int  # D, in cycles
    anchor: int  # final-completion index the deltas were measured at
    counter_delta: Tuple[int, ...]  # per-window (D, hbm, noc, hops, local, transfers)
    #: per-stage head length: trace[:head] is kept verbatim, the periodic
    #: block is inserted there, trace[head:] is the drain tail (shifted).
    stage_heads: Dict[int, int]


def _rightmost_periodic_run(deltas: List, window: int) -> Optional[int]:
    """Last delta index ``e`` with ``≥ MIN_WINDOWS·window`` periodic deltas.

    ``deltas[j]`` is periodic when it equals ``deltas[j - window]``.  The
    scan walks from the end of the run (skipping the drain tail, whose
    deltas genuinely deviate) and returns the end index of the rightmost
    run of consecutive periodic deltas long enough to certify steadiness,
    or ``None``.
    """
    need = MIN_WINDOWS * window
    j = len(deltas) - 1
    while j - window >= 0:
        if deltas[j] == deltas[j - window]:
            end = j
            while j - window >= 0 and deltas[j] == deltas[j - window]:
                j -= 1
            if end - j >= need:
                return end
            # run too short: resume the scan below it
        else:
            j -= 1
    return None


def _deltas(values: List) -> List:
    return [
        tuple(b - a for a, b in zip(x, y)) if isinstance(x, tuple) else y - x
        for x, y in zip(values, values[1:])
    ]


def _analyze(probe: _ProbeSimulator, result: SimulationResult, window: int) -> Optional[_Plan]:
    """Certify periodicity of one probe run at one candidate window."""
    b = result.workload.n_jobs
    snaps = probe.counter_snaps
    if len(snaps) != b:
        return None
    counter_deltas = _deltas(snaps)
    end = _rightmost_periodic_run(counter_deltas, window)
    if end is None:
        return None
    anchor = end + 1  # snapshot index whose preceding window is certified
    if anchor - 2 * window < 0:
        return None
    counter_delta = tuple(
        a - c for a, c in zip(snaps[anchor], snaps[anchor - window])
    )
    period = counter_delta[0]
    if period <= 0:
        return None

    # every stage's completion trace must be periodic with the same period
    stage_heads: Dict[int, int] = {}
    for stage_id in result.jobs_completed:
        trace = result.tracer.stage_completions.get(stage_id, ())
        if len(trace) != b:
            return None
        trace_deltas = [y - x for x, y in zip(trace, trace[1:])]
        trace_end = _rightmost_periodic_run(trace_deltas, window)
        if trace_end is None:
            return None
        head = trace_end + 2  # trace[:head] ends inside the certified region
        if head - 1 - window < 0 or trace[head - 1] - trace[head - 1 - window] != period:
            return None
        stage_heads[stage_id] = head

    # per-cluster, per-stage and per-link activity must grow by the same
    # amount over the two certified windows before the anchor
    if not _verify_window_increments(probe, anchor, window, period):
        return None
    return _Plan(
        window=window,
        period=period,
        anchor=anchor,
        counter_delta=counter_delta,
        stage_heads=stage_heads,
    )


def _verify_window_increments(
    probe: _ProbeSimulator, anchor: int, window: int, period: int
) -> bool:
    """Check that every activity dict grew identically over the last two
    certified windows (the second-difference test)."""
    c0 = probe.cluster_snaps[anchor - 2 * window]
    c1 = probe.cluster_snaps[anchor - window]
    c2 = probe.cluster_snaps[anchor]
    zero6 = (0, 0, 0, 0, 0, 0)
    for cid in c2:
        s0 = c0.get(cid, zero6)
        s1 = c1.get(cid, zero6)
        s2 = c2[cid]
        # additive fields: analog, digital, communication, sync, jobs
        for i in range(5):
            if s2[i] - s1[i] != s1[i] - s0[i]:
                return False
        # last_busy_cycle either advances by exactly one period per window
        # (the cluster is active in steady state) or stands still
        d1, d2 = s1[5] - s0[5], s2[5] - s1[5]
        if d2 != d1 or d2 not in (0, period):
            return False
    g0 = probe.stage_snaps[anchor - 2 * window]
    g1 = probe.stage_snaps[anchor - window]
    g2 = probe.stage_snaps[anchor]
    for sid in g2:
        s0, s1, s2 = g0.get(sid), g1.get(sid), g2[sid]
        if s0 is None or s1 is None:
            return False
        if s2[0] - s1[0] != window or s1[0] - s0[0] != window:
            return False  # every stage completes exactly W jobs per window
        for i in (1, 2, 3, 4):
            if s2[i] - s1[i] != s1[i] - s0[i]:
                return False
        if not (s0[5] == s1[5] == s2[5]):
            return False  # first_job_start is settled during the fill
        if s2[6] - s1[6] != period or s1[6] - s0[6] != period:
            return False
    l0 = probe.link_snaps[anchor - 2 * window]
    l1 = probe.link_snaps[anchor - window]
    l2 = probe.link_snaps[anchor]
    for link in l2:
        if l2[link] - l1.get(link, 0) != l1.get(link, 0) - l0.get(link, 0):
            return False
    return True


def _extrapolate(
    probe: _ProbeSimulator,
    result: SimulationResult,
    plan: _Plan,
    workload: Workload,
) -> SimulationResult:
    """Advance the probe result by ``t`` certified windows, in place."""
    b = result.workload.n_jobs
    n = workload.n_jobs
    window, period = plan.window, plan.period
    t = (n - b) // window
    shift = t * period
    tracer = result.tracer

    # aggregate traffic counters
    __, d_hbm, d_noc, d_hops, d_local, d_transfers = plan.counter_delta
    tracer.hbm_bytes += t * d_hbm
    tracer.noc_bytes += t * d_noc
    tracer.noc_byte_hops += t * d_hops
    tracer.local_bytes += t * d_local
    tracer.n_transfers += t * d_transfers
    tracer.makespan += shift

    # per-cluster activity
    c1 = probe.cluster_snaps[plan.anchor - window]
    c2 = probe.cluster_snaps[plan.anchor]
    zero6 = (0, 0, 0, 0, 0, 0)
    for cid, act in tracer.clusters.items():
        s1 = c1.get(cid, zero6)
        s2 = c2.get(cid, zero6)
        act.analog += t * (s2[0] - s1[0])
        act.digital += t * (s2[1] - s1[1])
        act.communication += t * (s2[2] - s1[2])
        act.synchronization += t * (s2[3] - s1[3])
        act.jobs += t * (s2[4] - s1[4])
        # shift the last-activity cycle when the cluster is still active at
        # (or after) the anchor; fill-only clusters keep theirs untouched
        if act.last_busy_cycle > s2[5] or s2[5] - s1[5] == period:
            act.last_busy_cycle += shift

    # per-stage activity records
    g1 = probe.stage_snaps[plan.anchor - window]
    g2 = probe.stage_snaps[plan.anchor]
    for sid, rec in tracer.stages.items():
        s1, s2 = g1[sid], g2[sid]
        rec.jobs_completed += t * window
        rec.analog_busy += t * (s2[1] - s1[1])
        rec.digital_busy += t * (s2[2] - s1[2])
        rec.input_stall += t * (s2[3] - s1[3])
        rec.output_stall += t * (s2[4] - s1[4])
        rec.last_job_end += shift

    # per-link busy cycles
    l1 = probe.link_snaps[plan.anchor - window]
    l2 = probe.link_snaps[plan.anchor]
    for link, busy in l2.items():
        tracer.link_busy[link] += t * (busy - l1.get(link, 0))

    # per-stage completion traces: head + t periodic windows + shifted tail
    for sid, trace in tracer.stage_completions.items():
        head = plan.stage_heads[sid]
        new_trace = list(trace[:head])
        for __ in range(t * window):
            new_trace.append(new_trace[-window] + period)
        for j in range(head, b):
            new_trace.append(trace[j] + shift)
        tracer.stage_completions[sid] = new_trace

    final_stage_id = workload.final_stage().stage_id
    final_trace = tracer.stage_completions[final_stage_id]
    result.workload = workload
    result.makespan_cycles = tracer.makespan
    result.jobs_completed = {sid: n for sid in result.jobs_completed}
    result.final_stage_completions = tuple(final_trace[-2:])
    result.fast_forwarded = True
    return result


def _probe_size(n: int, align: int, target: int) -> int:
    """Smallest probe size ``≡ n (mod align)`` at or above ``target``."""
    return n - align * ((n - target) // align)


def _run_probe(
    arch: ArchConfig,
    workload: Workload,
    b: int,
    model_contention: bool,
    buffer_depth: int,
    engine: str,
) -> Tuple[_ProbeSimulator, SimulationResult]:
    probe = _ProbeSimulator(
        arch, workload.with_n_jobs(b), model_contention, buffer_depth, engine
    )
    return probe, probe.run()


def _global_fast_forward(
    arch: ArchConfig,
    workload: Workload,
    model_contention: bool,
    buffer_depth: int,
    engine: str,
    attempts: List[str],
) -> Optional[SimulationResult]:
    """The single-anchor certification path (windows ``≤ MAX_WINDOW``).

    Returns the extrapolated result, or ``None`` when no global window
    certifies; every probe attempt and every rejected candidate window is
    appended to ``attempts`` (and logged) so refusals carry a full record.
    """
    n = workload.n_jobs
    # probe sizing: start near PROBE_TARGET; if certification fails —
    # typically because the probe is shorter than the pipeline's fill plus
    # drain, so no window exists in which *every* stage runs at the
    # bottleneck rate — escalate once to a depth-scaled probe.  A probe
    # costing more than half the full run cannot pay for itself.
    targets = (PROBE_TARGET, PROBE_TARGET + 2 * len(workload.stages))
    probes_run = 0
    for target in targets:
        if target > n // 2 or probes_run >= 2:
            break
        b = _probe_size(n, PROBE_ALIGN, target)
        if b >= n or b > n // 2:
            attempts.append(f"global probe b={b} skipped: exceeds n/2={n // 2}")
            break
        probe, result = _run_probe(
            arch, workload, b, model_contention, buffer_depth, engine
        )
        probes_run += 1
        logger.info("fast-forward global probe: b=%d engine=%s", b, engine)
        if not result.completed:
            attempts.append(f"global probe b={b}: probe run did not complete")
            return None
        rejected: List[int] = []
        uncertified: Optional[int] = None
        for window in range(1, MAX_WINDOW + 1):
            if (n - b) % window == 0:
                plan = _analyze(probe, result, window)
                if plan is not None:
                    attempts.append(
                        f"global probe b={b}: certified W={window} D={plan.period}"
                    )
                    return _extrapolate(probe, result, plan, workload)
                rejected.append(window)
            elif uncertified is None and _analyze(probe, result, window) is not None:
                uncertified = window
        attempts.append(
            f"global probe b={b}: rejected windows {rejected}"
            + (f"; W={uncertified} certifies but does not divide n-b" if uncertified else "")
        )
        logger.info(
            "fast-forward global probe b=%d: rejected windows %s", b, rejected
        )
        if uncertified is not None:
            # the pipeline is periodic, but the window does not divide the
            # remaining job count: re-probe once at an aligned size
            window = uncertified
            b2 = n - window * ((n - target) // window)
            if b2 < n and b2 != b and b2 <= n // 2:
                attempts.append(
                    f"global escalation: re-probe b={b2} aligned to W={window}"
                )
                logger.info(
                    "fast-forward global escalation: b=%d aligned to W=%d", b2, window
                )
                probe, result = _run_probe(
                    arch, workload, b2, model_contention, buffer_depth, engine
                )
                if result.completed:
                    plan = _analyze(probe, result, window)
                    if plan is not None:
                        attempts.append(
                            f"global probe b={b2}: certified W={window} D={plan.period}"
                        )
                        return _extrapolate(probe, result, plan, workload)
                attempts.append(f"global probe b={b2}: W={window} no longer certifies")
            return None
    return None


# --------------------------------------------------------------------- #
# Replica-symmetry path
# --------------------------------------------------------------------- #
#
# The global path needs one window in which *every* quantity repeats, so a
# stage replicated R ways forces W ≥ lcm(R, digital_slots) on the whole
# pipeline.  Under ``model_contention=False`` the interconnect is stateless
# (every transfer takes its zero-load latency), so stages only couple
# through explicit flow control; replicas of a stage are interchangeable
# under round-robin dispatch, and each stage settles into its *own*
# periodic pattern — window G_s jobs, period P_s cycles — at its own
# anchor.  The replica path certifies those per-stage patterns directly on
# the completion traces, then re-derives everything else (counters, link
# busy, per-cluster activity and busy horizons) from an exact event ledger,
# verified event-for-event against the probe before it is trusted.


class _ReplicaProbeSimulator(SystemSimulator):
    """A contention-free table-lane probe that records per-family event ends.

    The table lane's per-record observer appends every record's end cycle
    to a per-``(cluster, category, cycles)`` substream, in event order.
    Grouping by the recorded cycle count separates event families with
    different causes (e.g. a DMA burst vs. a delivery attribution):
    families with equal signatures merge, which the certifier handles by
    dominant-rate analysis.  The lane's fused burst records — one
    source-side record per equal-size chunk group — carry exactly the
    per-flow granularity family certification needs; per-chunk records
    would collapse distinct flows into one indistinguishable family.
    """

    def __init__(self, arch, workload, buffer_depth):
        super().__init__(
            arch,
            workload,
            model_contention=False,
            buffer_depth=buffer_depth,
            engine="table",
        )
        #: (cluster_id, category, cycles) -> end cycles, in record order.
        self.substreams: Dict[Tuple[int, str, int], List[int]] = {}
        #: stage_id -> per-job compute-end cycles, in record order.
        self.stage_ends: Dict[int, List[int]] = {}
        substreams = self.substreams
        stage_ends = self.stage_ends

        def observe(key: int, category: str, cycles: int, end: int) -> None:
            if category == STAGE_JOB:
                stream = stage_ends.get(key)
                if stream is None:
                    stream = stage_ends[key] = []
            else:
                family = (key, category, cycles)
                stream = substreams.get(family)
                if stream is None:
                    stream = substreams[family] = []
            stream.append(end)

        self._table.observer = observe


@dataclass
class _Contrib:
    """One event family's contribution of a single (stage, bound) source.

    ``class_sid`` names the stage whose steady rate paces these events —
    their inter-event spacing in the settled tail follows that stage's
    certified (G, P).  ``bound`` is a sound upper bound on every event of
    the family for job ``j``: ``("E", sid)`` bounds by that stage's per-job
    compute end (valid for input-side deliveries, which must land before
    the consuming job starts), ``("T", sid)`` by its completion (valid for
    producer-side records, which the producer's job-done barrier awaits).
    """

    class_sid: int
    bound: Tuple[str, int]
    per_job: int = 0  # phase-independent events per job
    q: int = 0  # phase modulus of ``phases`` (0 when unused)
    phases: Optional[List[int]] = None  # events for jobs with j % q == p
    #: merged-group key ``(contrib_key, category, cycles)`` of a family on
    #: the *same cluster* whose job-matched events provably end at or after
    #: this contribution's (e.g. the relay read issued by a storage write):
    #: when that group is certified, this contribution needs no bound.
    dominator: Optional[Tuple] = None


def _phase_count(x: int, p: int, q: int) -> int:
    """Number of jobs ``j < x`` with ``j % q == p``."""
    return (x - p + q - 1) // q


def _contrib_count(contrib: _Contrib, lo: int, hi: int) -> int:
    """Events this contribution produces over jobs ``[lo, hi)``."""
    total = (hi - lo) * contrib.per_job
    if contrib.phases is not None:
        q = contrib.q
        for p, k in enumerate(contrib.phases):
            if k:
                total += (_phase_count(hi, p, q) - _phase_count(lo, p, q)) * k
    return total


class _EventLedger:
    """Exact per-stage model of every tracer record and traffic counter.

    The ledger walks the workload the same way the simulator does — analog
    replicas, intra-stage transfers, digital groups, output routing
    (including chunk grouping, storage relays and external feeds) — and
    predicts, for each ``(cluster, category, cycles)`` event family, how
    many events each stage contributes per job (or per phase of its
    ``lcm(replication, digital_slots)`` round-robin), plus the per-job
    traffic-counter and per-link increments.  Before extrapolation the
    prediction is verified *exactly* against the probe's recorded state;
    any mismatch refuses the fast-forward.
    """

    def __init__(self, arch: ArchConfig, workload: Workload):
        self.workload = workload
        self.topology = arch.topology()
        self._cluster = arch.cluster
        self._dma_memo: Dict[int, int] = {}
        self._comm_memo: Dict[int, int] = {}
        #: (cluster, category, cycles) -> contribution per (class_sid, bound)
        self.groups: Dict[Tuple[int, str, int], Dict[Tuple, _Contrib]] = {}
        #: stage -> per-phase traffic counters [hbm, noc, hops, local, transfers]
        self.phase_counters: Dict[int, List[List[int]]] = {}
        self.phase_links: Dict[int, List[Dict[str, int]]] = {}
        #: stage -> phase-independent per-job counters / link busy
        self.flat_counters: Dict[int, List[int]] = {}
        self.flat_links: Dict[int, Dict[str, int]] = {}
        #: cluster -> stages whose steady rate drives its DMA engine
        self.dma_pacers: Dict[int, Set[int]] = {}
        self._build()

    # -- memoized cycle counts of the cluster's DMA rules ---------------- #
    def _dma(self, n_bytes: int) -> int:
        cycles = self._dma_memo.get(n_bytes)
        if cycles is None:
            cycles = self._dma_memo[n_bytes] = self._cluster.dma_cycles(n_bytes)
        return cycles

    def _comm(self, n_bytes: int) -> int:
        cycles = self._comm_memo.get(n_bytes)
        if cycles is None:
            cycles = self._comm_memo[n_bytes] = self._cluster.delivery_cycles(n_bytes)
        return cycles

    # -- contribution plumbing ------------------------------------------ #
    def _event(
        self,
        cid: int,
        category: str,
        cycles: int,
        contrib_key: Tuple,
        count: int = 1,
        phase: Optional[int] = None,
        q: int = 0,
        dominator: Optional[Tuple] = None,
    ) -> None:
        key = (cid, category, int(cycles))
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = {}
        contrib = group.get(contrib_key)
        if contrib is None:
            class_sid, bound = contrib_key
            contrib = group[contrib_key] = _Contrib(
                class_sid, bound, dominator=dominator
            )
        elif contrib.dominator != dominator:
            # a contribution is dominated only if *every* emission feeding
            # it agrees on the dominating family; otherwise fall back to
            # its completion-time bound
            contrib.dominator = None
        if phase is None:
            contrib.per_job += count
        else:
            if contrib.phases is None:
                contrib.q = q
                contrib.phases = [0] * q
            contrib.phases[phase] += count

    def _transfer(
        self,
        src: Optional[int],
        dst: Optional[int],
        n_bytes: int,
        counters: List[int],
        links: Dict[str, int],
    ) -> None:
        """Mirror of ``NocModel.transfer_bytes`` traffic accounting."""
        if n_bytes == 0 or src == dst:
            counters[4] += 1
            counters[3] += n_bytes
            return
        if src is None:
            route = self.topology.route_from_hbm(dst)
            involves_hbm = True
        elif dst is None:
            route = self.topology.route_to_hbm(src)
            involves_hbm = True
        else:
            route = self.topology.route(src, dst)
            involves_hbm = False
        serialization = -(-n_bytes // route.min_width_bytes)
        counters[4] += 1
        counters[1] += n_bytes
        counters[2] += n_bytes * route.n_hops
        if involves_hbm:
            counters[0] += n_bytes
        for link in route.links:
            links[link] = links.get(link, 0) + serialization

    def _send(
        self,
        src: Optional[int],
        dst: Optional[int],
        n_bytes: int,
        src_key: Tuple,
        dst_key: Tuple,
        counters: List[int],
        links: Dict[str, int],
        phase: Optional[int] = None,
        q: int = 0,
        dst_dominator: Optional[Tuple] = None,
    ) -> None:
        """Mirror of ``SystemSimulator.send_bytes`` record emission."""
        if n_bytes <= 0:
            return
        if src is not None:
            self._event(src, "communication", self._dma(n_bytes), src_key, 1, phase, q)
            self.dma_pacers.setdefault(src, set()).add(src_key[0])
        self._transfer(src, dst, n_bytes, counters, links)
        if dst is not None:
            self._event(
                dst,
                "communication",
                self._comm(n_bytes),
                dst_key,
                1,
                phase,
                q,
                dominator=dst_dominator,
            )

    def _send_chunked(
        self,
        src: Optional[int],
        dst: Optional[int],
        n_bytes: int,
        n_chunks: int,
        src_key: Tuple,
        dst_key: Tuple,
        counters: List[int],
        links: Dict[str, int],
        dst_dominator: Optional[Tuple] = None,
    ) -> None:
        """Mirror of the table lane's chunked-flow record emission.

        All same-size chunks of one burst share a single source-side
        communication record of ``duration * count`` cycles; the
        destination side and the traffic counters are per chunk.
        """
        if n_bytes <= 0 or n_chunks <= 1:
            self._send(
                src,
                dst,
                n_bytes,
                src_key,
                dst_key,
                counters,
                links,
                dst_dominator=dst_dominator,
            )
            return
        for size, count in chunk_groups(n_bytes, n_chunks):
            if src is not None:
                self._event(src, "communication", self._dma(size) * count, src_key, 1)
                self.dma_pacers.setdefault(src, set()).add(src_key[0])
            for __ in range(count):
                self._transfer(src, dst, size, counters, links)
            if dst is not None:
                self._event(
                    dst,
                    "communication",
                    self._comm(size),
                    dst_key,
                    count,
                    dominator=dst_dominator,
                )

    # -- workload walk --------------------------------------------------- #
    def _build(self) -> None:
        stages = self.workload.stages
        by_id = {d.stage_id: d for d in stages}
        produced = {
            (flow.kind, flow.label)
            for d in stages
            for flow in d.outputs
            if flow.kind in (ENDPOINT_HBM, ENDPOINT_STORAGE)
        }
        relay_targets = {
            (flow.kind, flow.label): d.stage_id
            for d in stages
            for flow in d.inputs
            if flow.kind in (ENDPOINT_HBM, ENDPOINT_STORAGE)
        }
        for d in stages:
            sid = d.stage_id
            q_eff = math.lcm(d.replication, d.digital_slots)
            pc = self.phase_counters[sid] = [[0] * 5 for __ in range(q_eff)]
            pl = self.phase_links[sid] = [{} for __ in range(q_eff)]
            fc = self.flat_counters[sid] = [0] * 5
            fl = self.flat_links[sid] = {}
            dgroups = d.digital_groups()
            own_t = (sid, ("T", sid))
            own_e = (sid, ("E", sid))
            ac = d.cost.analog_cycles_per_job
            dc = d.cost.digital_cycles_per_job
            intra = d.cost.intra_stage_bytes_per_job
            for p in range(q_eff):
                replica = (
                    d.analog_replicas[p % d.replication] if d.is_analog else ()
                )
                if d.is_analog:
                    for cluster in replica:
                        self._event(cluster, "analog", ac, own_e, 1, p, q_eff)
                if intra > 0 and d.digital_clusters:
                    isrc = replica[0] if replica else d.io_cluster
                    idst = d.digital_clusters[0]
                    self._send(
                        isrc, idst, intra, own_t, own_e, pc[p], pl[p], phase=p, q=q_eff
                    )
                if dc > 0:
                    for cluster in dgroups[p % d.digital_slots]:
                        self._event(cluster, "digital", dc, own_e, 1, p, q_eff)
            io = d.io_cluster
            for flow in d.outputs:
                if flow.kind == ENDPOINT_STAGE:
                    consumer = by_id[flow.stage_id]
                    # deliveries are producer-timed while the producer holds
                    # credit slack (the free-run guard enforces that), but
                    # each must land before the consuming job starts
                    self._send_chunked(
                        io,
                        consumer.io_cluster,
                        flow.bytes_per_job,
                        flow.transfers_per_job,
                        own_t,
                        (sid, ("E", consumer.stage_id)),
                        fc,
                        fl,
                    )
                else:
                    storage = (
                        flow.storage_cluster
                        if flow.kind == ENDPOINT_STORAGE
                        else None
                    )
                    target = relay_targets.get((flow.kind, flow.label))
                    # the producer's job-done barrier awaits the write.  When
                    # the tile is relayed onward, the relay read of the same
                    # job is granted at ``written`` — at or after every write
                    # chunk delivery — and its source-side DMA record ends
                    # strictly later on the same storage cluster, so the
                    # write's destination events are dominated by the relay
                    # read family and need no completion-time bound of their
                    # own once that family certifies.
                    self._send_chunked(
                        io,
                        storage,
                        flow.bytes_per_job,
                        flow.transfers_per_job,
                        own_t,
                        own_t,
                        fc,
                        fl,
                        dst_dominator=(
                            (target, ("E", target))
                            if target is not None and storage is not None
                            else None
                        ),
                    )
                    if target is not None:
                        # relay read: issued per produced tile, paced by the
                        # consumer's credit releases, delivered before the
                        # consuming job starts
                        consumer_key = (target, ("E", target))
                        self._send_chunked(
                            storage,
                            by_id[target].io_cluster,
                            flow.bytes_per_job,
                            flow.transfers_per_job,
                            consumer_key,
                            consumer_key,
                            fc,
                            fl,
                        )
            for flow in d.inputs:
                if flow.kind == ENDPOINT_STAGE:
                    continue
                if (flow.kind, flow.label) in produced:
                    continue
                # external feed: one un-chunked HBM fetch per job, delivered
                # before the consuming job starts (credit-gated at the
                # consumer, so its settled pace is the consumer's)
                self._transfer(None, io, flow.bytes_per_job, fc, fl)
                self._event(
                    io,
                    "communication",
                    self._comm(flow.bytes_per_job),
                    (sid, ("E", sid)),
                    1,
                )

    # -- aggregation helpers -------------------------------------------- #
    def added_counters(self, lo: int, hi: int) -> List[int]:
        """Traffic-counter increments over jobs ``[lo, hi)`` of every stage."""
        total = [0] * 5
        for sid, rows in self.phase_counters.items():
            q_eff = len(rows)
            for p, row in enumerate(rows):
                count = _phase_count(hi, p, q_eff) - _phase_count(lo, p, q_eff)
                if count:
                    for i in range(5):
                        total[i] += count * row[i]
        for sid, row in self.flat_counters.items():
            for i in range(5):
                total[i] += (hi - lo) * row[i]
        return total

    def added_links(self, lo: int, hi: int) -> Dict[str, int]:
        """Per-link busy-cycle increments over jobs ``[lo, hi)``."""
        total: Dict[str, int] = {}
        for sid, rows in self.phase_links.items():
            q_eff = len(rows)
            for p, row in enumerate(rows):
                count = _phase_count(hi, p, q_eff) - _phase_count(lo, p, q_eff)
                if count:
                    for link, busy in row.items():
                        total[link] = total.get(link, 0) + count * busy
        for sid, row in self.flat_links.items():
            for link, busy in row.items():
                total[link] = total.get(link, 0) + (hi - lo) * busy
        return total


def _suffix_window(values: Sequence[int], window: int) -> Optional[Tuple[int, int]]:
    """Certify the ``window``-job recurrence on the *suffix* of a trace.

    Returns ``(period, pairs)`` where ``period = values[-1] -
    values[-1-window] > 0`` and ``pairs`` counts how many consecutive
    indices ``j`` (from the end) satisfy ``values[j] - values[j-window] ==
    period``; ``None`` when the trace is too short or the period is not
    positive.  Anchoring at the suffix is what tolerates free-running
    stages: each stage is certified at its own tail, not a global anchor.
    """
    length = len(values)
    if window <= 0 or length <= window:
        return None
    period = values[length - 1] - values[length - 1 - window]
    if period <= 0:
        return None
    if length - window >= 64:
        # long traces: one vectorised stride-difference pass instead of a
        # Python loop over every element
        arr = np.asarray(values, dtype=np.int64)
        mismatch = np.flatnonzero(arr[window:] != arr[:-window] + period)
        pairs = length - window if mismatch.size == 0 else (
            length - window - 1 - int(mismatch[-1])
        )
        return period, pairs
    pairs = 0
    j = length - 1
    while j >= window and values[j] - values[j - window] == period:
        pairs += 1
        j -= 1
    return period, pairs


def _need(window: int) -> int:
    """Certified pairs required to accept a candidate window.

    Small windows need :data:`MIN_WINDOWS` full windows of evidence.  A
    replica window larger than :data:`MAX_WINDOW` is the stage's own
    round-robin quotient ``lcm(replication, digital_slots)`` (or a window
    inherited from such a producer): its residues are interchangeable
    replica phases, so one verified recurrence per residue plus a
    :data:`MIN_WINDOWS` margin certifies the quotient without demanding
    ``MIN_WINDOWS`` full windows of an already-long period.
    """
    if window <= MAX_WINDOW:
        return MIN_WINDOWS * window
    return window + MIN_WINDOWS


def _rate_key(window: int, period: int) -> Tuple[int, int]:
    """Reduced cycles-per-job rate ``period/window`` as an exact fraction."""
    g = math.gcd(window, period)
    return (period // g, window // g)


def _certify_stages(
    workload: Workload,
    traces: Dict[int, List[int]],
    stage_ends: Dict[int, List[int]],
    attempts: List[str],
    probe_label: str,
) -> Tuple[Optional[Dict[int, Tuple[int, int]]], int, str]:
    """Certify every stage's completion trace at its own window and anchor.

    Candidates per stage: every window up to :data:`MAX_WINDOW`, the
    stage's replica shapes (``replication``, ``digital_slots`` and their
    lcm), and windows inherited from certified producers (``G_p`` and
    ``lcm(G_p, Q_s)`` — a stage slaved to a replicated producer inherits
    its period even when its own shape is trivial).  Among certifiable
    candidates the one whose certified region starts *earliest* wins (ties
    to the smaller window): a short window can transiently certify inside
    a long constant-delta run of the true pattern, but never with an
    earlier region start than the true window, so this selection is what
    makes the scan sound (see docs/simulator.md).

    Returns ``(certs, escalate_window, detail)``: ``certs`` maps stage id
    to ``(G, P)`` or is ``None`` on failure; ``escalate_window`` is the
    largest candidate that failed purely for trace length (0 when none),
    signalling that a longer probe may certify.
    """
    certs: Dict[int, Tuple[int, int]] = {}
    produced_by = {
        (flow.kind, flow.label): d.stage_id
        for d in workload.stages
        for flow in d.outputs
        if flow.kind in (ENDPOINT_HBM, ENDPOINT_STORAGE)
    }
    for d in workload.stages:
        sid = d.stage_id
        trace = traces.get(sid, [])
        ends = stage_ends.get(sid, [])
        length = len(trace)
        q_eff = math.lcm(d.replication, d.digital_slots)
        candidates = set(range(1, MAX_WINDOW + 1))
        candidates.update((d.replication, d.digital_slots, q_eff))
        for flow in d.inputs:
            if flow.kind == ENDPOINT_STAGE:
                producer = flow.stage_id
            else:
                producer = produced_by.get((flow.kind, flow.label))
            if producer in certs:
                g_p = certs[producer][0]
                candidates.add(g_p)
                candidates.add(math.lcm(g_p, q_eff))
        best: Optional[Tuple[int, int, int]] = None  # (region_start, window, period)
        limited = 0
        rejected: List[int] = []
        for window in sorted(candidates):
            need = _need(window)
            if length - window < need:
                limited = max(limited, window)
                rejected.append(window)
                continue
            on_trace = _suffix_window(trace, window)
            on_ends = _suffix_window(ends, window)
            if (
                on_trace is None
                or on_ends is None
                or on_trace[1] < need
                or on_ends[1] < need
                or on_trace[0] != on_ends[0]
            ):
                rejected.append(window)
                continue
            period = on_trace[0]
            pairs = min(on_trace[1], on_ends[1])
            start = length - window - pairs
            if best is None or (start, window) < (best[0], best[1]):
                best = (start, window, period)
        if best is None:
            detail = (
                f"stage {sid}: no certifiable window among {sorted(candidates)}"
            )
            attempts.append(f"{probe_label}: {detail}; rejected {rejected}")
            logger.info("fast-forward %s: %s; rejected %s", probe_label, detail, rejected)
            return None, limited, detail
        certs[sid] = (best[1], best[2])
    return certs, 0, ""


def _extend_trace(values: List[int], window: int, period: int, n: int) -> List[int]:
    """Extend a certified per-stage trace to ``n`` entries by recurrence."""
    out = list(values)
    for k in range(len(values), n):
        out.append(out[k - window] + period)
    return out


def _verify_probe_state(
    probe: _ReplicaProbeSimulator,
    ledger: _EventLedger,
    workload: Workload,
    b: int,
) -> Optional[str]:
    """Check the ledger reproduces the probe's recorded state *exactly*.

    Every aggregate counter, link-busy entry, per-cluster activity total,
    per-stage record and per-family event count must match the prediction;
    the first mismatch is returned as a human-readable detail (the caller
    turns it into a refusal — a mismatch means the ledger's model of the
    event population is wrong for this workload, so extrapolating from it
    could be silently inexact).
    """
    tracer = probe.tracer
    expected = ledger.added_counters(0, b)
    actual = (
        tracer.hbm_bytes,
        tracer.noc_bytes,
        tracer.noc_byte_hops,
        tracer.local_bytes,
        tracer.n_transfers,
    )
    if tuple(expected) != actual:
        return f"traffic counters diverge: ledger {tuple(expected)} vs probe {actual}"
    expected_links = {k: v for k, v in ledger.added_links(0, b).items() if v}
    actual_links = {k: v for k, v in tracer.link_busy.items() if v}
    if expected_links != actual_links:
        return "per-link busy cycles diverge"
    if set(probe.substreams) != set(ledger.groups):
        missing = set(ledger.groups) - set(probe.substreams)
        extra = set(probe.substreams) - set(ledger.groups)
        return f"event families diverge (missing {len(missing)}, extra {len(extra)})"
    cluster_totals: Dict[int, List[int]] = {}  # analog, digital, comm, jobs
    for key, group in ledger.groups.items():
        cid, category, cycles = key
        events = sum(_contrib_count(c, 0, b) for c in group.values())
        if len(probe.substreams[key]) != events:
            return (
                f"event count of family {key} diverges: ledger {events} "
                f"vs probe {len(probe.substreams[key])}"
            )
        totals = cluster_totals.setdefault(cid, [0, 0, 0, 0])
        if category == "analog":
            totals[0] += cycles * events
            totals[3] += events
        elif category == "digital":
            totals[1] += cycles * events
        else:
            totals[2] += cycles * events
    if set(cluster_totals) != set(tracer.clusters):
        return "active cluster sets diverge"
    stream_max: Dict[int, int] = {}
    for (cid, __, ___), stream in probe.substreams.items():
        peak = max(stream)
        if peak > stream_max.get(cid, -1):
            stream_max[cid] = peak
    for cid, act in tracer.clusters.items():
        totals = cluster_totals[cid]
        if (
            act.analog != totals[0]
            or act.digital != totals[1]
            or act.communication != totals[2]
            or act.jobs != totals[3]
            or act.synchronization != 0
        ):
            return f"cluster {cid} activity diverges from ledger"
        if act.last_busy_cycle != stream_max.get(cid):
            return f"cluster {cid} busy horizon not covered by event families"
    stage_ids = {d.stage_id for d in workload.stages}
    if set(tracer.stages) != stage_ids or set(tracer.stage_completions) != stage_ids:
        return "stage sets diverge"
    for d in workload.stages:
        rec = tracer.stages[d.stage_id]
        ends = probe.stage_ends.get(d.stage_id, [])
        trace = tracer.stage_completions[d.stage_id]
        analog = d.cost.analog_cycles_per_job if d.is_analog else 0
        digital = max(0, d.cost.digital_cycles_per_job)
        if (
            rec.jobs_completed != b
            or rec.analog_busy != b * analog
            or rec.digital_busy != b * digital
            or rec.input_stall != 0
            or rec.output_stall != 0
            or len(ends) != b
            or len(trace) != b
            or ends[-1] != rec.last_job_end
        ):
            return f"stage {d.stage_id} record diverges from ledger"
    return None


def _free_run_guard(
    workload: Workload,
    certs: Dict[int, Tuple[int, int]],
    ends_ext: Dict[int, List[int]],
    ledger: _EventLedger,
    buffer_depth: int,
    n: int,
) -> Optional[str]:
    """Refuse when a free-running producer would exhaust its credit window.

    A producer strictly faster than its consumer runs ahead by a growing
    margin; inside the probe it holds slack, but at some job count it hits
    the consumer's input-credit ceiling and the event pattern changes —
    *after* the certified region, where no probe can see it.  The guard
    replays the credit arithmetic exactly on the extended compute-end
    streams: job ``j``'s credit is acquired at the producer's compute end
    and released at the consumer's, so the outstanding count must stay at
    least two below the ceiling (the margin covers same-cycle ordering
    ties) for every job of the *full* run.

    Separately, a cluster whose DMA engine serves stages of *different*
    steady rates has no single periodic pattern to certify — the relative
    phase of the two rates drifts without bound — so it is refused here
    (same root cause: unbounded drift between unequal rates).
    """
    by_id = {d.stage_id: d for d in workload.stages}
    for cid, pacers in ledger.dma_pacers.items():
        keys = {_rate_key(*certs[sid]) for sid in pacers}
        if len(keys) > 1:
            return (
                f"cluster {cid} DMA engine is shared by stages at different "
                f"steady rates {sorted(pacers)}"
            )
    for d in workload.stages:
        g_p, p_p = certs[d.stage_id]
        for flow in d.outputs:
            if flow.kind != ENDPOINT_STAGE:
                continue
            consumer = by_id[flow.stage_id]
            g_c, p_c = certs[consumer.stage_id]
            # strictly faster producer: fewer cycles per job
            if p_p * g_c >= p_c * g_p:
                continue
            depth = flow.buffer_depth if flow.buffer_depth is not None else buffer_depth
            cap = depth * max(consumer.replication, consumer.digital_slots)
            e_p = ends_ext[d.stage_id]
            e_c = ends_ext[consumer.stage_id]
            released = 0
            worst = 0
            for j in range(n):
                limit = e_p[j]
                while released < n and e_c[released] < limit:
                    released += 1
                outstanding = j - released
                if outstanding > worst:
                    worst = outstanding
            if worst > cap - 2:
                return (
                    f"producer stage {d.stage_id} would run {worst + 1} jobs ahead "
                    f"of stage {consumer.stage_id} (credit ceiling {cap}) within "
                    f"{n} jobs; the probe cannot certify past that horizon"
                )
    return None


def _certify_substreams(
    probe: _ReplicaProbeSimulator,
    ledger: _EventLedger,
    certs: Dict[int, Tuple[int, int]],
    traces_ext: Dict[int, List[int]],
    ends_ext: Dict[int, List[int]],
    b: int,
    n: int,
) -> Tuple[Optional[Dict[int, int]], str]:
    """Derive each cluster's exact busy horizon from its event families.

    Certification happens at the *contribution* level, not per cluster: a
    replicated stage scatters its events round-robin over its replica
    clusters, so one cluster sees only every ``q``-th event — its local
    stream can have an event period as long as ``lcm(q, pacing window)``,
    far beyond any affordable probe, even when the stage-level per-job
    sequence is short-periodic.  (The pacing window need not be the
    stage's own: a stage start-gated by a faster free-running producer
    inherits the producer's window for its compute-side events.)  So each
    single-contribution family is merged with its siblings across clusters
    into one job-indexed sequence, certified there with the same
    candidate-window/earliest-start machinery as the stage traces, and the
    certified recurrence is scattered back to exact per-cluster horizons
    through the known job→cluster mapping.

    A merged sequence that does not certify (an external feed still in its
    flood-fill regime) — or a family mixing several contributions, whose
    interleaving is not reconstructible — falls back per contribution: a
    contribution *dominated* by a certified family on the same cluster
    (a storage write whose relay read always ends later) needs no check;
    any other must have its *bound* — every future event provably precedes
    the bounding stage's extended compute end/completion — below the
    cluster's certified horizon, else the whole fast-forward is refused.
    A cluster's new busy horizon is the maximum scattered time over its
    certified families, exact by the above.
    """
    new_last_busy: Dict[int, int] = {}
    certified_max: Dict[int, int] = {}
    # contributions whose families did not certify: cid, contrib, key
    bounded: List[Tuple[int, _Contrib, Tuple[int, str, int]]] = []
    # (cid, contrib_key) of every certified family, for domination checks
    certified_contribs: Set[Tuple[int, Tuple]] = set()

    def bound_of(contrib: _Contrib) -> int:
        kind, sid = contrib.bound
        stream = ends_ext[sid] if kind == "E" else traces_ext[sid]
        return stream[n - 1]

    # -- group single-contribution families by their contribution -------- #
    merged_groups: Dict[Tuple, List[Tuple[int, _Contrib, List[int]]]] = {}
    multi_families: List[Tuple[Tuple[int, str, int], Dict, List[int]]] = []
    for key, stream in probe.substreams.items():
        cid, category, cycles = key
        group = ledger.groups[key]
        if len(group) != 1:
            multi_families.append((key, group, stream))
            continue
        (ck, contrib), = group.items()
        merged_groups.setdefault((ck, category, cycles), []).append(
            (cid, contrib, stream)
        )

    window_candidates = set(range(1, MAX_WINDOW + 1))
    window_candidates.update(g for g, __ in certs.values())

    for (ck, category, cycles), fams in merged_groups.items():
        fams.sort(key=lambda item: item[0])
        owner = ck[0]

        def fam_count(contrib: _Contrib, j: int) -> int:
            events = contrib.per_job
            if contrib.phases is not None:
                events += contrib.phases[j % contrib.q]
            return events

        # merge the per-cluster streams into job order (each local stream
        # is in job order by engine FIFO; per-job counts come from the
        # verified ledger)
        if len(fams) == 1:
            merged = fams[0][2]
            matched = _contrib_count(fams[0][1], 0, b) == len(merged)
        else:
            merged = []
            cursors = [0] * len(fams)
            per_fam_events = [
                (
                    [contrib.per_job] * b
                    if contrib.phases is None
                    else [fam_count(contrib, j) for j in range(b)]
                )
                for __, contrib, ___ in fams
            ]
            streams = [stream for __, ___, stream in fams]
            for j in range(b):
                for index, events_by_job in enumerate(per_fam_events):
                    events = events_by_job[j]
                    if events:
                        at = cursors[index]
                        merged.extend(streams[index][at : at + events])
                        cursors[index] = at + events
            matched = all(
                cursor == len(streams[index])
                for index, cursor in enumerate(cursors)
            )
        if not matched:
            return None, (
                f"event family of stage {owner} ({category}/{cycles}) does "
                f"not match its ledger event count"
            )
        length = len(merged)

        def count(lo: int, hi: int) -> int:
            return sum(_contrib_count(c, lo, hi) for __, c, ___ in fams)

        q_merged = 1
        for __, c, ___ in fams:
            if c.phases is not None:
                q_merged = math.lcm(q_merged, c.q)
        per_job_counts = [
            sum(fam_count(c, j) for __, c, ___ in fams) for j in range(q_merged)
        ]
        g_owner, __ = certs[owner]
        # the owner's certified window is the overwhelmingly likely event
        # window, so it goes first; any candidate passing every rule below
        # extrapolates exactly, so the first hit wins (scanning on would
        # only trade one sound certificate for another)
        candidates = [g_owner] + [
            w for w in sorted(window_candidates) if w != g_owner
        ]
        best: Optional[Tuple[int, int]] = None  # sigma, period
        for w in candidates:
            if any(
                per_job_counts[(r + w) % q_merged] != per_job_counts[r]
                for r in range(q_merged)
            ):
                # the event count of a ``w``-job window depends on where
                # the window starts: no single event stride exists
                continue
            sigma = count(0, w)
            if sigma <= 0 or length <= sigma:
                continue
            need = MIN_WINDOWS * sigma if w <= MAX_WINDOW else sigma + MIN_WINDOWS
            on_seq = _suffix_window(merged, sigma)
            if on_seq is None or on_seq[1] < need:
                continue
            period, pairs = on_seq
            start = length - sigma - pairs
            # the certified recurrence must hold over the whole second half
            # of the probe: a pattern that only appears in the last few
            # events (e.g. a feed just past its flood-fill transition) has
            # not shown it is the steady one
            if start > count(0, b // 2):
                continue
            best = (sigma, period)
            break
        if best is None:
            for cid, contrib, __ in fams:
                bounded.append((cid, contrib, (cid, category, cycles)))
            continue
        sigma, period = best
        for cid, __unused, ___ in fams:
            certified_contribs.add((cid, ck))

        def val(pos: int) -> int:
            if pos < length:
                return merged[pos]
            k = pos - length
            return merged[length - sigma + (k % sigma)] + period * (1 + k // sigma)

        # scatter back: per family, the last occurrence of each of its
        # (phase, slot) residues over the full run; values grow by
        # ``period`` per ``sigma`` positions, so the last occurrence per
        # residue dominates all earlier ones
        prefix_cache: Dict[int, int] = {}

        def job_base(j: int) -> int:
            base = prefix_cache.get(j)
            if base is None:
                base = prefix_cache[j] = count(0, j)
            return base

        for index, (cid, contrib, __) in enumerate(fams):
            last_jobs: Set[int] = set()
            if contrib.per_job:
                last_jobs.add(n - 1)
            if contrib.phases is not None:
                for p, events in enumerate(contrib.phases):
                    if events and n > p:
                        last_jobs.add(n - 1 - ((n - 1 - p) % contrib.q))
            peak = certified_max.get(cid, -1)
            for j in last_jobs:
                offset = job_base(j)
                for fam_index in range(index):
                    offset += fam_count(fams[fam_index][1], j)
                for slot in range(fam_count(contrib, j)):
                    value = val(offset + slot)
                    if value > peak:
                        peak = value
            if peak >= 0:
                certified_max[cid] = peak

    # Multi-contribution families interleave several flows whose relative
    # order is not reconstructible by job index (and whose probe suffix is
    # the pipeline drain, not the steady interleaving) — they can only be
    # bounded or dominated, never certified from the raw local stream.
    for key, group, __stream in multi_families:
        for contrib in group.values():
            bounded.append((key[0], contrib, key))

    has_future: Set[int] = set()
    for key, group in ledger.groups.items():
        if key[0] in has_future:
            continue
        if any(_contrib_count(c, b, n) > 0 for c in group.values()):
            has_future.add(key[0])
    for cid, act in probe.tracer.clusters.items():
        if cid not in has_future:
            new_last_busy[cid] = act.last_busy_cycle
            continue
        peak = certified_max.get(cid)
        if peak is None:
            return None, (
                f"cluster {cid} has no certified periodic event family to "
                f"anchor its busy horizon"
            )
        new_last_busy[cid] = max(act.last_busy_cycle, peak)
    for cid, contrib, key in bounded:
        if (
            contrib.dominator is not None
            and (cid, contrib.dominator) in certified_contribs
        ):
            continue
        horizon = new_last_busy.get(cid)
        if horizon is None or bound_of(contrib) > horizon:
            return None, (
                f"event family {key} is aperiodic in the probe and its bound "
                f"exceeds the cluster's certified horizon"
            )
    return new_last_busy, ""


def _apply_extension(
    probe: _ReplicaProbeSimulator,
    result: SimulationResult,
    workload: Workload,
    ledger: _EventLedger,
    traces_ext: Dict[int, List[int]],
    ends_ext: Dict[int, List[int]],
    new_last_busy: Dict[int, int],
    b: int,
    n: int,
) -> SimulationResult:
    """Advance the verified probe result to ``n`` jobs, in place.

    Pure integer arithmetic over the ledger and the extended per-stage
    streams — every mutated field equals what the full run would have
    recorded, which the equivalence tests assert bit-for-bit.
    """
    tracer = result.tracer
    d_hbm, d_noc, d_hops, d_local, d_transfers = ledger.added_counters(b, n)
    tracer.hbm_bytes += d_hbm
    tracer.noc_bytes += d_noc
    tracer.noc_byte_hops += d_hops
    tracer.local_bytes += d_local
    tracer.n_transfers += d_transfers
    for link, busy in ledger.added_links(b, n).items():
        if busy:
            tracer.link_busy[link] += busy
    for key, group in ledger.groups.items():
        cid, category, cycles = key
        added = sum(_contrib_count(c, b, n) for c in group.values())
        if not added:
            continue
        act = tracer.clusters[cid]
        if category == "analog":
            act.analog += cycles * added
            act.jobs += added
        elif category == "digital":
            act.digital += cycles * added
        else:
            act.communication += cycles * added
    for cid, horizon in new_last_busy.items():
        tracer.clusters[cid].last_busy_cycle = horizon
    for d in workload.stages:
        rec = tracer.stages[d.stage_id]
        analog = d.cost.analog_cycles_per_job if d.is_analog else 0
        digital = max(0, d.cost.digital_cycles_per_job)
        rec.jobs_completed = n
        rec.analog_busy += (n - b) * analog
        rec.digital_busy += (n - b) * digital
        rec.last_job_end = ends_ext[d.stage_id][n - 1]
        tracer.stage_completions[d.stage_id] = traces_ext[d.stage_id]
    # the engines advance ``makespan`` only from recorded activity ends and
    # stage job ends — completion barriers (credit releases) are bookkeeping
    # times that may exceed every recorded event, so traces don't count here
    tracer.makespan = max(
        max(new_last_busy.values(), default=0),
        max(stream[n - 1] for stream in ends_ext.values()),
    )
    final_stage_id = workload.final_stage().stage_id
    result.workload = workload
    result.makespan_cycles = tracer.makespan
    result.jobs_completed = {sid: n for sid in result.jobs_completed}
    result.final_stage_completions = tuple(traces_ext[final_stage_id][-2:])
    result.fast_forwarded = True
    return result


def _replica_fast_forward(
    arch: ArchConfig,
    workload: Workload,
    buffer_depth: int,
    attempts: List[str],
    q_max: int,
) -> Union[SimulationResult, "FastForwardRefusal"]:
    """The replica-symmetry certification path (contention-free runs).

    Runs a probe long enough to hold ``MIN_WINDOWS`` repetitions of the
    widest replica window, certifies every stage at its own window and
    anchor, cross-checks the probe against the event ledger, guards the
    free-run credit horizon, certifies every cluster's event families, and
    extends by recurrence.  Any failed check produces a typed refusal; the
    caller then runs the full simulation, so a refusal costs accuracy
    nothing.
    """
    n = workload.n_jobs
    # The probe always runs on the table lane, whatever engine the caller
    # asked for: the engines are bit-identical (the equivalence suite
    # enforces it), and only the table lane streams the per-record events
    # the certifier needs (see _ReplicaProbeSimulator).
    b = max(PROBE_TARGET, 2 * q_max + MIN_WINDOWS + 1)

    def refuse(reason: str, detail: str) -> FastForwardRefusal:
        logger.info("fast-forward refused (%s): %s", reason, detail)
        return FastForwardRefusal(reason, detail, tuple(attempts))

    for escalation in (0, 1):
        if b > n // 2:
            return refuse(
                REFUSAL_PROBE_TOO_SHORT,
                f"certifying replica windows up to {q_max} needs a {b}-job "
                f"probe, more than half of the {n}-job run",
            )
        attempts.append(f"replica probe b={b} engine=table")
        logger.info("fast-forward: replica probe b=%d (q_max=%d)", b, q_max)
        probe = _ReplicaProbeSimulator(arch, workload.with_n_jobs(b), buffer_depth)
        result = probe.run()
        if not result.completed:
            return refuse(REFUSAL_NON_PERIODIC, "probe run did not complete")
        certs, escalate_w, detail = _certify_stages(
            workload,
            probe.tracer.stage_completions,
            probe.stage_ends,
            attempts,
            f"replica probe b={b}",
        )
        if certs is None:
            if escalate_w and escalation == 0:
                b2 = min(
                    n // 2,
                    max(
                        b + PROBE_ALIGN,
                        2 * escalate_w + MIN_WINDOWS + 1 + len(workload.stages),
                    ),
                )
                if b2 > b:
                    attempts.append(
                        f"escalating probe to b={b2} for window {escalate_w}"
                    )
                    logger.info(
                        "fast-forward: escalating probe to b=%d for window %d",
                        b2,
                        escalate_w,
                    )
                    b = b2
                    continue
            if escalate_w:
                return refuse(
                    REFUSAL_WINDOW_TOO_LARGE,
                    f"window {escalate_w} cannot be certified within half the "
                    f"run ({detail})",
                )
            return refuse(REFUSAL_NON_PERIODIC, detail)
        ledger = _EventLedger(arch, workload)
        mismatch = _verify_probe_state(probe, ledger, workload, b)
        if mismatch is not None:
            return refuse(REFUSAL_NON_PERIODIC, f"ledger mismatch: {mismatch}")
        traces_ext = {
            sid: _extend_trace(
                probe.tracer.stage_completions[sid], certs[sid][0], certs[sid][1], n
            )
            for sid in certs
        }
        ends_ext = {
            sid: _extend_trace(probe.stage_ends[sid], certs[sid][0], certs[sid][1], n)
            for sid in certs
        }
        blocked = _free_run_guard(workload, certs, ends_ext, ledger, buffer_depth, n)
        if blocked is not None:
            return refuse(REFUSAL_FREE_RUN_HORIZON, blocked)
        new_last_busy, detail = _certify_substreams(
            probe, ledger, certs, traces_ext, ends_ext, b, n
        )
        if new_last_busy is None:
            return refuse(REFUSAL_NON_PERIODIC, detail)
        logger.info(
            "fast-forward: replica certification accepted (b=%d, %d stages, "
            "%d event families)",
            b,
            len(certs),
            len(ledger.groups),
        )
        return _apply_extension(
            probe,
            result,
            workload,
            ledger,
            traces_ext,
            ends_ext,
            new_last_busy,
            b,
            n,
        )
    return refuse(
        REFUSAL_WINDOW_TOO_LARGE,
        f"no certifiable window within the escalated probe (q_max={q_max})",
    )


def _shared_replica_cluster(
    workload: Workload,
) -> Optional[Tuple[StageDescriptor, int, Tuple[int, int]]]:
    """The first stage and cluster serving two of the stage's analog
    replicas, with those replicas' indices; None when every replica owns
    its clusters."""
    for stage in workload.stages:
        owner: Dict[int, int] = {}
        for index, replica in enumerate(stage.analog_replicas):
            for cluster in replica:
                first = owner.setdefault(cluster, index)
                if first != index:
                    return stage, cluster, (first, index)
    return None


def fast_forward_simulate(
    arch: ArchConfig,
    workload: Workload,
    model_contention: bool = True,
    buffer_depth: int = 2,
    engine: str = DEFAULT_ENGINE,
) -> Union[SimulationResult, "FastForwardRefusal"]:
    """Simulate ``workload`` by steady-state extrapolation when provably exact.

    Returns the bit-identical extrapolated :class:`SimulationResult` on
    success, or a typed :class:`FastForwardRefusal` explaining why the run
    must be simulated in full.  Two certification paths: the single-anchor
    global path (effective windows up to :data:`MAX_WINDOW`), and the
    replica-symmetry path for wide replica groups, available when NoC
    contention modelling is off (contention couples clusters globally and
    has no per-stage decomposition to certify).  Refusals that follow from
    the workload and options alone — an open workload, too few jobs, a
    stage replicated beyond :data:`MAX_WINDOW` under contention, or a
    cluster shared by two analog replicas of one stage — return before any
    probe runs.
    """
    attempts: List[str] = []
    if workload.arrival_cycles:
        return FastForwardRefusal(
            REFUSAL_OPEN_WORKLOAD,
            "open (arrival-driven) workloads never reach a closed steady "
            "state; simulate in full",
            tuple(attempts),
        )
    n = workload.n_jobs
    if n < MIN_JOBS:
        return FastForwardRefusal(
            REFUSAL_PROBE_TOO_SHORT,
            f"{n} jobs is below the {MIN_JOBS}-job floor: a probe plus "
            f"certification margin would not be shorter than the full run",
            tuple(attempts),
        )
    if model_contention:
        # A stage round-robining R > MAX_WINDOW analog replicas hands the
        # replica that served a window's last job its next job R > W jobs
        # later, for every candidate W ≤ MAX_WINDOW: that replica's
        # clusters get a job in one window and none in the next, so the
        # global path's second-difference test cannot pass, and the
        # replica path needs contention off.  Refuse before paying for a
        # probe.
        wide = [d for d in workload.stages if d.is_analog and d.replication > MAX_WINDOW]
        if wide:
            stage = max(wide, key=lambda d: d.replication)
            return FastForwardRefusal(
                REFUSAL_WINDOW_TOO_LARGE,
                f"stage {stage.stage_id} round-robins {stage.replication} "
                f"analog replicas, more than the global certification cap "
                f"{MAX_WINDOW}; replica-symmetry certification requires "
                f"model_contention=False",
                (
                    f"refused before probing: stages "
                    f"{[d.stage_id for d in wide]} are replicated beyond "
                    f"MAX_WINDOW={MAX_WINDOW} under contention",
                ),
            )
    shared = _shared_replica_cluster(workload)
    if shared is not None:
        # Both paths assume each analog replica owns its clusters.  When
        # replicas share one, that cluster's job pattern repeats only over
        # a multiple of the replication, so a window can match three times
        # without being a period (and replicas are no longer symmetric).
        stage, cluster, replicas = shared
        return FastForwardRefusal(
            REFUSAL_REPLICAS_SHARE_CLUSTERS,
            f"stage {stage.stage_id} ({stage.name}): cluster {cluster} serves "
            f"analog replicas {replicas[0]} and {replicas[1]}; certification "
            f"requires every replica to own its clusters",
            (
                f"refused before probing: stage {stage.stage_id} replicas "
                f"share cluster {cluster}",
            ),
        )
    q_max = max(
        math.lcm(d.replication, d.digital_slots) for d in workload.stages
    )
    if model_contention or q_max <= MAX_WINDOW:
        extrapolated = _global_fast_forward(
            arch, workload, model_contention, buffer_depth, engine, attempts
        )
        if extrapolated is not None:
            return extrapolated
    if model_contention:
        if q_max > MAX_WINDOW:
            return FastForwardRefusal(
                REFUSAL_WINDOW_TOO_LARGE,
                f"effective replica window {q_max} exceeds the global "
                f"certification cap {MAX_WINDOW}; replica-symmetry "
                f"certification requires model_contention=False",
                tuple(attempts),
            )
        return FastForwardRefusal(
            REFUSAL_NON_PERIODIC,
            "no globally periodic window certified under contention",
            tuple(attempts),
        )
    return _replica_fast_forward(arch, workload, buffer_depth, attempts, q_max)
