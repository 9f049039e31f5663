"""Steady-state detection and exact fast-forward of periodic pipeline runs.

The pipelined dataflow of the paper's execution model is *periodic* after
warm-up: with constant per-job costs and self-timed flow control, the whole
event pattern — job completions, transfers, credit hand-offs — repeats with
some period of ``W`` jobs and ``D`` cycles.  Once the pattern repeats, the
remaining jobs are redundant simulation work: running ``W`` more jobs shifts
everything after the insertion point by exactly ``D`` cycles and adds
exactly one window's worth of activity and traffic.

:func:`fast_forward_simulate` exploits this *without approximating*, along
one certification path for both contention modes.  It runs the real
workload once and, at each final-stage completion, snapshots every
recorded quantity and looks for the smallest window ``W ≤ MAX_WINDOW``
whose per-window increments repeat over :data:`MIN_WINDOWS` consecutive
windows.  A run of ``n`` jobs and a run of ``n′`` jobs dispatch the same
events until some stage admits job ``n′`` or an external feed fetches it,
so once a window certifies the run lowers its admission limit
(``SystemSimulator.job_limit``) to the smallest ``n′ ≡ n (mod W)`` not yet
admitted and drains as the ``n′``-job run.  That run is certified again
in full and extended to ``n`` jobs: all stages share one anchor;
extrapolation shifts the drain tail and adds ``t×`` the certified window
increment to every counter.  Integer arithmetic throughout: the result is
bit-identical to the full run (asserted over synthetic pipelines and the
model zoo in ``tests/test_sim_fast_forward.py``).

A stage that round-robins over more than ``MAX_WINDOW`` analog replicas —
the paper's headline FINAL mapping replicates stages 33/9/3-way — repeats
over more jobs than any candidate window, so such a workload is refused
before anything is simulated.

Refusals decided from the workload alone return a typed
:class:`FastForwardRefusal` naming the reason (see
:data:`REFUSAL_REASONS`), and :func:`repro.sim.system.simulate` then runs
the full simulation.  A run in which no window certifies simply finishes:
it is the full run, returned with its ``non-periodic-probe`` refusal
attached, so ``fast_forward=True`` is always safe and costs a refused run
only its snapshots.  See ``docs/simulator.md`` for the correctness
argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..arch.config import ArchConfig
from .system import DEFAULT_ENGINE, SimulationResult, SystemSimulator
from .system import check_engine, check_run_options
from .workload import StageDescriptor, Workload

#: below this job count an attempt is refused up front: its snapshots
#: would cost more than the few jobs a cut could save.
MIN_JOBS = 48

#: largest candidate window (jobs) considered by the detector.
MAX_WINDOW = 12

#: consecutive identical windows required to certify steadiness.
MIN_WINDOWS = 3

# --------------------------------------------------------------------- #
# Typed refusals
# --------------------------------------------------------------------- #

#: some stage's replication exceeds :data:`MAX_WINDOW`.
REFUSAL_WINDOW_TOO_LARGE = "window-too-large"
#: arrival-driven workload: it never reaches a closed steady state.
REFUSAL_OPEN_WORKLOAD = "open-workload"
#: the run was watched, but no window certified before half of its jobs
#: were admitted; it finished in full.
REFUSAL_NON_PERIODIC = "non-periodic-probe"
#: the run has fewer than :data:`MIN_JOBS` jobs, too few to settle and cut.
REFUSAL_PROBE_TOO_SHORT = "probe-too-short"
#: one cluster serves two analog replicas of one stage, so a replica's
#: jobs no longer map one-to-one onto its clusters' activity.
REFUSAL_REPLICAS_SHARE_CLUSTERS = "replicas-share-clusters"

#: every reason a :class:`FastForwardRefusal` may carry.
REFUSAL_REASONS = (
    REFUSAL_WINDOW_TOO_LARGE,
    REFUSAL_OPEN_WORKLOAD,
    REFUSAL_NON_PERIODIC,
    REFUSAL_PROBE_TOO_SHORT,
    REFUSAL_REPLICAS_SHARE_CLUSTERS,
)


@dataclass(frozen=True)
class FastForwardRefusal:
    """A structured explanation of why fast-forward did not engage.

    ``reason`` is one of :data:`REFUSAL_REASONS`; ``detail`` is a free-form
    human-readable elaboration; ``probes`` records how the attempt ended —
    the rule that refused it before anything ran, or how far the run was
    watched — so coverage cliffs are visible instead of silently degrading
    to the full run.
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


class _AttemptSimulator(SystemSimulator):
    """Runs the full workload and fast-forwards it from inside the run.

    At every final-stage completion it snapshots the run (at identical
    event positions, so window-to-window comparisons are exact) and tries
    each candidate window.  The first window that certifies lowers the
    admission limit, and the run drains as the ``job_limit``-job run.
    Until then only the last ``2·MAX_WINDOW + 1`` activity snapshots are
    kept; once a stage has admitted more than half of the jobs, a cut
    would save less than half of the run, so watching stops and the run
    finishes in full.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._final_stage_id = self.workload.final_stage().stage_id
        self._watching = True
        #: the certified window, once the admission limit has been lowered.
        self.window: Optional[int] = None
        #: how the attempt ended: the certification or the give-up point.
        self.record = ""
        #: (now, hbm_bytes, noc_bytes, noc_byte_hops, local_bytes, n_transfers)
        self.counter_snaps: List[Tuple[int, ...]] = []
        #: ``counter_deltas[j]`` = ``counter_snaps[j + 1] - counter_snaps[j]``
        self.counter_deltas: List[Tuple[int, ...]] = []
        #: activity snapshots by completion index; ``None`` once dropped.
        self.cluster_snaps: List[Optional[_ClusterSnap]] = []
        self.stage_snaps: List[Optional[_StageSnap]] = []
        self.link_snaps: List[Optional[_LinkSnap]] = []

    def job_finished(self, stage_id: int, job_index: int) -> None:
        super().job_finished(stage_id, job_index)
        if stage_id != self._final_stage_id or not self._watching:
            return
        n = self.workload.n_jobs
        if self.window is None:
            admitted = self.admitted_jobs()
            if 2 * admitted > n:
                self._watching = False
                self.record = (
                    f"no window certified; stopped watching at final-stage "
                    f"completion {len(self.counter_snaps) + 1}, with "
                    f"{admitted} of {n} jobs admitted"
                )
                return
        # snapshot_activity is engine-aware: the table engine serves
        # clusters/links from its dense mid-run lanes, the object kernel
        # from the tracer — identical values either way.
        counters, clusters, stages, links = self.snapshot_activity()
        if self.counter_snaps:
            previous = self.counter_snaps[-1]
            self.counter_deltas.append(tuple(b - a for a, b in zip(previous, counters)))
        self.counter_snaps.append(counters)
        self.cluster_snaps.append(clusters)
        self.stage_snaps.append(stages)
        self.link_snaps.append(links)
        if self.window is not None:
            return  # draining: the final analysis may anchor anywhere
        stale = len(self.counter_snaps) - 2 * MAX_WINDOW - 2
        if stale >= 0:
            self.cluster_snaps[stale] = None
            self.stage_snaps[stale] = None
            self.link_snaps[stale] = None
        for window in range(1, MAX_WINDOW + 1):
            period = self._certifies(window)
            if period is not None:
                # the smallest n′ ≡ n (mod W) that nothing has reached yet
                self.job_limit = admitted + (n - admitted) % window
                self.window = window
                self.record = (
                    f"certified W={window} D={period} at final-stage "
                    f"completion {len(self.counter_snaps)}; admissions cut "
                    f"to {self.job_limit} of {n} jobs"
                )
                return

    def _certifies(self, window: int) -> Optional[int]:
        """The period ``D`` when ``window`` certifies at this completion.

        The counter deltas and every stage's completion-trace deltas must
        repeat with ``window`` over the last ``MIN_WINDOWS·window``
        completions, with one positive period, and every activity record
        must pass the second-difference test.
        """
        snaps = self.counter_snaps
        anchor = len(snaps) - 1
        span = (MIN_WINDOWS + 1) * window
        if anchor < span:
            return None
        period = snaps[anchor][0] - snaps[anchor - window][0]
        if period <= 0 or not _repeats(self.counter_deltas, window):
            return None
        for stage in self.workload.stages:
            trace = self.tracer.stage_completions.get(stage.stage_id, ())
            if (
                len(trace) <= span
                or trace[-1] - trace[-1 - window] != period
                or not _repeats(_deltas(trace[-span - 1 :]), window)
            ):
                return None
        if not _verify_window_increments(self, anchor, window, period):
            return None
        return period


def _repeats(deltas: List, window: int) -> bool:
    """Whether each of the last ``MIN_WINDOWS·window`` deltas equals the
    delta ``window`` positions earlier."""
    last = len(deltas) - 1
    return all(
        deltas[j] == deltas[j - window]
        for j in range(last, last - MIN_WINDOWS * window, -1)
    )


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


def _deltas(values: List[int]) -> List[int]:
    return [y - x for x, y in zip(values, values[1:])]


def _analyze(run: _AttemptSimulator, result: SimulationResult, window: int) -> Optional[_Plan]:
    """Certify periodicity of a drained run at one candidate window."""
    b = run.job_limit
    snaps = run.counter_snaps
    if len(snaps) != b:
        return None
    end = _rightmost_periodic_run(run.counter_deltas, window)
    if end is None:
        return None
    anchor = end + 1  # snapshot index whose preceding window is certified
    # the in-run certification anchors at or before this anchor, so its
    # ring still holds the activity two windows back; refuse otherwise
    if anchor - 2 * window < 0 or run.cluster_snaps[anchor - 2 * window] is None:
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
        trace_end = _rightmost_periodic_run(_deltas(trace), window)
        if trace_end is None:
            return None
        head = trace_end + 2  # trace[:head] ends inside the certified region
        if head - 1 - window < 0 or trace[head - 1] - trace[head - 1 - window] != period:
            return None
        stage_heads[stage_id] = head

    # per-cluster, per-stage and per-link activity must grow by the same
    # amount over the two certified windows before the anchor
    if not _verify_window_increments(run, anchor, window, period):
        return None
    return _Plan(
        window=window,
        period=period,
        anchor=anchor,
        counter_delta=counter_delta,
        stage_heads=stage_heads,
    )


def _verify_window_increments(
    run: _AttemptSimulator, anchor: int, window: int, period: int
) -> bool:
    """Check that every activity dict grew identically over the last two
    certified windows (the second-difference test)."""
    c0 = run.cluster_snaps[anchor - 2 * window]
    c1 = run.cluster_snaps[anchor - window]
    c2 = run.cluster_snaps[anchor]
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
    g0 = run.stage_snaps[anchor - 2 * window]
    g1 = run.stage_snaps[anchor - window]
    g2 = run.stage_snaps[anchor]
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
    l0 = run.link_snaps[anchor - 2 * window]
    l1 = run.link_snaps[anchor - window]
    l2 = run.link_snaps[anchor]
    for link in l2:
        if l2[link] - l1.get(link, 0) != l1.get(link, 0) - l0.get(link, 0):
            return False
    return True


def _extrapolate(
    run: _AttemptSimulator, result: SimulationResult, plan: _Plan
) -> SimulationResult:
    """Advance the drained run's result by ``t`` certified windows, in place."""
    b = run.job_limit
    n = run.workload.n_jobs
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
    c1 = run.cluster_snaps[plan.anchor - window]
    c2 = run.cluster_snaps[plan.anchor]
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
    g1 = run.stage_snaps[plan.anchor - window]
    g2 = run.stage_snaps[plan.anchor]
    for sid, rec in tracer.stages.items():
        s1, s2 = g1[sid], g2[sid]
        rec.jobs_completed += t * window
        rec.analog_busy += t * (s2[1] - s1[1])
        rec.digital_busy += t * (s2[2] - s1[2])
        rec.input_stall += t * (s2[3] - s1[3])
        rec.output_stall += t * (s2[4] - s1[4])
        rec.last_job_end += shift

    # per-link busy cycles
    l1 = run.link_snaps[plan.anchor - window]
    l2 = run.link_snaps[plan.anchor]
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

    final_trace = tracer.stage_completions[run._final_stage_id]
    result.makespan_cycles = tracer.makespan
    result.jobs_completed = {sid: n for sid in result.jobs_completed}
    result.final_stage_completions = tuple(final_trace[-2:])
    result.fast_forwarded = True
    return result


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

    An ``engine`` that is not one of the simulation engines, a
    ``model_contention`` that is not a bool or a ``buffer_depth`` that is
    not an integer of at least 1 raises :class:`ValueError` first, as in
    :class:`~repro.sim.system.SystemSimulator`.  Refusals that follow from
    the workload alone — an open workload, too few jobs, a stage with more
    than :data:`MAX_WINDOW` analog replicas, or a cluster shared by two
    analog replicas of one stage — return a typed
    :class:`FastForwardRefusal` before anything is simulated, in that
    order; the caller then simulates in full.  Otherwise the workload
    runs once, certifying a window on its own final-stage completions, and
    a :class:`SimulationResult` comes back: the bit-identical
    extrapolation when a window certified, or else the full run itself
    with a ``non-periodic-probe`` refusal attached.  Both contention modes
    take the same path.
    """
    check_engine(engine)
    check_run_options(model_contention, buffer_depth)
    if workload.arrival_cycles:
        return FastForwardRefusal(
            REFUSAL_OPEN_WORKLOAD,
            "open (arrival-driven) workloads never reach a closed steady "
            "state; simulate in full",
        )
    n = workload.n_jobs
    if n < MIN_JOBS:
        return FastForwardRefusal(
            REFUSAL_PROBE_TOO_SHORT,
            f"{n} jobs is below the {MIN_JOBS}-job floor: a probe plus "
            f"certification margin would not be shorter than the full run",
        )
    # A stage hands job j to analog replica j % R, so its pattern repeats
    # every R jobs.  When R > MAX_WINDOW, the replica that served a window's
    # last job gets its next job more than W jobs later for every candidate
    # W ≤ MAX_WINDOW: its clusters get a job in one window and none in the
    # next, and the second-difference test cannot pass.  Refuse before
    # simulating anything.
    wide = [d.stage_id for d in workload.stages if d.replication > MAX_WINDOW]
    if wide:
        stage = max(workload.stages, key=lambda d: d.replication)
        return FastForwardRefusal(
            REFUSAL_WINDOW_TOO_LARGE,
            f"stage {stage.stage_id} round-robins {stage.replication} analog "
            f"replicas, more than the certification cap {MAX_WINDOW}",
            (
                f"refused before probing: stages {wide} have effective "
                f"windows beyond MAX_WINDOW={MAX_WINDOW}",
            ),
        )
    shared = _shared_replica_cluster(workload)
    if shared is not None:
        # Certification assumes each analog replica owns its clusters.  When
        # replicas share one, that cluster's job pattern repeats only over
        # a multiple of the replication, so a window can match three times
        # without being a period.
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
    run = _AttemptSimulator(arch, workload, model_contention, buffer_depth, engine)
    result = run.run()
    records: Tuple[str, ...] = (run.record,)
    if run.window is not None:
        plan = _analyze(run, result, run.window)
        if plan is not None:
            return _extrapolate(run, result, plan)
        # A safety net: the run passed these tests at the cut, and is now
        # analysed again up to its own drain; no census run gets here.
        records += (
            f"drained run of {run.job_limit} jobs: W={run.window} no longer "
            f"certifies; simulated in full",
        )
        result = SystemSimulator(
            arch, workload, model_contention, buffer_depth, engine
        ).run()
    result.fast_forward_refusal = FastForwardRefusal(
        REFUSAL_NON_PERIODIC, "no periodic window certified", records
    )
    return result
