"""Equivalence tests for the steady-state fast-forward (repro.sim.steady_state).

The acceptance contract of the fast-forward is *bit-identical results*: for
every workload, ``simulate(fast_forward=True)`` must return exactly what the
full event-driven run returns — makespan, traffic counters, steady-state
cycles/job, per-cluster activity, per-link busy cycles and the full
per-stage completion traces — whether the fast-forward engaged (periodic
pipeline, extrapolated) or fell back (non-periodic, full run).  Engagement
itself is asserted for the workloads whose periodicity is known, so the
equivalence assertions cannot silently pass through fallback alone.
"""

import dataclasses
import random

import pytest

from repro.arch import ArchConfig
from repro.scenarios import (
    ArtifactCache,
    Scenario,
    graph_stage,
    mapping_stage,
    run_scenario,
    workload_stage,
)
from repro.sim import (
    DataFlow,
    StageCost,
    StageDescriptor,
    Workload,
    result_mismatches,
    simulate,
)
from repro.sim import steady_state
from repro.sim.steady_state import (
    MAX_WINDOW,
    MIN_JOBS,
    REFUSAL_NON_PERIODIC,
    REFUSAL_OPEN_WORKLOAD,
    REFUSAL_PROBE_TOO_SHORT,
    REFUSAL_REPLICAS_SHARE_CLUSTERS,
    REFUSAL_WINDOW_TOO_LARGE,
    FastForwardRefusal,
    fast_forward_simulate,
)
from repro.sim.system import SIMULATION_ENGINES, SimulationResult, SystemSimulator


# --------------------------------------------------------------------------- #
# Workload builders
# --------------------------------------------------------------------------- #
def _chain(
    n_stages=4,
    n_jobs=96,
    analog=400,
    bytes_per_job=2048,
    replication=1,
    storage=False,
    storage_cluster=60,
):
    """A synthetic pipeline: equal-cost analog stages, optional residual."""
    stages = []
    for i in range(n_stages):
        inputs = (
            (DataFlow("hbm", bytes_per_job, label="in"),)
            if i == 0
            else (DataFlow("stage", bytes_per_job, stage_id=i - 1),)
        )
        outputs = (
            (DataFlow("hbm", bytes_per_job, label="out"),)
            if i == n_stages - 1
            else (DataFlow("stage", bytes_per_job, stage_id=i + 1),)
        )
        if storage and i == 0:
            outputs = outputs + (
                DataFlow("storage", bytes_per_job, storage_cluster=storage_cluster,
                         label="res", buffer_depth=4),
            )
        if storage and i == n_stages - 1:
            inputs = inputs + (
                DataFlow("storage", bytes_per_job, storage_cluster=storage_cluster,
                         label="res", buffer_depth=4),
            )
        replicas = tuple((i * replication + r,) for r in range(replication))
        stages.append(
            StageDescriptor(
                stage_id=i,
                name=f"s{i}",
                analog_replicas=replicas,
                cost=StageCost(analog_cycles_per_job=analog, analog_macs_per_job=100),
                inputs=inputs,
                outputs=outputs,
            )
        )
    return Workload(
        "chain",
        stages,
        n_jobs=n_jobs,
        batch_size=max(1, n_jobs // 4),
        tiles_per_image=4,
        total_macs=100 * n_jobs * n_stages,
    )


def _stage(i, replicas, analog, digital, inputs, outputs):
    """One stage with explicit replicas, costs and flows."""
    return StageDescriptor(
        stage_id=i,
        name=f"s{i}",
        analog_replicas=replicas,
        cost=StageCost(
            analog_cycles_per_job=analog,
            digital_cycles_per_job=digital,
            analog_macs_per_job=100,
        ),
        inputs=inputs,
        outputs=outputs,
    )


def _pipeline(stages, n_jobs):
    """A closed workload of ``n_jobs`` single-tile jobs over ``stages``."""
    return Workload(
        "pipeline",
        stages,
        n_jobs=n_jobs,
        batch_size=n_jobs,
        tiles_per_image=1,
        total_macs=100 * n_jobs * len(stages),
    )


def _chunked_chain(n_chunks, residual=None, n_jobs=24):
    """A 3-stage chain whose stage flows move as ``n_chunks`` chunks per job.

    ``residual`` adds a relay from the first stage to the last, through a
    storage cluster's L1 (``"storage"``) or the HBM (``"hbm"``), chunked
    the same way; the HBM relay's read enters the NoC with no DMA.
    """
    res = None
    if residual is not None:
        res = DataFlow(residual, 2048, label="res", buffer_depth=4,
                       storage_cluster=40 if residual == "storage" else None,
                       transfers_per_job=n_chunks)
    stages = []
    for i in range(3):
        inputs = (
            (DataFlow("hbm", 2048, label="in"),)
            if i == 0
            else (DataFlow("stage", 2048, stage_id=i - 1),)
        )
        outputs = (
            (DataFlow("hbm", 2048, label="out"),)
            if i == 2
            else (DataFlow("stage", 2048, stage_id=i + 1, transfers_per_job=n_chunks),)
        )
        if res is not None and i == 0:
            outputs += (res,)
        if res is not None and i == 2:
            inputs += (res,)
        stages.append(_stage(i, ((8 * i,), (8 * i + 3,)), 400, 0, inputs, outputs))
    return _pipeline(stages, n_jobs)


def _fold_replicas(workload: Workload) -> Workload:
    """Fold every stage's replicas onto two clusters (``(2*i + r % 2,)``)."""
    stages = tuple(
        dataclasses.replace(
            stage,
            analog_replicas=tuple(
                (2 * i + r % 2,) for r in range(len(stage.analog_replicas))
            ),
        )
        for i, stage in enumerate(workload.stages)
    )
    return dataclasses.replace(workload, stages=stages)


def _zoo_workload(
    model, input_shape, level, batch_size, n_clusters, num_classes=None, crossbar=256
):
    scenario = Scenario(
        model=model,
        input_shape=input_shape,
        num_classes=num_classes,
        batch_size=batch_size,
        level=level,
        n_clusters=n_clusters,
        crossbar_size=crossbar,
    )
    graph = graph_stage(scenario)
    arch = scenario.build_arch()
    mapping = mapping_stage(graph, arch, scenario.batch_size, scenario.level_enum)
    return arch, workload_stage(mapping)


# --------------------------------------------------------------------------- #
# Bit-identity assertion
# --------------------------------------------------------------------------- #
def assert_identical(full: SimulationResult, ff: SimulationResult) -> None:
    """Every observable of the two results must match bit for bit."""
    assert full.makespan_cycles == ff.makespan_cycles
    assert full.jobs_completed == ff.jobs_completed
    assert full.final_stage_completions == ff.final_stage_completions
    assert full.steady_state_cycles_per_job() == ff.steady_state_cycles_per_job()
    a, b = full.tracer, ff.tracer
    assert (a.hbm_bytes, a.noc_bytes, a.noc_byte_hops, a.local_bytes, a.n_transfers) == (
        b.hbm_bytes, b.noc_bytes, b.noc_byte_hops, b.local_bytes, b.n_transfers
    )
    assert a.makespan == b.makespan
    assert sorted(a.clusters) == sorted(b.clusters)
    for cid in a.clusters:
        x, y = a.clusters[cid], b.clusters[cid]
        assert (x.analog, x.digital, x.communication, x.synchronization,
                x.jobs, x.last_busy_cycle) == (
            y.analog, y.digital, y.communication, y.synchronization,
            y.jobs, y.last_busy_cycle
        ), f"cluster {cid}"
    for sid in a.stages:
        x, y = a.stages[sid], b.stages[sid]
        assert (x.jobs_completed, x.analog_busy, x.digital_busy, x.input_stall,
                x.output_stall, x.first_job_start, x.last_job_end) == (
            y.jobs_completed, y.analog_busy, y.digital_busy, y.input_stall,
            y.output_stall, y.first_job_start, y.last_job_end
        ), f"stage {sid}"
    assert dict(a.link_busy) == dict(b.link_busy)
    assert {k: tuple(v) for k, v in a.stage_completions.items()} == {
        k: tuple(v) for k, v in b.stage_completions.items()
    }
    # the record layer: identical except the two provenance fields — the
    # engagement flag, and the typed refusal reason the fast-forward arm
    # carries when it fell back to the full run
    full_record = dataclasses.asdict(full.record())
    ff_record = dataclasses.asdict(ff.record())
    assert full_record.pop("fast_forwarded") is False
    ff_record.pop("fast_forwarded")
    assert full_record.pop("fast_forward_refusal") is None
    ff_record.pop("fast_forward_refusal")
    assert full_record == ff_record


# --------------------------------------------------------------------------- #
# Synthetic pipelines: engagement across windows, alignment and fallbacks
# --------------------------------------------------------------------------- #
ARCH64 = ArchConfig.scaled(64)

SYNTHETIC = [
    # (name, workload, must_engage)
    ("plain", _chain(), True),
    ("odd-job-count", _chain(n_jobs=97), True),
    ("replicated-w2", _chain(n_jobs=96, replication=2), True),
    ("replicated-w3", _chain(n_jobs=90, replication=3), True),
    ("residual-storage", _chain(n_jobs=96, storage=True), True),
    # window 5: the cut must land on a job count ≡ 120 (mod 5)
    ("replicated-w5-realign", _chain(n_jobs=120, replication=5), True),
    # 16-chunk bursts and a storage relay: under contention the run folds
    # most bursts' landings into one row each, and its mid-run snapshots
    # still certify
    ("chunked-storage", _chunked_chain(16, residual="storage", n_jobs=96), True),
    # too few jobs to settle and cut: must fall back untouched
    ("below-min-jobs", _chain(n_jobs=MIN_JOBS - 1), False),
]

#: SYNTHETIC rows that never settle without contention: their first stages
#: complete a job every 448 cycles while the final stage alternates 448
#: and 462, so the upstream stages run ahead for the whole run and no
#: window certifies.
UNSETTLED_WITHOUT_CONTENTION = {"plain", "odd-job-count", "residual-storage"}


class TestSyntheticPipelines:
    @pytest.mark.parametrize(
        "name,workload,must_engage",
        SYNTHETIC,
        ids=[case[0] for case in SYNTHETIC],
    )
    def test_fast_forward_is_bit_identical(self, name, workload, must_engage):
        full = simulate(ARCH64, workload)
        ff = simulate(ARCH64, workload, fast_forward=True)
        assert not full.fast_forwarded
        if must_engage:
            assert ff.fast_forwarded, f"{name}: fast-forward failed to engage"
        assert_identical(full, ff)

    @pytest.mark.parametrize(
        "name,workload,must_engage",
        SYNTHETIC,
        ids=[case[0] for case in SYNTHETIC],
    )
    def test_fast_forward_without_contention_is_bit_identical(
        self, name, workload, must_engage
    ):
        """Contention-off runs take the same certify-and-cut path."""
        full = simulate(ARCH64, workload, model_contention=False)
        ff = simulate(ARCH64, workload, model_contention=False, fast_forward=True)
        if name in UNSETTLED_WITHOUT_CONTENTION:
            assert ff.fast_forward_refusal.reason == REFUSAL_NON_PERIODIC
        elif must_engage:
            assert ff.fast_forwarded, f"{name}: fast-forward failed to engage"
        assert_identical(full, ff)

    def test_fast_forward_false_never_fast_forwards(self):
        result = simulate(ARCH64, _chain())
        assert not result.fast_forwarded

    def test_direct_api_refuses_below_min_jobs(self):
        refusal = fast_forward_simulate(ARCH64, _chain(n_jobs=8))
        assert isinstance(refusal, FastForwardRefusal)
        assert refusal.reason == REFUSAL_PROBE_TOO_SHORT

    def test_traces_cover_every_job_of_every_stage(self):
        workload = _chain(n_jobs=96)
        ff = simulate(ARCH64, workload, fast_forward=True)
        assert ff.fast_forwarded
        traces = ff.stage_completions
        assert set(traces) == {stage.stage_id for stage in workload.stages}
        for trace in traces.values():
            assert len(trace) == workload.n_jobs
            assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_steady_state_metric_matches_trace_tail(self):
        workload = _chain(n_jobs=96)
        ff = simulate(ARCH64, workload, fast_forward=True)
        final_trace = ff.completion_trace(workload.final_stage().stage_id)
        assert ff.final_stage_completions == final_trace[-2:]
        assert ff.steady_state_cycles_per_job() == float(
            final_trace[-1] - final_trace[-2]
        )


@pytest.fixture
def attempt_events(monkeypatch):
    """Events the fast-forward's one attempted run dispatches, if it ran."""
    events = []

    class RecordingAttempt(steady_state._AttemptSimulator):
        def run(self):
            result = super().run()
            events.append(self.engine.events_processed)
            return result

    monkeypatch.setattr(steady_state, "_AttemptSimulator", RecordingAttempt)
    return events


@pytest.fixture
def no_attempt(monkeypatch):
    """Fails the test if the fast-forward simulates anything."""

    def refuse(*args, **kwargs):
        raise AssertionError("an attempt ran")

    monkeypatch.setattr(steady_state, "_AttemptSimulator", refuse)


# --------------------------------------------------------------------------- #
# Model zoo: real lowered mappings
# --------------------------------------------------------------------------- #
ZOO = [
    # (name, model, input_shape, level, batch, clusters, classes, crossbar,
    #  must_engage)
    # bottleneck-paced naive mappings are periodic from the first job
    ("resnet18-naive", "resnet18", (3, 64, 64), "naive", 64, 256, None, 256, True),
    ("linear-cnn-naive", "linear_cnn", (3, 32, 32), "naive", 64, 32, 10, 128, True),
    # the final mapping's replica round-robin never settles into a short
    # window: certification must refuse and fall back to the full run
    ("tiny-final-fallback", "tiny_cnn", (3, 32, 32), "final", 64, 16, 10, 128, False),
    # the paper's input size: 256 jobs, cut to 10 after 5 completions
    ("resnet18-naive-256px", "resnet18", (3, 256, 256), "naive", 64, 256, None, 256, True),
]

#: ZOO rows whose fast-forward may dispatch at most this share of the full
#: run's events on the same engine.
MAX_PROBE_SHARE = {"resnet18-naive-256px": 1 / 5}


class TestModelZoo:
    @pytest.mark.parametrize("engine", SIMULATION_ENGINES)
    @pytest.mark.parametrize(
        "name,model,shape,level,batch,clusters,classes,crossbar,must_engage",
        ZOO,
        ids=[case[0] for case in ZOO],
    )
    def test_fast_forward_matches_full_run(
        self, name, model, shape, level, batch, clusters, classes, crossbar,
        must_engage, engine, attempt_events,
    ):
        arch, workload = _zoo_workload(
            model, shape, level, batch, clusters, classes, crossbar
        )
        full_run = SystemSimulator(arch, workload, engine=engine)
        full = full_run.run()
        ff = simulate(arch, workload, fast_forward=True, engine=engine)
        if must_engage:
            assert ff.fast_forwarded, f"{name}: fast-forward failed to engage"
        assert_identical(full, ff)
        if name in MAX_PROBE_SHARE:
            assert attempt_events
            assert sum(attempt_events) <= (
                MAX_PROBE_SHARE[name] * full_run.engine.events_processed
            )

    @pytest.mark.parametrize("engine", SIMULATION_ENGINES)
    @pytest.mark.parametrize(
        "name,model,shape,level,batch,clusters,classes,crossbar,must_engage",
        ZOO,
        ids=[case[0] for case in ZOO],
    )
    def test_fast_forward_without_contention_matches_full_run(
        self, name, model, shape, level, batch, clusters, classes, crossbar,
        must_engage, engine, attempt_events,
    ):
        """Without contention the same in-run certification engages each
        naive mapping, at the paper's input size included."""
        arch, workload = _zoo_workload(
            model, shape, level, batch, clusters, classes, crossbar
        )
        full_run = SystemSimulator(arch, workload, model_contention=False, engine=engine)
        full = full_run.run()
        ff = simulate(
            arch, workload, model_contention=False, fast_forward=True, engine=engine
        )
        if must_engage:
            assert ff.fast_forwarded, f"{name}: fast-forward failed to engage"
        assert_identical(full, ff)
        if name in MAX_PROBE_SHARE:
            assert attempt_events
            assert sum(attempt_events) <= (
                MAX_PROBE_SHARE[name] * full_run.engine.events_processed
            )


# --------------------------------------------------------------------------- #
# The admission limit: a run cut mid-way drains as the shorter run
# --------------------------------------------------------------------------- #
def _no_compute_final(n_jobs=96):
    """A 3-stage chain plus a final stage with no inputs, compute or outputs.

    That stage admits and finishes every job inside one ``_try_start``
    loop at cycle 0, so a limit lowered at one of its completions drops
    in the middle of that loop.
    """
    workload = _chain(n_stages=3, n_jobs=n_jobs)
    constant = StageDescriptor(stage_id=3, name="constant", digital_clusters=(62,))
    return dataclasses.replace(workload, stages=workload.stages + [constant])


#: SYNTHETIC rows, two ZOO rows and the no-compute final stage.
LIMIT_CASES = [case[0] for case in SYNTHETIC] + [
    "resnet18-naive",
    "linear-cnn-naive",
    "no-compute-final",
]


def _limit_case(name):
    for case in SYNTHETIC:
        if case[0] == name:
            return ARCH64, case[1]
    for case in ZOO:
        if case[0] == name:
            return _zoo_workload(*case[1:8])
    return ARCH64, _no_compute_final()


class _CutSimulator(SystemSimulator):
    """Lowers ``job_limit`` to the smallest admissible job count at the
    ``cut_at``-th final-stage completion."""

    def __init__(self, *args, cut_at, **kwargs):
        super().__init__(*args, **kwargs)
        self._final_stage_id = self.workload.final_stage().stage_id
        self._cut_at = cut_at
        self._completions = 0

    def job_finished(self, stage_id, job_index):
        super().job_finished(stage_id, job_index)
        if stage_id == self._final_stage_id:
            self._completions += 1
            if self._completions == self._cut_at:
                self.job_limit = self.admitted_jobs()


class TestAdmissionLimit:
    """Lowering the admission limit mid-run turns the run, event for event,
    into the run of the lowered job count: the fast-forward's cut rests on
    this."""

    @pytest.mark.parametrize("contention", [True, False], ids=["cont", "nocont"])
    @pytest.mark.parametrize("engine", SIMULATION_ENGINES)
    @pytest.mark.parametrize("name", LIMIT_CASES)
    def test_lowered_limit_drains_as_the_shorter_run(self, name, engine, contention):
        arch, workload = _limit_case(name)
        for cut_at in (5, 13):
            cut = _CutSimulator(arch, workload, contention, engine=engine, cut_at=cut_at)
            result = cut.run()
            n_cut = cut.job_limit
            assert cut_at <= n_cut < workload.n_jobs
            shorter = SystemSimulator(
                arch, workload.with_n_jobs(n_cut), contention, engine=engine
            )
            expected = shorter.run()
            assert cut.engine.events_processed == shorter.engine.events_processed
            assert result_mismatches(expected, result) == [], (name, cut_at)


# --------------------------------------------------------------------------- #
# Coverage: outcome, exactness and cost on real mappings
# --------------------------------------------------------------------------- #
ENGAGED = "engaged"
BEFORE_ATTEMPT = "refused before attempting"
AFTER_ATTEMPT = "refused after attempting"

#: (model, input shape, level) at batch 64 on the paper's 512 clusters ->
#: the fast-forward outcome and refusal reason, the same with contention
#: on and off.
COVERAGE = {
    ("resnet34", (3, 64, 64), "replicated"): (AFTER_ATTEMPT, REFUSAL_NON_PERIODIC),
    ("resnet34", (3, 64, 64), "final"): (AFTER_ATTEMPT, REFUSAL_NON_PERIODIC),
    ("mobilenet_v2", (3, 64, 64), "naive"): (AFTER_ATTEMPT, REFUSAL_NON_PERIODIC),
    ("resnet18", (3, 64, 64), "naive"): (ENGAGED, None),
    ("resnet18", (3, 64, 64), "final"): (BEFORE_ATTEMPT, REFUSAL_WINDOW_TOO_LARGE),
    ("tiny_cnn", (3, 32, 32), "naive"): (AFTER_ATTEMPT, REFUSAL_NON_PERIODIC),
    ("linear_cnn", (3, 32, 32), "naive"): (ENGAGED, None),
}


class TestCoverage:
    """A fast-forward never costs more events than the full run.

    On each point, in both contention modes, the outcome matches the
    table and the result matches the full run.  An engaged run dispatches
    at most half of the full run's events; a run refused after attempting
    is the full run, so it dispatches exactly the full run's events.
    """

    @pytest.mark.parametrize("contention", [True, False], ids=["cont", "nocont"])
    @pytest.mark.parametrize(
        "point", list(COVERAGE), ids=lambda p: f"{p[0]}-{p[1][1]}px-{p[2]}"
    )
    def test_outcome_exactness_and_cost(self, point, contention, attempt_events):
        model, shape, level = point
        arch, workload = _zoo_workload(model, shape, level, 64, 512)
        full_run = SystemSimulator(arch, workload, model_contention=contention)
        full = full_run.run()
        ff = simulate(arch, workload, model_contention=contention, fast_forward=True)
        refusal = ff.fast_forward_refusal
        full_events = full_run.engine.events_processed
        if ff.fast_forwarded:
            outcome = (ENGAGED, None)
            assert 2 * sum(attempt_events) <= full_events
        elif attempt_events:
            outcome = (AFTER_ATTEMPT, refusal.reason)
            assert attempt_events == [full_events]
        else:
            outcome = (BEFORE_ATTEMPT, refusal.reason)
        assert outcome == COVERAGE[point]
        assert result_mismatches(full, ff, ignore_provenance=True) == []


# --------------------------------------------------------------------------- #
# The paper's headline workload: FINAL ResNet-18, 256-job macro
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def final_macro():
    """The FINAL-mapping ResNet-18 macro (batch 64 -> 256 jobs, 512 clusters)."""
    return _zoo_workload("resnet18", (3, 256, 256), "final", 64, 512)


class TestFinalMapping:
    """The paper's headline mapping refuses before probing, in both modes.

    The FINAL mapping's 33/9/3-way stage replications exceed the
    certification cap, so no window can certify: the refusal is typed and
    the full run it falls back to is asserted bit-identical on every
    registered engine.
    """

    @pytest.mark.parametrize("engine", SIMULATION_ENGINES)
    def test_refuses_before_probing_and_is_bit_identical(
        self, final_macro, engine, no_attempt
    ):
        arch, workload = final_macro
        full = simulate(arch, workload, engine=engine, model_contention=False)
        ff = simulate(
            arch,
            workload,
            engine=engine,
            model_contention=False,
            fast_forward=True,
        )
        refusal = ff.fast_forward_refusal
        assert refusal.reason == REFUSAL_WINDOW_TOO_LARGE
        assert "refused before probing" in refusal.probes[0]
        assert not result_mismatches(full, ff, ignore_provenance=True)

    def test_contention_refusal_is_typed(self, final_macro):
        arch, workload = final_macro
        ff = simulate(arch, workload, fast_forward=True)  # contention on
        assert not ff.fast_forwarded
        refusal = ff.fast_forward_refusal
        assert refusal is not None
        assert refusal.reason == REFUSAL_WINDOW_TOO_LARGE

    def test_contention_refusal_runs_no_probe(self, final_macro, no_attempt):
        """The 33-way stages exceed MAX_WINDOW, so under contention the
        refusal is decided from the workload alone, before any run."""
        arch, workload = final_macro
        refusal = fast_forward_simulate(arch, workload)  # contention on
        assert isinstance(refusal, FastForwardRefusal)
        assert refusal.reason == REFUSAL_WINDOW_TOO_LARGE
        assert len(refusal.probes) == 1
        assert "refused before probing" in refusal.probes[0]


# --------------------------------------------------------------------------- #
# Refusal taxonomy and escalation records
# --------------------------------------------------------------------------- #
class TestRefusalTaxonomy:
    def test_below_min_jobs_is_recorded_on_the_result(self):
        ff = simulate(ARCH64, _chain(n_jobs=MIN_JOBS - 1), fast_forward=True)
        assert not ff.fast_forwarded
        refusal = ff.fast_forward_refusal
        assert refusal is not None
        assert refusal.reason == REFUSAL_PROBE_TOO_SHORT

    def test_open_workload_refuses_with_typed_reason(self):
        workload = _chain(n_jobs=96)
        arrivals = tuple(range(0, workload.n_jobs * 10, 10))
        open_workload = dataclasses.replace(workload, arrival_cycles=arrivals)
        refusal = fast_forward_simulate(ARCH64, open_workload)
        assert isinstance(refusal, FastForwardRefusal)
        assert refusal.reason == REFUSAL_OPEN_WORKLOAD

    def test_wide_replicas_under_contention_refuse_before_probing(self):
        # replication 13 exceeds MAX_WINDOW: no window can certify, so the
        # refusal is typed and traceable without simulating anything.
        workload = _chain(n_jobs=96, replication=13)
        refusal = fast_forward_simulate(ARCH64, workload, model_contention=True)
        assert isinstance(refusal, FastForwardRefusal)
        assert refusal.reason == REFUSAL_WINDOW_TOO_LARGE
        assert "13 analog replicas" in refusal.detail
        assert refusal.probes == (
            f"refused before probing: stages [0, 1, 2, 3] have effective "
            f"windows beyond MAX_WINDOW={MAX_WINDOW}",
        )

    def test_wide_replicas_sharing_clusters_refuse_before_probing(self):
        # 13 replicas folded onto 2 clusters per stage: no cluster belongs
        # to one replica alone, so the argument behind the rule does not
        # apply, yet the rule still refuses.  That is conservative, never
        # wrong — and here it matters: certification would accept a
        # window that is not a true period and extrapolate wrong
        # per-cluster job counts.
        workload = _fold_replicas(_chain(n_jobs=96, replication=13))
        ff = simulate(ARCH64, workload, fast_forward=True)
        assert ff.fast_forward_refusal.reason == REFUSAL_WINDOW_TOO_LARGE
        assert "refused before probing" in ff.fast_forward_refusal.probes[0]
        assert_identical(simulate(ARCH64, workload), ff)

    @pytest.mark.parametrize("contention", [True, False])
    def test_replicas_sharing_clusters_refuse_before_probing(
        self, contention, no_attempt
    ):
        # 11 replicas (within MAX_WINDOW) folded onto 2 clusters per stage:
        # cluster 0's job pattern repeats only every 22 jobs, yet three
        # matching 11-job windows used to certify, and the extrapolation
        # gave cluster 0 49 analog jobs against the full run's 52.
        workload = _fold_replicas(_chain(n_jobs=96, replication=11))
        assert max(d.replication for d in workload.stages) <= MAX_WINDOW
        full = simulate(ARCH64, workload, model_contention=contention)
        ff = simulate(ARCH64, workload, model_contention=contention, fast_forward=True)
        refusal = ff.fast_forward_refusal
        assert refusal.reason == REFUSAL_REPLICAS_SHARE_CLUSTERS
        assert "stage 0 (s0): cluster 0 serves analog replicas 0 and 2" in refusal.detail
        assert refusal.probes == (
            "refused before probing: stage 0 replicas share cluster 0",
        )
        assert not result_mismatches(full, ff, ignore_provenance=True)

    @pytest.mark.parametrize("batch", [16, 64])
    @pytest.mark.parametrize("level", ["replicated", "final"])
    @pytest.mark.parametrize(
        "model", ["tiny_cnn", "linear_cnn", "mobilenet_v2", "residual_chain", "resnet18"]
    )
    def test_up_front_refusal_agrees_with_the_in_run_attempt(self, model, level, batch):
        """Every zoo point the rule refuses would have refused after
        attempting too; below MIN_JOBS the cheaper probe-too-short refusal
        comes first."""
        arch, workload = _zoo_workload(model, (3, 64, 64), level, batch, 512)
        assert max(d.replication for d in workload.stages) > MAX_WINDOW
        # mapped workloads give every replica its own clusters
        assert steady_state._shared_replica_cluster(workload) is None
        refusal = fast_forward_simulate(arch, workload)  # contention on
        assert isinstance(refusal, FastForwardRefusal)
        if workload.n_jobs < MIN_JOBS:
            assert refusal.reason == REFUSAL_PROBE_TOO_SHORT
            return
        assert refusal.reason == REFUSAL_WINDOW_TOO_LARGE
        assert "refused before probing" in refusal.probes[0]
        attempt = steady_state._AttemptSimulator(arch, workload, True, 2, "table")
        attempt.run()
        assert attempt.window is None

    @pytest.mark.parametrize("contention", [True, False])
    def test_wide_lcm_window_refuses_before_probing(self, contention, no_attempt):
        # replication 4 with 5 digital slots: each shape fits MAX_WINDOW
        # but their lcm (20) does not.  The rule refuses on the lcm, in
        # both contention modes, without simulating anything.
        workload = _chain(n_jobs=96, replication=4)
        stages = list(workload.stages)
        stages[1] = dataclasses.replace(
            stages[1],
            digital_clusters=(50, 51, 52, 53, 54),
            digital_slots=5,
            cost=StageCost(
                analog_cycles_per_job=400,
                digital_cycles_per_job=90,
                analog_macs_per_job=100,
            ),
        )
        workload = dataclasses.replace(workload, stages=tuple(stages))

        refusal = fast_forward_simulate(ARCH64, workload, model_contention=contention)
        assert isinstance(refusal, FastForwardRefusal)
        assert refusal.reason == REFUSAL_WINDOW_TOO_LARGE
        assert "an effective window of 20 jobs" in refusal.detail
        assert refusal.probes == (
            f"refused before probing: stages [1] have effective windows "
            f"beyond MAX_WINDOW={MAX_WINDOW}",
        )

    def test_refusal_payload_round_trip(self):
        refusal = FastForwardRefusal(
            REFUSAL_WINDOW_TOO_LARGE, "detail", ("probe b=24",)
        )
        restored = FastForwardRefusal.from_payload(refusal.to_payload())
        assert restored == refusal
        with pytest.raises(ValueError):
            FastForwardRefusal("not-a-reason", "")


# --------------------------------------------------------------------------- #
# Replica-permutation invariance
# --------------------------------------------------------------------------- #
def _permute_replicas(workload: Workload, seed: int) -> Workload:
    """Shuffle the replica order of every stage with a seeded RNG."""
    rng = random.Random(seed)
    stages = []
    for stage in workload.stages:
        replicas = list(stage.analog_replicas)
        rng.shuffle(replicas)
        stages.append(
            dataclasses.replace(stage, analog_replicas=tuple(replicas))
        )
    return dataclasses.replace(workload, stages=tuple(stages))


class TestReplicaPermutationInvariance:
    """Permuting replica ids must not break cross-engine bit-identity.

    Both engines round-robin a stage's jobs over its replicas in tuple
    order, and nothing else may depend on which cluster ids a replica
    holds.  A seeded shuffle of each stage's replica tuple must leave
    ``result_mismatches`` empty across both engines, and the fast-forward
    exact.
    """

    @pytest.mark.parametrize("seed", [0, 7, 2023])
    def test_engines_agree_on_permuted_replicas(self, seed):
        workload = _permute_replicas(_chain(n_jobs=96, replication=3), seed)
        results = {
            engine: simulate(ARCH64, workload, engine=engine)
            for engine in SIMULATION_ENGINES
        }
        reference = results[SIMULATION_ENGINES[0]]
        for engine in SIMULATION_ENGINES[1:]:
            assert not result_mismatches(reference, results[engine]), engine

    @pytest.mark.parametrize("seed", [0, 7])
    def test_fast_forward_stays_exact_on_permuted_replicas(self, seed):
        workload = _permute_replicas(_chain(n_jobs=96, replication=3), seed)
        full = simulate(ARCH64, workload)
        ff = simulate(ARCH64, workload, fast_forward=True)
        assert ff.fast_forwarded
        assert not result_mismatches(full, ff, ignore_provenance=True)


# --------------------------------------------------------------------------- #
# Serialisation and scenario threading
# --------------------------------------------------------------------------- #
class TestIntegration:
    def test_payload_round_trip_keeps_provenance_and_traces(self):
        workload = _chain(n_jobs=96)
        ff = simulate(ARCH64, workload, fast_forward=True)
        assert ff.fast_forwarded
        restored = SimulationResult.from_payload(ff.to_payload(), ARCH64, workload)
        assert restored.fast_forwarded
        assert restored.record() == ff.record()
        assert restored.stage_completions == ff.stage_completions

    def test_scenario_fast_forward_threads_to_record(self):
        scenario = Scenario(
            model="linear_cnn",
            input_shape=(3, 32, 32),
            num_classes=10,
            batch_size=64,
            level="naive",
            n_clusters=32,
            crossbar_size=128,
            fast_forward=True,
        )
        outcome = run_scenario(scenario, ArtifactCache())
        assert outcome.simulation.fast_forwarded
        baseline = run_scenario(scenario.replace(fast_forward=False), ArtifactCache())
        assert not baseline.simulation.fast_forwarded
        ff_dict = dataclasses.asdict(outcome.simulation)
        base_dict = dataclasses.asdict(baseline.simulation)
        ff_dict.pop("fast_forwarded")
        base_dict.pop("fast_forwarded")
        assert ff_dict == base_dict
        assert outcome.metrics == baseline.metrics

    def test_fast_forward_keys_separately_in_the_cache(self):
        from repro.scenarios.fingerprint import simulation_key

        base = simulation_key("a", "w", True, 2)
        assert simulation_key("a", "w", True, 2, fast_forward=True) != base
        assert simulation_key("a", "w", True, 2, fast_forward=False) == base
