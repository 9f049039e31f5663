"""Bit-identity harness: compiled table lane vs object kernel.

The table lane (``engine="table"``, the default) is a pure performance
mechanism — opcode rows dispatched through a jump table over flat state
vectors, link busy-until vectors, fused chunk fan-out.  Its acceptance
contract is *bit-identical results*: for every workload, every contention
mode and every buffer depth, ``simulate(engine="table")`` must return
exactly what ``simulate(engine="python")`` returns, down to the per-stage
completion traces and per-link busy counters.  The comparison
runs through :func:`repro.sim.result_mismatches`, which enumerates every
observable of a :class:`~repro.sim.SimulationResult` and reports the first
divergence by name.

Three layers of coverage:

* the synthetic pipelines and model-zoo mappings shared with the
  fast-forward suite (known shapes: replication, residual storage, HBM
  endpoints, periodic and non-periodic pipelines), the paper's headline
  point, chunked flows whose bursts enter the NoC as one row or split
  across busy DMA channels, and reproducers of same-cycle ties under
  contention, with draws of ``tools/tie_sweep.py`` that once diverged and
  draws of its digital generator (digital groups sharing clusters,
  intra-stage partial-sum flows), and external inputs in shapes no
  generator draws;
* a seeded randomized property sweep over small pipelines — stage counts,
  costs, byte sizes, replication widths, storage flows, buffer depths and
  contention drawn from a fixed-seed RNG, so a kernel divergence on an
  unanticipated shape shows up here first (and reproducibly);
* the fast-forward path on top of both kernels, whose watched runs feed
  the certifier mid-run snapshots from each kernel's own state, on the
  known shapes and on seeded random pipelines long enough to attempt in
  both contention modes, and those mid-run snapshots themselves,
  compared across the kernels at every final-stage completion.
"""

import importlib.util
import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import NETWORK_OUTPUT_LABEL
from repro.dnn.layers import ReLU
from repro.scenarios import Scenario, graph_stage, mapping_stage, workload_stage
from repro.scenarios.fingerprint import simulation_key
from repro.sim import (
    SIMULATION_ENGINES,
    BurstyArrivals,
    DataFlow,
    DeterministicArrivals,
    PoissonArrivals,
    StageCost,
    StageDescriptor,
    SystemSimulator,
    Workload,
    assert_results_identical,
    result_mismatches,
    simulate,
)
from repro.sim.system_table import TableProgram

from test_sim_fast_forward import (
    ARCH64,
    SYNTHETIC,
    ZOO,
    _chain,
    _chunked_chain,
    _pipeline,
    _stage,
    _zoo_workload,
)


def _load_tie_sweep():
    path = Path(__file__).resolve().parents[1] / "tools" / "tie_sweep.py"
    spec = importlib.util.spec_from_file_location("tie_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tie_sweep = _load_tie_sweep()

#: seeds of ``tools/tie_sweep.py`` on which the object kernel once booked a
#: queued burst's link drain or DMA start when its service started, not at
#: issue, and so diverged from the table lane on a same-cycle tie.
TIE_SEEDS = (96, 410, 468, 650, 669, 857, 1037, 1093, 1392, 1937, 2175, 2196)


def _link_tie_workload():
    """Two chunk landings fall due on one cycle behind a queued link burst."""
    res = DataFlow("storage", 256, storage_cluster=9, label="res", buffer_depth=4,
                   transfers_per_job=2)
    return _pipeline([
        _stage(0, ((0, 1), (2,), (4, 5), (6, 7)), 1024, 256,
               (DataFlow("hbm", 256, label="in"),),
               (DataFlow("stage", 256, stage_id=1, transfers_per_job=2), res)),
        _stage(1, ((9,),), 1024, 256,
               (DataFlow("stage", 256, stage_id=0),),
               (DataFlow("stage", 256, stage_id=2),)),
        _stage(2, ((12, 13), (14, 15), (16, 17)), 1024, 0,
               (DataFlow("stage", 256, stage_id=1), res),
               (DataFlow("hbm", 256, label="out"),)),
    ], n_jobs=7)


def _dma_tie_workload():
    """24-chunk bursts queue on the 16 DMA channels of their clusters."""
    res = DataFlow("storage", 128, storage_cluster=9, label="res", buffer_depth=4,
                   transfers_per_job=24)
    return _pipeline([
        _stage(0, ((0,), (2, 3)), 512, 128,
               (DataFlow("hbm", 128, label="in"),),
               (DataFlow("stage", 128, stage_id=1, transfers_per_job=24), res)),
        _stage(1, ((5, 6),), 512, 128,
               (DataFlow("stage", 128, stage_id=0),),
               (DataFlow("stage", 128, stage_id=2, transfers_per_job=24),)),
        _stage(2, ((8,), (10,), (12,)), 512, 128,
               (DataFlow("stage", 128, stage_id=1), res),
               (DataFlow("hbm", 128, label="out"),)),
    ], n_jobs=24)


def _feed_workload(shape):
    """Inputs that no stage writes, in shapes no generator draws: the
    generators and hand-built pipelines feed one non-empty HBM input
    into their first stage."""
    out = (DataFlow("hbm", 256, label="out"),)
    to_next = (DataFlow("stage", 256, stage_id=1),)
    from_first = DataFlow("stage", 256, stage_id=0)
    if shape == "zero-bytes":
        stages = [
            _stage(0, ((0,),), 300, 40, (DataFlow("hbm", 0, label="in"),), to_next),
            _stage(1, ((2,),), 300, 40, (from_first,), out),
        ]
    elif shape == "two-into-replicated":
        feeds = (DataFlow("hbm", 512, label="in"),
                 DataFlow("hbm", 1024, label="bias", transfers_per_job=5))
        stages = [
            _stage(0, ((0, 1), (2,), (4,)), 500, 60, feeds, to_next),
            _stage(1, ((6,),), 200, 40, (from_first,), out),
        ]
    elif shape == "storage-into-later":
        later = (from_first, DataFlow("hbm", 384, label="side"),
                 DataFlow("storage", 128, storage_cluster=9, label="table"))
        stages = [
            _stage(0, ((0,),), 300, 40, (DataFlow("hbm", 512, label="in"),), to_next),
            replace(_stage(1, ((2,), (3,)), 400, 80, later, out),
                    digital_clusters=(5, 6)),
        ]
    else:  # digital-only
        stages = [
            replace(_stage(0, (), 0, 150, (DataFlow("hbm", 512, label="in"),), to_next),
                    digital_clusters=(0, 1), digital_slots=2),
            _stage(1, ((3,),), 300, 40, (from_first,), out),
        ]
    return _pipeline(stages, n_jobs=12)


#: a stage without clusters fed from the HBM, with and without bytes, and
#: one writing to the HBM: a transfer between two off-chip endpoints.
NO_CLUSTER_STAGE = {
    "fed": _pipeline([StageDescriptor(0, "s0", inputs=(DataFlow("hbm", 64),))], 4),
    "fed-zero-bytes": _pipeline(
        [StageDescriptor(0, "s0", inputs=(DataFlow("hbm", 0),))], 4
    ),
    "writing": _pipeline([
        _stage(0, ((0,),), 100, 0, (DataFlow("hbm", 64, label="in"),),
               (DataFlow("stage", 64, stage_id=1),)),
        StageDescriptor(1, "s1", inputs=(DataFlow("stage", 64, stage_id=0),),
                        outputs=(DataFlow("hbm", 64, label="out"),)),
    ], 4),
}

#: a stored tensor that two stages read: stage 0 writes storage label
#: "res", and stages 1 and 2 both read it.
_RES = DataFlow("storage", 256, storage_cluster=40, label="res", buffer_depth=4)
TWO_READERS = _pipeline([
    _stage(0, ((0,),), 300, 0, (DataFlow("hbm", 512, label="in"),),
           (DataFlow("stage", 512, stage_id=1), _RES)),
    _stage(1, ((8,),), 300, 0, (DataFlow("stage", 512, stage_id=0), _RES),
           (DataFlow("stage", 512, stage_id=2),)),
    _stage(2, ((16,),), 300, 0, (DataFlow("stage", 512, stage_id=1), _RES),
           (DataFlow("hbm", 512, label="out"),)),
], 4)

#: a stored tensor that two stages write: stages 0 and 1 both write storage
#: label "res", and stage 2 reads it.
TWO_WRITERS = _pipeline([
    _stage(0, ((0,),), 300, 0, (DataFlow("hbm", 512, label="in"),),
           (DataFlow("stage", 512, stage_id=1), _RES)),
    _stage(1, ((8,),), 300, 0, (DataFlow("stage", 512, stage_id=0),),
           (DataFlow("stage", 512, stage_id=2), _RES)),
    _stage(2, ((16,),), 300, 0, (DataFlow("stage", 512, stage_id=1), _RES),
           (DataFlow("hbm", 512, label="out"),)),
], 4)

#: two sink stages that both write the network output ("hbm", "out"), which
#: no stage reads back: the shape the lowering pass gives a multi-head graph.
TWO_SINKS = _pipeline([
    _stage(0, ((0,),), 300, 0, (DataFlow("hbm", 512, label="in"),),
           (DataFlow("stage", 512, stage_id=1), DataFlow("stage", 512, stage_id=2))),
    _stage(1, ((8,),), 300, 0, (DataFlow("stage", 512, stage_id=0),),
           (DataFlow("hbm", 512, label="out"),)),
    _stage(2, ((16,),), 300, 0, (DataFlow("stage", 512, stage_id=0),),
           (DataFlow("hbm", 512, label="out"),)),
], 4)


def _two_head_workload():
    """tiny_cnn with a second head (a ReLU beside the classifier, on its
    input), mapped and lowered: both heads write the network output."""
    scenario = Scenario(
        model="tiny_cnn", input_shape=(3, 32, 32), num_classes=10,
        batch_size=4, level="final", n_clusters=16, crossbar_size=128,
    )
    graph = graph_stage(scenario)
    head = graph.output_nodes[0]
    graph.add(ReLU(name="head2"), inputs=[head.inputs[0]])
    arch = scenario.build_arch()
    mapping = mapping_stage(graph, arch, scenario.batch_size, scenario.level_enum)
    return arch, workload_stage(mapping)


# --------------------------------------------------------------------------- #
# Known shapes: the fast-forward suite's synthetic + zoo workloads
# --------------------------------------------------------------------------- #
class TestKnownShapes:
    @pytest.mark.parametrize(
        "name,workload,_must_engage",
        SYNTHETIC,
        ids=[case[0] for case in SYNTHETIC],
    )
    @pytest.mark.parametrize("model_contention", [True, False], ids=["cont", "nocont"])
    def test_synthetic_pipelines_identical(self, name, workload, _must_engage,
                                           model_contention):
        python = simulate(ARCH64, workload, model_contention, engine="python")
        table = simulate(ARCH64, workload, model_contention, engine="table")
        assert result_mismatches(python, table) == []

    @pytest.mark.parametrize(
        "name,model,shape,level,batch,clusters,classes,crossbar,_must_engage",
        ZOO,
        ids=[case[0] for case in ZOO],
    )
    def test_zoo_mappings_identical(
        self, name, model, shape, level, batch, clusters, classes, crossbar,
        _must_engage,
    ):
        arch, workload = _zoo_workload(
            model, shape, level, batch, clusters, classes, crossbar
        )
        python = simulate(arch, workload, engine="python")
        table = simulate(arch, workload, engine="table")
        assert_results_identical(python, table)

    def test_paper_headline_identical(self, monkeypatch):
        """The paper's Sec. VI point: ResNet-18, FINAL, 3×256×256, batch
        16, 512 clusters, contention on — where the table lane folds most
        chunk bursts' landings into one row each."""
        arch, workload = _zoo_workload("resnet18", (3, 256, 256), "final", 16, 512)
        folded = []
        dispatch = TableProgram._op_burst_landed

        def recording(self, arg):
            folded.append(arg)
            dispatch(self, arg)

        monkeypatch.setattr(TableProgram, "_op_burst_landed", recording)
        python = simulate(arch, workload, engine="python")
        table = simulate(arch, workload, engine="table")
        assert result_mismatches(python, table) == []
        assert folded

    def test_payloads_identical_including_stage_completions(self):
        """The persisted payloads — the cache currency — match exactly.

        The tracer ships inside the payload as a live object, so it is
        compared field by field through ``result_mismatches`` (which covers
        every counter, trace and busy map) and the remaining payload
        entries by plain equality.
        """
        arch, workload = _zoo_workload("tiny_cnn", (3, 32, 32), "final", 16, 16, 10, 128)
        python = simulate(arch, workload, engine="python")
        table = simulate(arch, workload, engine="table")
        assert result_mismatches(python, table) == []
        python_payload = python.to_payload()
        table_payload = table.to_payload()
        assert type(python_payload.pop("tracer")) is type(table_payload.pop("tracer"))
        assert python_payload == table_payload

    def test_link_tie_reproducer(self):
        """A burst queued behind another on a link: both kernels book its
        drain at issue, so the two landings due at cycle 4,320 dispatch in
        the same order (the object kernel once booked it at service start
        and finished at 12,048)."""
        python = simulate(ARCH64, _link_tie_workload(), True, 1, engine="python")
        table = simulate(ARCH64, _link_tie_workload(), True, 1, engine="table")
        assert result_mismatches(python, table) == []
        assert table.makespan_cycles == 12050

    def test_dma_tie_reproducer(self):
        """Chunks waiting for a busy DMA channel: both kernels book the
        start on the earliest-free channel at issue."""
        python = simulate(ARCH64, _dma_tie_workload(), True, 1, engine="python")
        table = simulate(ARCH64, _dma_tie_workload(), True, 1, engine="table")
        assert result_mismatches(python, table) == []
        assert table.completion_trace(1)[2] == 3261

    @pytest.mark.parametrize("seed", TIE_SEEDS)
    @pytest.mark.parametrize("model_contention", [True, False], ids=["cont", "nocont"])
    def test_tie_sweep_draws_identical(self, seed, model_contention):
        workload = tie_sweep.tie_workload(random.Random(seed))
        for depth in tie_sweep.BUFFER_DEPTHS:
            python = simulate(ARCH64, workload, model_contention, depth, engine="python")
            table = simulate(ARCH64, workload, model_contention, depth, engine="table")
            assert result_mismatches(python, table) == [], depth

    @pytest.mark.parametrize("seed", tie_sweep.DIGITAL_SEEDS[:10])
    @pytest.mark.parametrize("model_contention", [True, False], ids=["cont", "nocont"])
    def test_digital_tie_sweep_draws_identical(self, seed, model_contention):
        """Digital records, intra-stage flows and record groups that share
        clusters, which only the zoo mappings reach otherwise."""
        workload = tie_sweep.digital_tie_workload(random.Random(seed))
        for depth in tie_sweep.BUFFER_DEPTHS:
            python = simulate(ARCH64, workload, model_contention, depth, engine="python")
            table = simulate(ARCH64, workload, model_contention, depth, engine="table")
            assert result_mismatches(python, table) == [], depth

    @pytest.mark.parametrize("model_contention", [True, False], ids=["cont", "nocont"])
    def test_split_bursts_identical(self, model_contention):
        """24 chunks against 16 DMA channels: a burst row of 16 chunks,
        then 8 per-chunk rows deferred to the channels' free cycles."""
        workload = _chunked_chain(24, residual="storage")
        python = simulate(ARCH64, workload, model_contention, engine="python")
        table = simulate(ARCH64, workload, model_contention, engine="table")
        assert result_mismatches(python, table) == []

    @pytest.mark.parametrize("model_contention", [True, False], ids=["cont", "nocont"])
    def test_hbm_chunked_flows_identical(self, model_contention):
        """Chunked writes to the HBM (one channel booking per chunk) and
        chunked reads from it (no DMA: the whole flow enters at once)."""
        workload = _chunked_chain(8, residual="hbm")
        python = simulate(ARCH64, workload, model_contention, engine="python")
        table = simulate(ARCH64, workload, model_contention, engine="table")
        assert result_mismatches(python, table) == []

    @pytest.mark.parametrize("arrivals", [False, True], ids=["closed", "poisson"])
    @pytest.mark.parametrize(
        "shape",
        ["zero-bytes", "two-into-replicated", "storage-into-later", "digital-only"],
    )
    def test_external_feed_shapes_identical(self, shape, arrivals):
        """A zero-byte feed (one local transfer and a delivery record), two
        feeds into one replicated stage (each one transfer per job, whatever
        its ``transfers_per_job``), an unwritten storage input beside an HBM
        one into a later stage, and a digital-only stage: the same results
        and the same number of events on both kernels."""
        workload = _feed_workload(shape)
        if arrivals:
            workload = workload.with_arrivals(
                PoissonArrivals(mean_interarrival_cycles=400.0, seed=5).generate(
                    workload.n_jobs
                )
            )
        for model_contention in (True, False):
            for depth in (1, 2):
                results, events = {}, {}
                for engine in SIMULATION_ENGINES:
                    sim = SystemSimulator(
                        ARCH64, workload, model_contention, depth, engine=engine
                    )
                    results[engine] = sim.run()
                    events[engine] = sim.engine.events_processed
                label = f"contention={model_contention} depth={depth}"
                mismatches = result_mismatches(results["python"], results["table"])
                assert mismatches == [], label
                assert events["python"] == events["table"], label

    @pytest.mark.parametrize("engine", SIMULATION_ENGINES)
    @pytest.mark.parametrize("case", sorted(NO_CLUSTER_STAGE))
    def test_transfer_without_on_chip_endpoint_raises(self, case, engine):
        """The object kernel's NoC model rejects a transfer with neither
        end on chip; the table lane rejects the same flows."""
        with pytest.raises(ValueError, match="at least one on-chip endpoint"):
            simulate(ARCH64, NO_CLUSTER_STAGE[case], engine=engine)

    @pytest.mark.parametrize("engine", SIMULATION_ENGINES)
    def test_transfer_without_on_chip_endpoint_names_the_stage(self, engine):
        """The rejection names the stage, and the flow whose ends are both
        off chip, before anything is simulated."""
        with pytest.raises(ValueError) as info:
            simulate(ARCH64, NO_CLUSTER_STAGE["writing"], engine=engine)
        assert "stage 1 ('s1') has no clusters, and its output flow 0 (hbm 'out'" in str(
            info.value
        )

    @pytest.mark.parametrize("engine", SIMULATION_ENGINES)
    def test_stored_tensor_with_two_readers_raises(self, engine):
        """A stored tensor is relayed to one reader, so a second reader is
        rejected before anything is simulated, naming the tensor and both
        readers."""
        with pytest.raises(
            ValueError,
            match=r"\('storage', 'res'\) is read by stage 1 and by stage 2",
        ):
            simulate(ARCH64, TWO_READERS, engine=engine)

    @pytest.mark.parametrize("engine", SIMULATION_ENGINES)
    def test_stored_tensor_with_two_writers_raises(self, engine):
        """A stored tensor is relayed from one writer, so a second writer
        (whose deliveries would reach the one reader twice per job) is
        rejected before anything is simulated, naming the tensor and both
        writers."""
        with pytest.raises(
            ValueError,
            match=r"\('storage', 'res'\) is written by stage 0 and by stage 1",
        ):
            simulate(ARCH64, TWO_WRITERS, engine=engine)

    @pytest.mark.parametrize("engine", SIMULATION_ENGINES)
    def test_unread_tensor_with_two_writers_simulates(self, engine):
        """A tensor that no stage reads is never relayed, so two sinks may
        both write it."""
        result = simulate(ARCH64, TWO_SINKS, engine=engine)
        assert result.jobs_completed == {0: 4, 1: 4, 2: 4}

    def test_two_head_graph_identical(self):
        """A lowered multi-head graph gives every head the one network
        output label; it simulates, the same on both kernels."""
        arch, workload = _two_head_workload()
        heads = [
            stage
            for stage in workload.stages
            for flow in stage.outputs
            if flow.label == NETWORK_OUTPUT_LABEL
        ]
        assert len(heads) == 2
        python = simulate(arch, workload, engine="python")
        table = simulate(arch, workload, engine="table")
        assert_results_identical(python, table)


# --------------------------------------------------------------------------- #
# Seeded randomized property sweep
# --------------------------------------------------------------------------- #
def _random_workload(rng: random.Random) -> Workload:
    """A random small pipeline drawn from the space the simulator supports.

    Shapes vary across every axis the kernels treat differently: stage
    count, per-stage replication width, analog cost, transfer sizes (tiny
    transfers exercise the ``max(1, ...)`` chunking edge), residual
    storage flows with their own buffer depths, and job counts that do and
    do not divide the batch size.
    """
    n_stages = rng.randint(2, 5)
    n_jobs = rng.choice([7, 12, 24, 31, 48])
    bytes_per_job = rng.choice([1, 5, 260, 2048, 5000])
    analog = rng.choice([0, 17, 400])
    cluster = 0
    stages = []
    storage_stage = rng.randrange(n_stages - 1) if rng.random() < 0.5 else None
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
        if storage_stage == i:
            depth = rng.choice([1, 4])
            outputs = outputs + (
                DataFlow("storage", bytes_per_job, storage_cluster=63,
                         label="res", buffer_depth=depth),
            )
        if storage_stage is not None and i == n_stages - 1:
            inputs = inputs + (
                DataFlow("storage", bytes_per_job, storage_cluster=63,
                         label="res", buffer_depth=4),
            )
        replication = rng.choice([1, 1, 2, 3])
        replicas = tuple(
            tuple(cluster + r * 2 + c for c in range(rng.choice([1, 2])))
            for r in range(replication)
        )
        cluster += 2 * replication + 1
        stages.append(
            StageDescriptor(
                stage_id=i,
                name=f"s{i}",
                analog_replicas=replicas,
                cost=StageCost(
                    analog_cycles_per_job=analog,
                    digital_cycles_per_job=rng.choice([0, 90]),
                    analog_macs_per_job=100,
                ),
                inputs=inputs,
                outputs=outputs,
            )
        )
    return Workload(
        "random",
        stages,
        n_jobs=n_jobs,
        batch_size=max(1, n_jobs // rng.choice([1, 3, 4])),
        tiles_per_image=rng.choice([1, 4]),
        total_macs=100 * n_jobs * n_stages,
    )


class TestRandomizedProperty:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_pipelines_identical(self, seed):
        rng = random.Random(1000 + seed)
        workload = _random_workload(rng)
        model_contention = rng.random() < 0.7
        buffer_depth = rng.choice([1, 2, 5])
        python = simulate(
            ARCH64, workload, model_contention, buffer_depth, engine="python"
        )
        table = simulate(
            ARCH64, workload, model_contention, buffer_depth, engine="table"
        )
        mismatches = result_mismatches(python, table)
        assert mismatches == [], f"seed {seed}: {mismatches}"


# --------------------------------------------------------------------------- #
# Open-system workloads: arrival-gated launch across the full engine matrix
# --------------------------------------------------------------------------- #
def _random_arrivals(rng: random.Random, n_jobs: int):
    """A random arrival schedule drawn across process kind, rate and seed.

    Rates span well below the service rate (launch gating dominates),
    around it, and far above it (the schedule degenerates to a burst and
    the open run must still match a closed one event for event).
    """
    kind = rng.choice(["deterministic", "poisson", "bursty"])
    if kind == "deterministic":
        process = DeterministicArrivals(
            interval_cycles=rng.choice([0, 40, 700, 6000]),
            start_cycle=rng.choice([0, 0, 250]),
        )
    elif kind == "poisson":
        process = PoissonArrivals(
            mean_interarrival_cycles=rng.choice([50.0, 800.0, 5000.0]),
            seed=rng.randrange(1 << 16),
        )
    else:
        process = BurstyArrivals(
            burst_size=rng.choice([2, 5, 16]),
            burst_interval_cycles=rng.choice([0, 900, 9000]),
        )
    return process.generate(n_jobs)


class TestOpenWorkloadEquivalence:
    """Bit-identity of both kernels under arrival-gated job launch."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_open_pipelines_identical_across_engines(self, seed):
        rng = random.Random(7000 + seed)
        workload = _random_workload(rng)
        workload = workload.with_arrivals(_random_arrivals(rng, workload.n_jobs))
        assert workload.is_open
        model_contention = rng.random() < 0.7
        buffer_depth = rng.choice([1, 2, 5])
        python = simulate(
            ARCH64, workload, model_contention, buffer_depth, engine="python"
        )
        table = simulate(
            ARCH64, workload, model_contention, buffer_depth, engine="table"
        )
        mismatches = result_mismatches(python, table)
        assert mismatches == [], f"seed {seed}: {mismatches}"
        # every job's sojourn was recorded, identically, on both engines
        latencies = python.request_latencies()
        assert len(latencies) == workload.n_jobs
        assert all(lat > 0 for lat in latencies)
        assert table.request_latencies() == latencies

    def test_open_zoo_mapping_identical_across_engines(self):
        """A real mapped model (not a synthetic chain) under Poisson load."""
        arch, workload = _zoo_workload(
            "tiny_cnn", (3, 32, 32), "final", 16, 16, 10, 128
        )
        workload = workload.with_arrivals(
            PoissonArrivals(mean_interarrival_cycles=30000.0, seed=11).generate(
                workload.n_jobs
            )
        )
        python = simulate(arch, workload, engine="python")
        table = simulate(arch, workload, engine="table")
        assert result_mismatches(python, table) == []


# --------------------------------------------------------------------------- #
# The fast-forward on top of each kernel
# --------------------------------------------------------------------------- #
class TestBoundedRunEquivalence:
    @pytest.mark.parametrize("engine", SIMULATION_ENGINES)
    @pytest.mark.parametrize(
        "name,workload,must_engage",
        SYNTHETIC,
        ids=[case[0] for case in SYNTHETIC],
    )
    def test_fast_forward_on_each_kernel(self, name, workload, must_engage, engine):
        """The run snapshots each kernel's own mid-run state (the table
        lane's dense vectors, the object kernel's tracer): extrapolation
        from either must reproduce that kernel's full run."""
        full = simulate(ARCH64, workload, engine=engine)
        ff = simulate(ARCH64, workload, fast_forward=True, engine=engine)
        if must_engage:
            assert ff.fast_forwarded, f"{name}: fast-forward failed to engage"
        assert result_mismatches(full, ff, ignore_provenance=True) == []

    def test_fast_forward_identical_across_kernels(self):
        workload = _chain(n_jobs=96, replication=2)
        python = simulate(ARCH64, workload, fast_forward=True, engine="python")
        table = simulate(ARCH64, workload, fast_forward=True, engine="table")
        assert python.fast_forwarded and table.fast_forwarded
        assert result_mismatches(python, table) == []

    @pytest.mark.parametrize("seed", range(20))
    def test_random_pipelines_on_each_kernel(self, seed):
        """On each kernel, in both contention modes, the fast-forward of a
        random pipeline long enough to attempt reproduces the full run,
        and both kernels reach the same outcome through the same cut."""
        rng = random.Random(1000 + seed)
        workload = _random_workload(rng).with_n_jobs(rng.choice([48, 61, 96, 120]))
        buffer_depth = rng.choice([1, 2, 5])
        for model_contention in (True, False):
            ff = {}
            for engine in SIMULATION_ENGINES:
                full = simulate(
                    ARCH64, workload, model_contention, buffer_depth, engine=engine
                )
                ff[engine] = simulate(
                    ARCH64, workload, model_contention, buffer_depth,
                    engine=engine, fast_forward=True,
                )
                mismatches = result_mismatches(full, ff[engine], ignore_provenance=True)
                assert mismatches == [], f"seed {seed} {engine}: {mismatches}"
            assert result_mismatches(ff["python"], ff["table"]) == [], f"seed {seed}"


# --------------------------------------------------------------------------- #
# Mid-run activity snapshots
# --------------------------------------------------------------------------- #
class _SnapshotSimulator(SystemSimulator):
    """Takes ``snapshot_activity()`` where the fast-forward does
    (``steady_state._AttemptSimulator``): at every final-stage completion.

    ``every_stage`` instead snapshots twice at every stage's completions
    and keeps nothing.
    """

    def __init__(self, arch, workload, model_contention, engine, every_stage=False):
        super().__init__(arch, workload, model_contention, engine=engine)
        self._final_stage_id = workload.final_stage().stage_id
        self._every_stage = every_stage
        self.snapshots = []

    def job_finished(self, stage_id, job_index):
        super().job_finished(stage_id, job_index)
        if self._every_stage:
            self.snapshot_activity()
            self.snapshot_activity()
        elif stage_id == self._final_stage_id:
            self.snapshots.append(self.snapshot_activity())


def _case(name):
    """``(arch, workload)`` of a SYNTHETIC or ZOO case, by name."""
    for case in SYNTHETIC:
        if case[0] == name:
            return ARCH64, case[1]
    for case in ZOO:
        if case[0] == name:
            return _zoo_workload(*case[1:8])
    raise KeyError(name)


#: cases whose snapshots catch a folded burst in flight: its destination is
#: credited only at the burst's last landing (``docs/simulator.md``
#: § Landing fold), so such a snapshot lacks the earlier landings' share.
FOLDS_IN_FLIGHT = {("chunked-storage", True)}

#: the entries of a snapshot's per-cluster tuple that a landing credits:
#: communication cycles and the last-busy cycle.
_LANDING_ENTRIES = (2, 5)


def _assert_only_landings_lag(python, table):
    """Every snapshot matches except for landing credit the table lane has
    not yet given, and at least one snapshot lacks some."""
    assert len(table) == len(python)
    lagging = 0
    for (counters, clusters, stages, links), expected in zip(table, python):
        assert (counters, stages, links) == (expected[0], expected[2], expected[3])
        assert list(clusters) == list(expected[1])
        for cid, row in clusters.items():
            want = expected[1][cid]
            for index in range(6):
                if index in _LANDING_ENTRIES:
                    assert row[index] <= want[index], (cid, index)
                else:
                    assert row[index] == want[index], (cid, index)
        lagging += clusters != expected[1]
    assert lagging


class TestMidRunSnapshots:
    """``snapshot_activity()`` at every final-stage completion matches
    across the kernels, whatever the table lane has left to flush."""

    @pytest.mark.parametrize("name", [case[0] for case in SYNTHETIC + ZOO])
    @pytest.mark.parametrize("model_contention", [True, False], ids=["cont", "nocont"])
    def test_snapshots_match_the_object_kernel(self, name, model_contention):
        arch, workload = _case(name)
        streams = {}
        for engine in ("python", "table"):
            simulator = _SnapshotSimulator(arch, workload, model_contention, engine)
            simulator.run()
            streams[engine] = simulator.snapshots
        python = streams["python"]
        assert len(python) == workload.n_jobs
        if (name, model_contention) in FOLDS_IN_FLIGHT:
            _assert_only_landings_lag(python, streams["table"])
        else:
            assert streams["table"] == python

    @pytest.mark.parametrize(
        "name", [case[0] for case in SYNTHETIC] + ["resnet18-naive"]
    )
    @pytest.mark.parametrize("model_contention", [True, False], ids=["cont", "nocont"])
    def test_flushing_never_counts_twice(self, name, model_contention):
        """Two snapshots at every stage completion leave the run's result
        exactly as a run that never takes one."""
        arch, workload = _case(name)
        plain = simulate(arch, workload, model_contention, engine="table")
        flushed = _SnapshotSimulator(
            arch, workload, model_contention, "table", every_stage=True
        ).run()
        assert result_mismatches(plain, flushed) == []


# --------------------------------------------------------------------------- #
# Cache keying of the engine axis
# --------------------------------------------------------------------------- #
class TestEngineCacheKey:
    def test_engines_key_separately(self):
        # the default key is the table lane's: moving the default engine
        # from "array" to "table" re-keyed default-engine artifacts once
        base = simulation_key("a", "w", True, 2)
        assert simulation_key("a", "w", True, 2, engine="table") == base
        assert simulation_key("a", "w", True, 2, engine="python") != base

    def test_engine_and_fast_forward_axes_are_independent(self):
        keys = {
            simulation_key("a", "w", True, 2, fast_forward=ff, engine=engine)
            for ff in (False, True)
            for engine in SIMULATION_ENGINES
        }
        assert len(keys) == 4

    def test_arrivals_axis_keys_separately(self):
        base = simulation_key("a", "w", True, 2)
        assert simulation_key("a", "w", True, 2, arrivals=None) == base
        open_key = simulation_key("a", "w", True, 2, arrivals=(0, 10, 20))
        assert open_key != base
        assert simulation_key("a", "w", True, 2, arrivals=(0, 10, 21)) != open_key
        assert simulation_key("a", "w", True, 2, arrivals=(0, 10, 20)) == open_key
