"""Tests for the workload IR and the system-level pipeline simulator."""

import math
import re

import numpy as np
import pytest

from repro.arch import ArchConfig
from repro.sim import (
    SIMULATION_ENGINES,
    DataFlow,
    SimulationError,
    StageCost,
    StageDescriptor,
    SystemSimulator,
    Workload,
    fast_forward_simulate,
    result_mismatches,
    simulate,
)
from repro.sim.workload import chunk_groups

from test_sim_fast_forward import ARCH64, _chain, _zoo_workload


def _linear_workload(n_stages=3, n_jobs=16, analog_cycles=500, bytes_per_job=2048):
    """A simple chain of analog stages, one cluster each."""
    stages = []
    for index in range(n_stages):
        inputs = (
            (DataFlow("hbm", bytes_per_job, label="network_input"),)
            if index == 0
            else (DataFlow("stage", bytes_per_job, stage_id=index - 1),)
        )
        outputs = (
            (DataFlow("hbm", bytes_per_job, label="network_output"),)
            if index == n_stages - 1
            else (DataFlow("stage", bytes_per_job, stage_id=index + 1),)
        )
        stages.append(
            StageDescriptor(
                stage_id=index,
                name=f"stage{index}",
                analog_replicas=((index,),),
                cost=StageCost(analog_cycles_per_job=analog_cycles,
                               analog_macs_per_job=1000),
                inputs=inputs,
                outputs=outputs,
            )
        )
    return Workload(
        name="chain",
        stages=stages,
        n_jobs=n_jobs,
        batch_size=max(1, n_jobs // 4),
        tiles_per_image=4,
        total_macs=1000 * n_jobs * n_stages,
    )


class TestWorkloadIR:
    def test_dataflow_validation(self):
        with pytest.raises(ValueError):
            DataFlow("nowhere", 10)
        with pytest.raises(ValueError):
            DataFlow("stage", 10)  # missing stage_id
        with pytest.raises(ValueError):
            DataFlow("storage", 10)  # missing storage_cluster
        with pytest.raises(ValueError):
            DataFlow("hbm", -1)
        with pytest.raises(ValueError):
            DataFlow("hbm", 1, buffer_depth=0)
        with pytest.raises(ValueError):
            DataFlow("hbm", 1, transfers_per_job=0)

    def test_stage_properties(self):
        stage = StageDescriptor(
            stage_id=0,
            name="conv",
            analog_replicas=((0, 1), (2, 3)),
            digital_clusters=(4,),
            cost=StageCost(analog_cycles_per_job=100, digital_cycles_per_job=40),
        )
        assert stage.replication == 2
        assert stage.is_analog
        assert stage.clusters == (0, 1, 2, 3, 4)
        assert stage.io_cluster == 0

    def test_credits_scale_with_parallelism(self):
        stage = StageDescriptor(
            stage_id=1,
            name="conv",
            analog_replicas=((0,), (1,), (2,)),
            digital_clusters=(4, 5),
            cost=StageCost(analog_cycles_per_job=100),
            inputs=(
                DataFlow("stage", 10, stage_id=0),
                DataFlow("hbm", 10, label="res", buffer_depth=4),
            ),
        )
        # each of the three replicas owns its buffers, whatever the number
        # of digital clusters; the residual input keeps its own depth
        assert stage.credits(2) == ((6, 12), 6)

    def test_input_flow_index(self):
        workload = _linear_workload()
        assert workload.stage(1).input_flow_index(0) == 0
        with pytest.raises(SimulationError, match="no input flow from stage 2"):
            workload.stage(1).input_flow_index(2)

    def test_chunk_groups(self):
        # at most one chunk: the payload itself, never floored
        assert chunk_groups(0, 1) == ((0, 1),)
        assert chunk_groups(100, 1) == ((100, 1),)
        # ceil(10 / 4) = 3: three chunks of 3 bytes, then the last byte
        assert chunk_groups(10, 4) == ((3, 3), (1, 1))
        # ceil(5 / 4) = 2: 2 + 2 + 1, then a chunk left with nothing moves 1 byte
        assert chunk_groups(5, 4) == ((2, 2), (1, 2))

    @pytest.mark.parametrize(
        "n_bytes, n_chunks",
        [(16, 4), (10, 4), (5, 4), (3, 8), (2, 2), (4096, 3), (1_000_003, 7)],
        ids=["exact", "remainder", "floor", "mostly-floor", "one-byte-each",
             "tile", "large"],
    )
    def test_chunk_groups_expand_to_the_per_chunk_split(self, n_bytes, n_chunks):
        # reference: one transfer per chunk, ceil(n / k) bytes while they
        # last, never less than 1 byte
        chunk = math.ceil(n_bytes / n_chunks)
        remaining, expected = n_bytes, []
        for __ in range(n_chunks):
            size = min(chunk, remaining)
            remaining -= size
            expected.append(max(1, size))
        groups = chunk_groups(n_bytes, n_chunks)
        assert [size for size, count in groups for __ in range(count)] == expected
        # runs of equal sizes are maximal
        assert all(a[0] != b[0] for a, b in zip(groups, groups[1:]))

    def test_stage_requires_replica_for_analog_cost(self):
        with pytest.raises(ValueError):
            StageDescriptor(stage_id=0, name="bad",
                            cost=StageCost(analog_cycles_per_job=10))

    def test_workload_validation(self):
        workload = _linear_workload()
        workload.validate(n_clusters=8)
        with pytest.raises(ValueError):
            workload.validate(n_clusters=2)  # cluster index out of range

    def test_workload_duplicate_stage_ids_rejected(self):
        stage = StageDescriptor(stage_id=0, name="a")
        with pytest.raises(ValueError):
            Workload("bad", [stage, stage], n_jobs=1, batch_size=1, tiles_per_image=1)

    def test_workload_totals(self):
        workload = _linear_workload()
        assert workload.n_used_clusters == 3
        assert workload.total_ops >= 2 * workload.total_macs


class TestSystemSimulator:
    @pytest.mark.parametrize("engine", SIMULATION_ENGINES)
    def test_a_simulator_runs_once(self, engine):
        """A second ``run`` raises and leaves the first result as it was:
        the result holds the simulator's tracer."""
        workload = _chain(n_stages=4, n_jobs=8)
        simulator = SystemSimulator(ARCH64, workload, engine=engine)
        first = simulator.run()
        with pytest.raises(SimulationError, match="runs once"):
            simulator.run()
        assert first.makespan_cycles == first.tracer.makespan == 5666
        assert result_mismatches(simulate(ARCH64, workload, engine=engine), first) == []

    def test_linear_chain_completes(self):
        arch = ArchConfig.scaled(8)
        workload = _linear_workload()
        result = simulate(arch, workload)
        assert result.completed
        assert result.makespan_cycles > 0
        assert all(count == workload.n_jobs for count in result.jobs_completed.values())

    def test_makespan_at_least_bottleneck_bound(self):
        arch = ArchConfig.scaled(8)
        workload = _linear_workload(analog_cycles=1000, n_jobs=32)
        result = simulate(arch, workload)
        # The bottleneck stage alone needs n_jobs * analog_cycles cycles.
        assert result.makespan_cycles >= 32 * 1000

    def test_replication_improves_throughput(self):
        arch = ArchConfig.scaled(8)
        slow = _linear_workload(n_stages=1, n_jobs=32, analog_cycles=2000)
        fast_stage = StageDescriptor(
            stage_id=0,
            name="stage0",
            analog_replicas=((0,), (1,), (2,), (3,)),
            cost=StageCost(analog_cycles_per_job=2000, analog_macs_per_job=1000),
            inputs=(DataFlow("hbm", 1024, label="network_input"),),
            outputs=(DataFlow("hbm", 1024, label="network_output"),),
        )
        fast = Workload("replicated", [fast_stage], n_jobs=32, batch_size=8,
                        tiles_per_image=4, total_macs=32_000)
        slow_result = simulate(arch, slow)
        fast_result = simulate(arch, fast)
        assert fast_result.makespan_cycles < slow_result.makespan_cycles

    @pytest.mark.parametrize("engine", SIMULATION_ENGINES)
    def test_digital_only_stage(self, engine):
        arch = ArchConfig.scaled(8)
        stage = StageDescriptor(
            stage_id=0,
            name="pool",
            digital_clusters=(0, 1),
            cost=StageCost(digital_cycles_per_job=300, digital_ops_per_job=100),
            inputs=(DataFlow("hbm", 512, label="network_input"),),
            outputs=(DataFlow("hbm", 512, label="network_output"),),
        )
        workload = Workload("digital", [stage], n_jobs=8, batch_size=2,
                            tiles_per_image=4, total_digital_ops=800)
        result = simulate(arch, workload, engine=engine)
        assert result.completed
        # every job's digital work runs on both clusters, one job at a time
        assert [result.tracer.clusters[c].digital for c in (0, 1)] == [8 * 300] * 2
        completions = result.completion_trace(0)
        assert min(b - a for a, b in zip(completions, completions[1:])) >= 300

    def test_residual_storage_relay(self):
        arch = ArchConfig.scaled(8)
        producer = StageDescriptor(
            stage_id=0, name="prod", analog_replicas=((0,),),
            cost=StageCost(analog_cycles_per_job=200, analog_macs_per_job=10),
            inputs=(DataFlow("hbm", 256, label="network_input"),),
            outputs=(DataFlow("stage", 256, stage_id=1),
                     DataFlow("storage", 256, storage_cluster=5, label="res0",
                              buffer_depth=4)),
        )
        middle = StageDescriptor(
            stage_id=1, name="mid", analog_replicas=((1,),),
            cost=StageCost(analog_cycles_per_job=200, analog_macs_per_job=10),
            inputs=(DataFlow("stage", 256, stage_id=0),),
            outputs=(DataFlow("stage", 256, stage_id=2),),
        )
        adder = StageDescriptor(
            stage_id=2, name="add", digital_clusters=(2,),
            cost=StageCost(digital_cycles_per_job=50, digital_ops_per_job=10),
            inputs=(DataFlow("stage", 256, stage_id=1),
                    DataFlow("storage", 256, storage_cluster=5, label="res0",
                             buffer_depth=4)),
            outputs=(DataFlow("hbm", 256, label="network_output"),),
        )
        workload = Workload("residual", [producer, middle, adder], n_jobs=12,
                            batch_size=3, tiles_per_image=4, total_macs=240,
                            storage_clusters=(5,))
        result = simulate(arch, workload)
        assert result.completed
        # The storage cluster only moved data: no compute recorded on it.
        storage_activity = result.tracer.clusters.get(5)
        assert storage_activity is None or storage_activity.compute == 0

    def test_hbm_residuals_slower_than_local_storage(self):
        """Round-tripping residuals through HBM must not be faster than spare L1."""
        arch = ArchConfig.scaled(8)

        def build(kind, storage):
            producer = StageDescriptor(
                stage_id=0, name="prod", analog_replicas=((0,),),
                cost=StageCost(analog_cycles_per_job=500, analog_macs_per_job=10),
                inputs=(DataFlow("hbm", 4096, label="network_input"),),
                outputs=(DataFlow("stage", 4096, stage_id=1),
                         DataFlow(kind, 65536, storage_cluster=storage, label="res0",
                                  buffer_depth=4, transfers_per_job=16)),
            )
            middle = StageDescriptor(
                stage_id=1, name="mid", analog_replicas=((1,),),
                cost=StageCost(analog_cycles_per_job=500, analog_macs_per_job=10),
                inputs=(DataFlow("stage", 4096, stage_id=0),),
                outputs=(DataFlow("stage", 4096, stage_id=2),),
            )
            adder = StageDescriptor(
                stage_id=2, name="add", digital_clusters=(2,),
                cost=StageCost(digital_cycles_per_job=100, digital_ops_per_job=10),
                inputs=(DataFlow("stage", 4096, stage_id=1),
                        DataFlow(kind, 65536, storage_cluster=storage, label="res0",
                                 buffer_depth=4, transfers_per_job=16)),
                outputs=(DataFlow("hbm", 4096, label="network_output"),),
            )
            return Workload("residual", [producer, middle, adder], n_jobs=32,
                            batch_size=8, tiles_per_image=4, total_macs=640)

        hbm_result = simulate(arch, build("hbm", None))
        l1_result = simulate(arch, build("storage", 5))
        assert hbm_result.makespan_cycles >= l1_result.makespan_cycles

    def test_contention_toggle(self):
        arch = ArchConfig.scaled(8)
        workload = _linear_workload(bytes_per_job=64 * 512)
        with_contention = simulate(arch, workload, model_contention=True)
        without = simulate(arch, workload, model_contention=False)
        assert without.makespan_cycles <= with_contention.makespan_cycles

    def test_result_time_conversions(self):
        arch = ArchConfig.scaled(8)
        result = simulate(arch, _linear_workload())
        assert result.makespan_seconds == pytest.approx(result.makespan_cycles * 1e-9)
        assert result.makespan_ms == pytest.approx(result.makespan_seconds * 1e3)
        assert result.steady_state_cycles_per_job() > 0

    def test_final_stage_selection(self):
        workload = _linear_workload(n_stages=3)
        assert workload.final_stage().stage_id == 2

    def test_steady_state_uses_last_two_final_stage_completions(self):
        arch = ArchConfig.scaled(8)
        workload = _linear_workload(n_stages=3, n_jobs=16, analog_cycles=500)
        result = simulate(arch, workload)
        # The simulator recorded the last two completion cycles of stage 2.
        assert len(result.final_stage_completions) == 2
        first, second = result.final_stage_completions
        assert second > first
        assert result.steady_state_cycles_per_job() == float(second - first)
        # Steady state excludes pipeline fill/drain, so it must be tighter
        # than the naive makespan/n_jobs estimate.
        assert (
            result.steady_state_cycles_per_job()
            < result.makespan_cycles / workload.n_jobs
        )

    def test_steady_state_falls_back_to_makespan_per_job(self):
        arch = ArchConfig.scaled(8)
        # Single-job runs have no completion interval to measure.
        single = simulate(arch, _linear_workload(n_jobs=1))
        assert len(single.final_stage_completions) == 1
        assert single.steady_state_cycles_per_job() == single.makespan_cycles
        # Results built without completion data (e.g. deserialized or
        # hand-constructed) fall back too.
        multi = simulate(arch, _linear_workload(n_jobs=8))
        from dataclasses import replace

        stripped = replace(multi, final_stage_completions=())
        assert stripped.steady_state_cycles_per_job() == pytest.approx(
            multi.makespan_cycles / 8
        )

    def test_simulation_record_roundtrip(self):
        arch = ArchConfig.scaled(8)
        result = simulate(arch, _linear_workload())
        record = result.record()
        assert record.makespan_cycles == result.makespan_cycles
        assert record.completed
        assert record.n_jobs == result.workload.n_jobs
        assert record.steady_state_cycles_per_job == (
            result.steady_state_cycles_per_job()
        )
        from repro.sim import SimulationRecord

        assert SimulationRecord.from_dict(record.as_dict()) == record

    def test_inconsistent_workload_raises(self):
        arch = ArchConfig.scaled(8)
        # Stage 0 waits for data from stage 1, but stage 1 never produces it.
        orphan = StageDescriptor(
            stage_id=0, name="orphan", digital_clusters=(0,),
            cost=StageCost(digital_cycles_per_job=10),
            inputs=(DataFlow("stage", 64, stage_id=1),),
        )
        silent = StageDescriptor(
            stage_id=1, name="silent", digital_clusters=(1,),
            cost=StageCost(digital_cycles_per_job=10),
            inputs=(DataFlow("hbm", 64, label="network_input"),),
            outputs=(),
        )
        workload = Workload("broken", [orphan, silent], n_jobs=4, batch_size=1,
                            tiles_per_image=4)
        with pytest.raises(SimulationError):
            simulate(arch, workload)


#: run options the simulator's entry points reject: a buffer depth must be a
#: non-bool integer of at least 1, and the contention switch a bool.
BAD_RUN_OPTIONS = [
    ("buffer_depth", 0),
    ("buffer_depth", -1),
    ("buffer_depth", 1.5),
    ("buffer_depth", True),
    ("model_contention", "off"),
    ("model_contention", 1),
]


class TestRunOptions:
    """The simulator's entry points check their run options themselves,
    so a call that bypasses the scenario spec fails on a bad value, naming
    it, before anything runs or refuses."""

    @pytest.fixture(scope="class")
    def tiny_final(self):
        """A 2-job FINAL mapping of ``tiny_cnn`` on 64 clusters."""
        return _zoo_workload("tiny_cnn", (3, 32, 32), "final", 2, 64)

    @staticmethod
    def _message(name, value):
        return f"{name} must be .*, got {re.escape(repr(value))}"

    @pytest.mark.parametrize("engine", SIMULATION_ENGINES)
    @pytest.mark.parametrize("name, value", BAD_RUN_OPTIONS)
    def test_simulator_rejects_a_bad_option(self, tiny_final, engine, name, value):
        arch, workload = tiny_final
        with pytest.raises(ValueError, match=self._message(name, value)):
            SystemSimulator(arch, workload, engine=engine, **{name: value})
        with pytest.raises(ValueError, match=self._message(name, value)):
            simulate(arch, workload, engine=engine, **{name: value})

    @pytest.mark.parametrize("name, value", BAD_RUN_OPTIONS)
    def test_fast_forward_rejects_a_bad_option_before_refusing(
        self, tiny_final, name, value
    ):
        # two jobs would refuse probe-too-short; the check comes first
        arch, workload = tiny_final
        assert workload.n_jobs == 2
        with pytest.raises(ValueError, match=self._message(name, value)):
            fast_forward_simulate(arch, workload, **{name: value})

    @pytest.mark.parametrize("engine", SIMULATION_ENGINES)
    def test_a_numpy_integer_depth_runs_as_that_depth(self, tiny_final, engine):
        arch, workload = tiny_final
        numpy_depth = simulate(arch, workload, buffer_depth=np.int64(1), engine=engine)
        assert result_mismatches(
            numpy_depth, simulate(arch, workload, buffer_depth=1, engine=engine)
        ) == []
