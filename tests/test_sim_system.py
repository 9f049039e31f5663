"""Tests for the workload IR and the system-level pipeline simulator."""

import math

import pytest

from repro.arch import ArchConfig
from repro.sim import (
    DataFlow,
    SimulationError,
    StageCost,
    StageDescriptor,
    SystemSimulator,
    Workload,
    simulate,
)
from repro.sim.workload import chunk_groups


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
            digital_slots=2,
            cost=StageCost(analog_cycles_per_job=100),
            inputs=(
                DataFlow("stage", 10, stage_id=0),
                DataFlow("hbm", 10, label="res", buffer_depth=4),
            ),
        )
        # three replicas outnumber two digital slots; the residual input
        # keeps its own depth
        assert stage.credits(2) == ((6, 12), 6)

    def test_digital_groups(self):
        stage = StageDescriptor(
            stage_id=0, name="reduce", digital_clusters=(4, 5, 6), digital_slots=2
        )
        # ceil(3 / 2) = 2 consecutive clusters per group
        assert stage.digital_groups() == ((4, 5), (6,))
        # a slot left without clusters reuses the last one
        wide = StageDescriptor(
            stage_id=0, name="reduce", digital_clusters=(4, 5, 6), digital_slots=4
        )
        assert wide.digital_groups() == ((4,), (5,), (6,), (6,))
        bare = StageDescriptor(stage_id=0, name="analog-only", digital_slots=2)
        assert bare.digital_groups() == ((), ())

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

    @pytest.mark.parametrize(
        "n_clusters, slots", [(4, 2), (5, 3), (1, 3), (7, 7)]
    )
    def test_digital_groups_cover_every_slot(self, n_clusters, slots):
        clusters = tuple(range(10, 10 + n_clusters))
        stage = StageDescriptor(
            stage_id=0, name="reduce", digital_clusters=clusters, digital_slots=slots
        )
        groups = stage.digital_groups()
        assert len(groups) == slots
        # every slot has a cluster; the clusters are cut in order, and only
        # the last one is reused by slots left without clusters
        assert all(groups)
        assert list(dict.fromkeys(sum(groups, ()))) == list(clusters)
        assert max(map(len, groups)) == math.ceil(n_clusters / slots)

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

    def test_digital_only_stage(self):
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
        result = simulate(arch, workload)
        assert result.completed
        assert result.tracer.clusters[0].digital > 0

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
