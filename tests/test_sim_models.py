"""Tests for the NoC, IMA and tracer models."""

import dataclasses

import pytest

from repro.arch import ArchConfig, ClusterSpec, HBMSpec, QuadrantTopology
from repro.core import lower_to_workload
from repro.sim import (
    DataFlow,
    Engine,
    IMAJob,
    IMATimingModel,
    NocModel,
    StageDescriptor,
    SystemSimulator,
    Tracer,
    Workload,
)
from repro.sim.system import SIMULATION_ENGINES


class TestIMATiming:
    @pytest.fixture
    def timing(self):
        return IMATimingModel(ClusterSpec())

    def test_analog_latency_in_cycles(self, timing):
        assert timing.analog_cycles_per_mvm() == 130

    def test_streaming_cycles(self, timing):
        job = IMAJob(n_mvms=1, rows_used=256, cols_used=256)
        assert timing.stream_in_cycles_per_mvm(job) == 16  # 256 B over 16 ports
        assert timing.stream_out_cycles_per_mvm(job) == 32  # 512 B over 16 ports

    def test_double_buffering_hides_streaming(self, timing):
        job = IMAJob(n_mvms=100, rows_used=256, cols_used=256)
        overlapped = timing.job_cycles(job, double_buffering=True)
        sequential = timing.job_cycles(job, double_buffering=False)
        assert overlapped < sequential
        # With 130-cycle analog MVMs and <=32-cycle streams, the analog
        # latency dominates the steady state.
        assert overlapped == pytest.approx(
            timing.spec.config_cycles + 130 * 100 + 16 + 32, abs=1
        )

    def test_empty_job_costs_only_configuration(self, timing):
        job = IMAJob(n_mvms=0, rows_used=1, cols_used=1)
        assert timing.job_cycles(job) == timing.spec.config_cycles

    def test_job_cycles_grow_with_work(self, timing):
        """One more MVM costs more cycles, a partly used crossbar streams
        less and costs fewer, and a job wider than the crossbar is clamped
        to it."""
        full = IMAJob(n_mvms=50, rows_used=256, cols_used=256)
        partial = IMAJob(n_mvms=50, rows_used=64, cols_used=64)
        longer = IMAJob(n_mvms=51, rows_used=256, cols_used=256)
        oversized = IMAJob(n_mvms=50, rows_used=512, cols_used=512)
        assert timing.job_cycles(longer) > timing.job_cycles(full)
        assert timing.stream_in_cycles_per_mvm(partial) < timing.stream_in_cycles_per_mvm(full)
        assert timing.stream_out_cycles_per_mvm(partial) < timing.stream_out_cycles_per_mvm(full)
        assert timing.job_cycles(partial) < timing.job_cycles(full)
        assert timing.job_cycles(oversized) == timing.job_cycles(full)

    def test_macs_count(self):
        job = IMAJob(n_mvms=10, rows_used=100, cols_used=200)
        assert job.macs == 10 * 100 * 200

    def test_invalid_job(self):
        with pytest.raises(ValueError):
            IMAJob(n_mvms=-1, rows_used=1, cols_used=1)
        with pytest.raises(ValueError):
            IMAJob(n_mvms=1, rows_used=0, cols_used=1)


class TestNocModel:
    def _noc(self, arch=None, contention=True):
        engine = Engine()
        arch = arch or ArchConfig.scaled(16)
        return engine, NocModel(engine, arch, model_contention=contention)

    def _landing(self, src, dst, n_bytes, contention=True):
        """The cycle at which one transfer on an idle NoC lands."""
        engine, noc = self._noc(contention=contention)
        done = []
        noc.transfer_bytes(src, dst, n_bytes, lambda: done.append(engine.now))
        engine.run()
        (landed,) = done
        return landed

    def test_local_transfer_is_free(self):
        engine, noc = self._noc()
        done = []
        noc.transfer_bytes(2, 2, 1024, lambda: done.append(engine.now))
        engine.run()
        assert done == [0]
        assert noc.tracer.local_bytes == 1024

    def test_remote_transfer_latency_and_accounting(self):
        engine, noc = self._noc()
        done = []
        noc.transfer_bytes(0, 15, 6400, lambda: done.append(engine.now))
        engine.run()
        assert done and done[0] >= 100  # serialization + hops
        assert noc.tracer.noc_bytes == 6400
        assert noc.tracer.noc_byte_hops > 6400

    def test_hbm_transfer_uses_channel(self):
        engine, noc = self._noc()
        done = []
        noc.transfer_bytes(0, None, 4096, lambda: done.append(engine.now))
        engine.run()
        assert done
        assert noc.tracer.hbm_bytes == 4096
        assert noc.hbm_busy_cycles() > 0

    def test_contention_delays_second_transfer(self):
        engine, noc = self._noc()
        times = []
        # Two transfers from different sources towards the same destination
        # cluster share the last link and must serialise on it.
        noc.transfer_bytes(0, 3, 64 * 1000, lambda: times.append(engine.now))
        noc.transfer_bytes(1, 3, 64 * 1000, lambda: times.append(engine.now))
        engine.run()
        assert len(times) == 2
        assert times[1] >= times[0] + 900

    @pytest.mark.parametrize("contention", [True, False], ids=["cont", "nocont"])
    def test_on_chip_landing_is_zero_load(self, contention):
        route = ArchConfig.scaled(16).topology().route(0, 3)
        landed = self._landing(0, 3, 64 * 10, contention)
        assert landed == route.zero_load_cycles(64 * 10)

    def test_landing_grows_with_size(self):
        assert self._landing(0, 9, 64 * 100) > self._landing(0, 9, 64)

    def test_every_hbm_burst_pays_the_access_latency(self):
        one_burst = self._landing(None, 0, 1024)
        four_bursts = self._landing(None, 0, 4096)
        assert four_bursts > one_burst + 2 * 100

    def test_invalid_transfer(self):
        __, noc = self._noc()
        with pytest.raises(ValueError, match="on-chip endpoint"):
            noc.transfer_bytes(None, None, 10, lambda: None)
        with pytest.raises(ValueError, match="negative"):
            noc.transfer_bytes(0, 1, -5, lambda: None)


#: Table I's links and HBM on 64 clusters, and the same links with an HBM
#: channel four times as wide and no access latency: its channel service is
#: shorter than a burst's serialisation on the links.
TABLE1_ARCH = ArchConfig.scaled(64)
FAST_HBM_ARCH = dataclasses.replace(
    TABLE1_ARCH, hbm=HBMSpec(access_latency_cycles=0, data_width_bytes=256)
)


def _one_transfer(kind, n_bytes):
    """A one-job workload that moves ``n_bytes`` once, between endpoints of
    ``kind``, and completes its last stage at the landing.  Every stage is
    digital with no cost.  Returns the workload, the transfer's source and
    destination (``None`` = HBM) and the id of the stage that completes."""

    def stage(stage_id, cluster, inputs=(), outputs=()):
        return StageDescriptor(
            stage_id=stage_id, name=f"s{stage_id}", digital_clusters=(cluster,),
            inputs=inputs, outputs=outputs,
        )

    if kind == "hbm->cluster":
        stages = [stage(0, 5, inputs=(DataFlow("hbm", n_bytes, label="in"),))]
        src, dst = None, 5
    elif kind == "cluster->hbm":
        stages = [stage(0, 5, outputs=(DataFlow("hbm", n_bytes, label="out"),))]
        src, dst = 5, None
    else:
        dst = 5 if kind == "same-cluster" else 40
        stages = [
            stage(0, 5, outputs=(DataFlow("stage", n_bytes, stage_id=1),)),
            stage(1, dst, inputs=(DataFlow("stage", n_bytes, stage_id=0),)),
        ]
        src = 5
    workload = Workload(kind, stages, n_jobs=1, batch_size=1, tiles_per_image=1)
    return workload, src, dst, stages[-1].stage_id


class TestIsolatedTransfer:
    """One transfer on an idle system lands at the same cycle with
    contention on and off, on both kernels: contention off models the
    links and HBM channels as idle, not as faster."""

    @pytest.mark.parametrize("engine", SIMULATION_ENGINES)
    @pytest.mark.parametrize(
        "kind", ["cluster->cluster", "hbm->cluster", "cluster->hbm", "same-cluster"]
    )
    @pytest.mark.parametrize("arch", [TABLE1_ARCH, FAST_HBM_ARCH], ids=["table1", "fast-hbm"])
    def test_contention_off_lands_with_contention_on(self, arch, kind, engine):
        n_bytes = 4096
        workload, src, dst, last = _one_transfer(kind, n_bytes)
        landings = {}
        for contention in (True, False):
            result = SystemSimulator(arch, workload, contention, engine=engine).run()
            (landings[contention],) = result.completion_trace(last)
        # the burst enters the NoC when the source's DMA has pushed it out
        entry = arch.cluster.dma_cycles(n_bytes) if src is not None else 0
        if src == dst:
            expected = entry  # an L1-to-L1 copy touches no link
        else:
            route = arch.topology().route_between(src, dst)
            slowest = route.serialization_cycles(n_bytes)
            if src is None or dst is None:
                slowest = max(slowest, arch.hbm.service_cycles(n_bytes))
            expected = entry + route.hop_latency_cycles + slowest
        assert landings == {True: expected, False: expected}


class TestTracer:
    def test_cluster_accounting(self):
        tracer = Tracer()
        tracer.record_cluster(3, "analog", 100, end_cycle=100)
        tracer.record_cluster(3, "digital", 50, end_cycle=150)
        activity = tracer.clusters[3]
        assert activity.busy == 150
        assert activity.compute == 150
        assert activity.is_analog_bound
        assert activity.sleep(1000) == 850
        assert tracer.makespan == 150

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            Tracer().record_cluster(0, "idle", 10, 10)

    def test_stage_accounting(self):
        tracer = Tracer()
        tracer.record_stage_job(7, start_cycle=10, end_cycle=60, analog_cycles=40, digital_cycles=10)
        tracer.record_stage_job(7, start_cycle=60, end_cycle=110, analog_cycles=40, digital_cycles=10)
        stage = tracer.stages[7]
        assert stage.jobs_completed == 2
        assert stage.busy == 100
        assert stage.active_span == 100

    def test_transfer_accounting(self):
        tracer = Tracer()
        tracer.record_transfer(1000, 4, to_hbm=True, links=("a", "b"), busy_cycles=20)
        tracer.record_transfer(500, 0, local=True)
        assert tracer.noc_bytes == 1000
        assert tracer.hbm_bytes == 1000
        assert tracer.local_bytes == 500
        assert tracer.noc_byte_hops == 4000
        assert tracer.busiest_links(1)[0][0] in ("a", "b")


class TestSharedTopology:
    def test_equal_configurations_share_one_topology(
        self, paper_arch, resnet_final_mapping, monkeypatch
    ):
        """Routes are a pure function of the interconnect and the cluster
        count: equal configurations share one topology, whose routes equal
        a fresh topology's for every pair the headline run plans."""
        shared = paper_arch.topology()
        assert ArchConfig.paper().topology() is shared
        assert dataclasses.replace(paper_arch, name="copy").topology() is shared
        assert ArchConfig.scaled(256).topology() is not shared
        pairs = set()
        real = QuadrantTopology.route_between

        def planning(self, src, dst):
            pairs.add((src, dst))
            return real(self, src, dst)

        monkeypatch.setattr(QuadrantTopology, "route_between", planning)
        workload = lower_to_workload(resnet_final_mapping)
        for engine in SIMULATION_ENGINES:
            SystemSimulator(ArchConfig.paper(), workload, engine=engine).run()
        monkeypatch.undo()
        fresh = QuadrantTopology(paper_arch.interconnect, paper_arch.n_clusters)
        assert pairs
        for src, dst in pairs:
            assert shared.route_between(src, dst) == fresh.route_between(src, dst)
