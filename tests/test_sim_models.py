"""Tests for the NoC, IMA and tracer models."""

import pytest

from repro.arch import ArchConfig, ClusterSpec
from repro.sim import (
    Engine,
    IMAJob,
    IMATimingModel,
    NocModel,
    Tracer,
    TransferRequest,
)


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

    def test_local_transfer_is_free(self):
        engine, noc = self._noc()
        done = []
        noc.transfer(TransferRequest(2, 2, 1024), lambda: done.append(engine.now))
        engine.run()
        assert done == [0]
        assert noc.tracer.local_bytes == 1024

    def test_remote_transfer_latency_and_accounting(self):
        engine, noc = self._noc()
        done = []
        noc.transfer(TransferRequest(0, 15, 6400), lambda: done.append(engine.now))
        engine.run()
        assert done and done[0] >= 100  # serialization + hops
        assert noc.tracer.noc_bytes == 6400
        assert noc.tracer.noc_byte_hops > 6400

    def test_hbm_transfer_uses_channel(self):
        engine, noc = self._noc()
        done = []
        noc.transfer(TransferRequest(0, None, 4096), lambda: done.append(engine.now))
        engine.run()
        assert done
        assert noc.tracer.hbm_bytes == 4096
        assert noc.hbm_busy_cycles() > 0

    def test_contention_delays_second_transfer(self):
        engine, noc = self._noc()
        times = []
        # Two transfers from different sources towards the same destination
        # cluster share the last link and must serialise on it.
        noc.transfer(TransferRequest(0, 3, 64 * 1000), lambda: times.append(engine.now))
        noc.transfer(TransferRequest(1, 3, 64 * 1000), lambda: times.append(engine.now))
        engine.run()
        assert len(times) == 2
        assert times[1] >= times[0] + 900

    def test_no_contention_mode_is_zero_load(self):
        engine, noc = self._noc(contention=False)
        times = []
        noc.transfer(TransferRequest(0, 3, 64 * 10), lambda: times.append(engine.now))
        engine.run()
        request = TransferRequest(0, 3, 64 * 10)
        assert times[0] == noc.estimate_cycles(request)

    def test_estimate_cycles_monotonic_in_size(self):
        __, noc = self._noc()
        small = noc.estimate_cycles(TransferRequest(0, 9, 64))
        large = noc.estimate_cycles(TransferRequest(0, 9, 64 * 100))
        assert large > small

    def test_hbm_burst_cost_reflected_in_estimate(self):
        __, noc = self._noc()
        one_burst = noc.estimate_cycles(TransferRequest(None, 0, 1024))
        four_bursts = noc.estimate_cycles(TransferRequest(None, 0, 4096))
        assert four_bursts > one_burst + 2 * 100

    def test_invalid_request(self):
        with pytest.raises(ValueError):
            TransferRequest(None, None, 10)
        with pytest.raises(ValueError):
            TransferRequest(0, 1, -5)


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
