"""Open-system serving workloads: arrival processes and their contracts.

Four contracts pinned here:

* **Generator determinism** — every registered arrival process is a pure
  function of its parameters (the Poisson process of its seed), always
  producing non-decreasing integer schedules.
* **Trace round-trip** — an SWF-style trace file written and re-loaded
  yields the identical ``Workload``; malformed records raise the typed
  :class:`~repro.sim.ArrivalTraceError` naming the file and line.
* **Fast-forward refusal** — the steady-state fast-forward refuses any
  arrival-gated workload (the schedule, not the pipeline, paces it, and
  extrapolation cannot reproduce per-request completions), so
  ``simulate(fast_forward=True)`` takes the verified full run with
  ``fast_forwarded=False`` provenance, bit-identically.
* **Closed-batch back-compat** — the ``arrival_cycles`` field is omitted
  from fingerprints while it keeps its default, so every closed-batch
  content digest and simulation key is byte-identical to the pre-serving
  expectation (pinned below as hex), and metric records written before the
  serving axis round-trip unchanged.
"""

import dataclasses

import pytest

from repro.analysis.metrics import PerformanceMetrics, compute_metrics, percentile
from repro.scenarios.fingerprint import arch_key, content_digest, simulation_key
from repro.sim import (
    ArrivalError,
    ArrivalTraceError,
    BurstyArrivals,
    DeterministicArrivals,
    PoissonArrivals,
    SIMULATION_ENGINES,
    TraceArrivals,
    Workload,
    load_arrival_trace,
    resolve_arrivals,
    result_mismatches,
    simulate,
)
from repro.sim.steady_state import fast_forward_simulate

from test_sim_fast_forward import ARCH64, _chain


# --------------------------------------------------------------------------- #
# Generators: seeded, reproducible, monotone
# --------------------------------------------------------------------------- #
ALL_PROCESSES = [
    DeterministicArrivals(interval_cycles=300),
    DeterministicArrivals(interval_cycles=0, start_cycle=50),
    PoissonArrivals(mean_interarrival_cycles=250.0, seed=7),
    PoissonArrivals(mean_interarrival_cycles=1.5, seed=0),
    BurstyArrivals(burst_size=8, burst_interval_cycles=2000),
    BurstyArrivals(burst_size=3, burst_interval_cycles=0, start_cycle=9),
]


class TestGenerators:
    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=str)
    def test_same_parameters_same_timestamps(self, process):
        first = process.generate(48)
        second = process.generate(48)
        assert first == second
        assert len(first) == 48
        assert all(isinstance(t, int) for t in first)

    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=str)
    def test_schedules_are_non_negative_and_non_decreasing(self, process):
        arrivals = process.generate(48)
        assert arrivals[0] >= 0
        assert all(a <= b for a, b in zip(arrivals, arrivals[1:]))

    def test_deterministic_formula(self):
        assert DeterministicArrivals(300, start_cycle=10).generate(4) == (
            10, 310, 610, 910,
        )

    def test_bursty_formula(self):
        assert BurstyArrivals(2, 1000, start_cycle=5).generate(5) == (
            5, 5, 1005, 1005, 2005,
        )

    def test_poisson_seed_axis(self):
        base = PoissonArrivals(mean_interarrival_cycles=250.0, seed=7)
        assert base.generate(48) == PoissonArrivals(250.0, seed=7).generate(48)
        assert base.generate(48) != PoissonArrivals(250.0, seed=8).generate(48)
        assert base.generate(48) != PoissonArrivals(260.0, seed=7).generate(48)

    def test_prefix_stability(self):
        """A shorter run sees the same leading timestamps (truncation, not
        regeneration) — what makes trace truncation and ``with_n_jobs``
        slicing consistent with generating at the smaller size."""
        process = PoissonArrivals(mean_interarrival_cycles=400.0, seed=3)
        assert process.generate(48)[:12] == process.generate(12)


# --------------------------------------------------------------------------- #
# Trace files (SWF conventions)
# --------------------------------------------------------------------------- #
class TestTraceFiles:
    def test_round_trip(self, tmp_path):
        """write -> load -> identical Workload."""
        arrivals = PoissonArrivals(500.0, seed=5).generate(24)
        trace = tmp_path / "poisson.swf"
        trace.write_text(
            "; SWF-style header comment\n\n"
            + "".join(
                f"{job} {t} 1 -1 -1\n" for job, t in enumerate(arrivals, start=1)
            )
        )
        assert load_arrival_trace(trace) == arrivals
        workload = _chain(n_jobs=24).with_arrivals(arrivals)
        from_trace = _chain(n_jobs=24).with_arrivals(
            TraceArrivals(str(trace)).generate(24)
        )
        assert from_trace == workload
        assert content_digest(from_trace) == content_digest(workload)

    def test_longer_trace_truncates_shorter_raises(self, tmp_path):
        trace = tmp_path / "t.swf"
        trace.write_text("".join(f"{j} {j * 100}\n" for j in range(10)))
        assert TraceArrivals(str(trace)).generate(4) == (0, 100, 200, 300)
        with pytest.raises(ArrivalError, match="10 records.*12 jobs"):
            TraceArrivals(str(trace)).generate(12)

    @pytest.mark.parametrize(
        "line,complaint",
        [
            ("justonefield", "expected at least 2 fields"),
            ("3 soon", "not an integer"),
            ("3 -7", "negative"),
            ("3 50", "decreases below"),
        ],
    )
    def test_malformed_line_names_file_and_line(self, tmp_path, line, complaint):
        trace = tmp_path / "bad.swf"
        trace.write_text("; header\n1 100\n2 200\n" + line + "\n")
        with pytest.raises(ArrivalTraceError, match=complaint) as excinfo:
            load_arrival_trace(trace)
        assert excinfo.value.line_no == 4  # 1-based, comments counted
        assert excinfo.value.path == str(trace)
        assert f"{trace}:4:" in str(excinfo.value)

    def test_empty_trace_raises(self, tmp_path):
        trace = tmp_path / "empty.swf"
        trace.write_text("; nothing but comments\n\n")
        with pytest.raises(ArrivalError, match="no records"):
            load_arrival_trace(trace)

    def test_missing_trace_raises(self, tmp_path):
        with pytest.raises(ArrivalError, match="cannot read"):
            load_arrival_trace(tmp_path / "nope.swf")


# --------------------------------------------------------------------------- #
# The Workload field and resolve_arrivals spellings
# --------------------------------------------------------------------------- #
class TestWorkloadField:
    def test_closed_by_default(self):
        workload = _chain(n_jobs=12)
        assert workload.arrival_cycles == ()
        assert not workload.is_open

    def test_all_zero_schedule_is_still_open(self):
        workload = _chain(n_jobs=12).with_arrivals((0,) * 12)
        assert workload.is_open

    def test_length_must_match_n_jobs(self):
        with pytest.raises(ValueError, match="5 entries for 12 jobs"):
            _chain(n_jobs=12).with_arrivals((0,) * 5)

    def test_decreasing_schedule_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            _chain(n_jobs=3).with_arrivals((0, 100, 50))

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            _chain(n_jobs=3).with_arrivals((-1, 0, 0))

    def test_with_n_jobs_slices_schedule(self):
        workload = _chain(n_jobs=12).with_arrivals(tuple(range(0, 1200, 100)))
        smaller = workload.with_n_jobs(5)
        assert smaller.arrival_cycles == (0, 100, 200, 300, 400)
        with pytest.raises(ValueError):
            workload.with_n_jobs(24)  # cannot grow an open workload

    def test_resolve_spellings(self, tmp_path):
        process = PoissonArrivals(250.0, seed=7)
        assert resolve_arrivals(None) is None
        assert resolve_arrivals(process) is process
        spec = {"process": "poisson", "mean_interarrival_cycles": 250.0, "seed": 7}
        assert resolve_arrivals(spec) == process
        assert resolve_arrivals(tuple(sorted(spec.items()))) == process
        trace = tmp_path / "t.swf"
        assert resolve_arrivals(str(trace)) == TraceArrivals(str(trace))
        with pytest.raises(ArrivalError, match="unknown arrival process"):
            resolve_arrivals({"process": "fractal"})
        with pytest.raises(ArrivalError, match="'process' key"):
            resolve_arrivals({"interval_cycles": 3})
        with pytest.raises(ArrivalError, match="invalid poisson"):
            resolve_arrivals({"process": "poisson", "rate": 1.0})


# --------------------------------------------------------------------------- #
# Steady-state fast-forward refusal
# --------------------------------------------------------------------------- #
class TestFastForwardRefusal:
    def test_probe_refuses_open_workloads(self):
        from repro.sim.steady_state import REFUSAL_OPEN_WORKLOAD, FastForwardRefusal

        workload = _chain(n_jobs=96, replication=2)
        engaged = fast_forward_simulate(ARCH64, workload)
        assert not isinstance(engaged, FastForwardRefusal)  # periodic
        open_workload = workload.with_arrivals(
            DeterministicArrivals(300).generate(96)
        )
        refusal = fast_forward_simulate(ARCH64, open_workload)
        assert isinstance(refusal, FastForwardRefusal)
        assert refusal.reason == REFUSAL_OPEN_WORKLOAD

    @pytest.mark.parametrize("engine", SIMULATION_ENGINES)
    def test_simulate_takes_verified_fallback(self, engine):
        open_workload = _chain(n_jobs=96, replication=2).with_arrivals(
            PoissonArrivals(400.0, seed=2).generate(96)
        )
        full = simulate(ARCH64, open_workload, engine=engine)
        ff = simulate(ARCH64, open_workload, fast_forward=True, engine=engine)
        assert not full.fast_forwarded
        assert not ff.fast_forwarded  # provenance: the full run really ran
        assert ff.fast_forward_refusal is not None  # ...and says why
        assert result_mismatches(full, ff, ignore_provenance=True) == []
        assert len(ff.request_latencies()) == 96
        # the closed twin of the same pipeline still fast-forwards
        closed = simulate(
            ARCH64, _chain(n_jobs=96, replication=2),
            fast_forward=True, engine=engine,
        )
        assert closed.fast_forwarded


# --------------------------------------------------------------------------- #
# Closed-batch back-compat: fingerprints and records
# --------------------------------------------------------------------------- #
#: content digest of ``_chain(n_jobs=48, replication=2)`` and the simulation
#: key built from it.  The ``arrival_cycles`` field is fingerprint-omitted
#: at its default, so the digest has stayed byte-identical since the
#: pre-serving tree; a change here silently invalidates every closed-batch
#: artifact store.  The key is re-pinned once, because it hashes the
#: default engine, which moved from ``"array"`` to ``"table"``.
PINNED_CHAIN_DIGEST = "b7e0472f539fb6db2f63874e0d370a339809faf6284654fe08cc09f5bf379665"
PINNED_SIMULATION_KEY = "b243605929ebd8bcdce570e5f1f8e4a05f244b803f3fbeb77669f5062b27d216"


class TestClosedBatchBackCompat:
    def test_closed_digest_byte_identical_to_pre_serving_tree(self):
        workload = _chain(n_jobs=48, replication=2)
        assert content_digest(workload) == PINNED_CHAIN_DIGEST

    def test_closed_simulation_key_byte_identical_to_pre_serving_tree(self):
        digest = content_digest(_chain(n_jobs=48, replication=2))
        assert simulation_key(arch_key(ARCH64), digest, True, 2) == (
            PINNED_SIMULATION_KEY
        )

    def test_open_digest_differs_and_depends_on_schedule(self):
        closed = _chain(n_jobs=48, replication=2)
        open_a = closed.with_arrivals(DeterministicArrivals(300).generate(48))
        open_b = closed.with_arrivals(DeterministicArrivals(301).generate(48))
        digests = {content_digest(closed), content_digest(open_a),
                   content_digest(open_b)}
        assert len(digests) == 3

    def test_closed_results_bit_identical_to_pre_serving_behaviour(self):
        """The launch-gating hooks are inert on closed workloads: a closed
        run must stay bit-identical across both engines (the gate adds
        zero events), and must record no request completions."""
        workload = _chain(n_jobs=48, replication=2)
        python = simulate(ARCH64, workload, engine="python")
        assert result_mismatches(python, simulate(ARCH64, workload,
                                                  engine="table")) == []
        assert python.request_latencies() == ()
        assert python.tracer.request_completions == {}

    def test_pre_serving_metric_records_round_trip(self):
        """A record written before the serving fields existed still loads
        (the new fields default to None) and re-serialises cleanly."""
        workload = _chain(n_jobs=48, replication=2)
        metrics = compute_metrics(simulate(ARCH64, workload))
        payload = metrics.as_record()
        for field in ("request_latency_p50_ms", "request_latency_p95_ms",
                      "request_latency_p99_ms", "sustained_qps", "saturated"):
            assert payload.pop(field) is None
        old = PerformanceMetrics.from_record(payload)  # pre-serving payload
        assert old == metrics
        assert "request_latency_p50_ms" not in old.as_dict()


# --------------------------------------------------------------------------- #
# Serving metrics
# --------------------------------------------------------------------------- #
class TestServingMetrics:
    def test_percentile_nearest_rank(self):
        ordered = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        assert percentile(ordered, 0.50) == 50
        assert percentile(ordered, 0.95) == 100
        assert percentile(ordered, 0.99) == 100
        assert percentile([7], 0.99) == 7
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_open_run_reports_serving_metrics(self):
        workload = _chain(n_jobs=96, replication=2).with_arrivals(
            PoissonArrivals(900.0, seed=4).generate(96)
        )
        result = simulate(ARCH64, workload)
        metrics = compute_metrics(result)
        assert metrics.request_latency_p50_ms is not None
        assert (metrics.request_latency_p50_ms <= metrics.request_latency_p95_ms
                <= metrics.request_latency_p99_ms)
        assert metrics.sustained_qps > 0
        assert isinstance(metrics.saturated, bool)
        rendered = metrics.as_dict()
        assert rendered["request_latency_p99_ms"] == metrics.request_latency_p99_ms
        assert rendered["sustained_qps"] == metrics.sustained_qps
        # the percentiles are exact cycle latencies scaled to milliseconds
        latencies = sorted(result.request_latencies())
        cycle_ms = ARCH64.cycle_time_ns * 1e-6
        assert metrics.request_latency_p50_ms == (
            percentile(latencies, 0.50) * cycle_ms
        )

    def test_saturation_flag_tracks_offered_load(self):
        workload = _chain(n_jobs=96, replication=2)
        service = simulate(ARCH64, workload).steady_state_cycles_per_job()
        slow = workload.with_arrivals(
            DeterministicArrivals(int(service * 4) + 1).generate(96)
        )
        fast = workload.with_arrivals(
            DeterministicArrivals(max(1, int(service // 4))).generate(96)
        )
        assert compute_metrics(simulate(ARCH64, slow)).saturated is False
        assert compute_metrics(simulate(ARCH64, fast)).saturated is True
        # sojourn of every request is positive and exact in cycles
        latencies = simulate(ARCH64, slow).request_latencies()
        assert len(latencies) == 96 and min(latencies) > 0
