"""Tests for the stage pipeline, the sweep engine and the scenarios CLI.

The headline acceptance test lives here: a three-axis sweep (crossbar size
x cluster count x batch size) run through :class:`SweepRunner` — via the
in-process API and via the CLI — produces metrics identical to the
pre-refactor hand-rolled loop over :func:`repro.run_inference`, and a
cache-warm re-run performs zero new ``simulate()`` calls.
"""

import json
import os
import pickle

import pytest

from repro import run_inference
from repro.core import OptimizationLevel
from repro.scenarios import (
    ArtifactCache,
    Scenario,
    ScenarioGrid,
    SweepRunner,
    run_scenario,
    run_sweep,
)
from repro.scenarios import pipeline as pipeline_module
from repro.scenarios.cli import main as cli_main

#: the three-axis acceptance sweep: crossbar size x cluster count x batch.
BASE = Scenario(
    model="tiny_cnn",
    input_shape=(3, 32, 32),
    num_classes=10,
    level="final",
)
GRID = ScenarioGrid.from_axes(
    base=BASE,
    name="acceptance",
    crossbar_size=(128, 256),
    n_clusters=(16, 32),
    batch_size=(2, 4),
)


def numbers(metrics):
    """Every metric value except the display name (labels differ by API)."""
    return {key: value for key, value in metrics.as_record().items() if key != "name"}


def loop_based_sweep():
    """The pre-refactor form: a hand-rolled loop over run_inference."""
    metrics = {}
    for scenario in GRID.expand():
        graph = scenario.build_graph()
        arch = scenario.build_arch()
        report = run_inference(
            graph,
            arch,
            batch_size=scenario.batch_size,
            level=OptimizationLevel.FINAL,
            with_breakdown=False,
        )
        metrics[scenario.label] = report.metrics
    return metrics


class TestPipeline:
    def test_run_scenario_outcome_is_complete(self):
        outcome = run_scenario(BASE.replace(n_clusters=16, batch_size=4))
        assert outcome.simulation.completed
        assert outcome.metrics.throughput_tops > 0
        assert outcome.mapping.n_used_clusters <= 16
        assert outcome.elapsed_s > 0
        assert outcome.label == outcome.scenario.label

    def test_outcome_pickles_and_serializes(self):
        outcome = run_scenario(BASE.replace(n_clusters=16, batch_size=4))
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone.metrics == outcome.metrics
        payload = json.loads(json.dumps(outcome.as_dict()))
        assert payload["simulation"]["completed"] is True
        assert payload["metrics"]["throughput_tops"] == pytest.approx(
            outcome.metrics.throughput_tops
        )

    def test_cache_shares_work_across_levels(self):
        cache = ArtifactCache()
        for level in ("replicated", "final"):
            run_scenario(BASE.replace(n_clusters=32, level=level), cache)
        # one optimizer (balance pass) served both levels
        assert cache.stats.miss_count("optimizer") == 1
        assert cache.stats.hit_count("optimizer") == 1
        # but the two levels are distinct mappings and simulations
        assert cache.stats.miss_count("mapping") == 2
        assert cache.stats.miss_count("simulation") == 2

    def test_simulation_cache_distinguishes_archs_with_identical_workloads(self):
        """Two archs that lower to identical IR must not share a simulation.

        The simulator reads timing parameters (here the HBM burst size)
        straight from the ArchConfig; the workload IR does not encode them,
        so the simulation key must include the architecture itself.
        """
        import dataclasses

        from repro.arch import ArchConfig, HBMSpec
        from repro.core import OptimizationLevel
        from repro.scenarios import mapping_stage, simulation_stage, workload_stage

        graph = BASE.build_graph()
        cache = ArtifactCache()
        results = {}
        for burst in (64, 4096):
            arch = dataclasses.replace(
                ArchConfig.scaled(16), hbm=HBMSpec(max_burst_bytes=burst)
            )
            mapping = mapping_stage(
                graph, arch, 4, OptimizationLevel.NAIVE, cache=cache
            )
            workload = workload_stage(mapping, cache=cache)
            results[burst] = simulation_stage(arch, workload, cache=cache)
        assert cache.stats.miss_count("simulation") == 2
        assert cache.stats.hit_count("simulation") == 0
        assert results[64].arch.hbm.max_burst_bytes == 64
        assert results[4096].arch.hbm.max_burst_bytes == 4096
        # coarser bursts serve the HBM-staged traffic faster
        assert results[4096].makespan_cycles < results[64].makespan_cycles

    def test_run_inference_with_cache_reuses_simulation(self):
        cache = ArtifactCache()
        scenario = BASE.replace(n_clusters=16, batch_size=4)
        graph, arch = scenario.build_graph(), scenario.build_arch()
        first = run_inference(
            graph, arch, batch_size=4, with_breakdown=False, cache=cache
        )
        second = run_inference(
            graph, arch, batch_size=4, with_breakdown=False, cache=cache
        )
        assert second.result is first.result
        assert cache.stats.miss_count("simulation") == 1
        assert cache.stats.hit_count("simulation") == 1


class TestSweepEquivalence:
    """Acceptance: SweepRunner == the pre-refactor loop, and warm == free."""

    def test_three_axis_sweep_matches_loop_based_sweep(self, monkeypatch):
        expected = loop_based_sweep()

        simulate_calls = []
        real_simulate = pipeline_module.simulate

        def counting_simulate(*args, **kwargs):
            simulate_calls.append(1)
            return real_simulate(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "simulate", counting_simulate)

        runner = SweepRunner(max_workers=1, cache=ArtifactCache())
        cold = runner.run(GRID)
        assert len(cold) == 8
        cold_calls = len(simulate_calls)
        assert cold_calls == 8  # one simulation per scenario, none extra

        # identical metrics, scenario by scenario, to the hand-rolled loop
        for outcome in cold:
            assert numbers(outcome.metrics) == numbers(expected[outcome.scenario.label])

        # a cache-warm re-run performs ZERO new simulate() calls
        warm = runner.run(GRID)
        assert len(simulate_calls) == cold_calls
        assert runner.cache.stats.hit_count("simulation") == 8
        for before, after in zip(cold, warm):
            assert before.metrics == after.metrics

    def test_parallel_sweep_matches_serial(self):
        scenarios = GRID.expand()[:4]
        serial = SweepRunner(max_workers=1).run(scenarios)
        parallel = SweepRunner(max_workers=2).run(scenarios)
        assert parallel.n_workers in (1, 2)  # 1 only if the pool fell back
        assert [o.scenario for o in parallel] == [o.scenario for o in serial]
        for a, b in zip(serial, parallel):
            assert a.metrics == b.metrics

    def test_run_sweep_one_call(self):
        result = run_sweep(ScenarioGrid.from_axes(base=BASE.replace(n_clusters=16), batch_size=(2, 4)), max_workers=1)
        assert len(result) == 2
        assert result[0].metrics.batch_size == 2
        assert result.as_dict()["n_workers"] == 1

    def test_empty_sweep(self):
        result = SweepRunner(max_workers=1).run([])
        assert len(result) == 0 and result.n_workers == 0

    def test_infeasible_point_raises_by_default(self):
        # ResNet-18 on 2 clusters cannot be mapped.
        impossible = Scenario(
            model="resnet18", input_shape=(3, 64, 64), n_clusters=2
        )
        with pytest.raises(Exception, match="allocate"):
            SweepRunner(max_workers=1).run([impossible])

    def test_infeasible_point_recorded_when_requested(self):
        impossible = Scenario(
            model="resnet18", input_shape=(3, 64, 64), n_clusters=2
        )
        feasible = BASE.replace(n_clusters=16, batch_size=2)
        runner = SweepRunner(max_workers=1, on_error="record")
        result = runner.run([impossible, feasible])
        assert len(result) == 1
        assert result[0].scenario == feasible
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.scenario == impossible
        assert failure.error_type == "AllocationError"
        assert json.loads(json.dumps(failure.as_dict()))["error_type"] == (
            "AllocationError"
        )

    def test_invalid_error_policy_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            SweepRunner(on_error="ignore")

    def test_default_pool_fits_the_affinity_mask(self, monkeypatch):
        """``max_workers=None`` starts no more workers than the CPUs the
        process may run on, however many the machine has."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 3, 5}, raising=False)
        runner = SweepRunner()
        assert runner.resolve_workers(100) == 3
        assert runner.resolve_workers(2) == 2
        assert SweepRunner(max_workers=8).resolve_workers(100) == 8
        # without an affinity call the machine's CPU count is all there is
        monkeypatch.delattr(os, "sched_getaffinity")
        assert runner.resolve_workers(100) == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert runner.resolve_workers(100) == 1


class TestCLI:
    SPEC = {
        "name": "cli-sweep",
        "base": {
            "model": "tiny_cnn",
            "input_shape": [3, 32, 32],
            "num_classes": 10,
            "n_clusters": 16,
            "level": "final",
        },
        "axes": {"crossbar_size": [128, 256], "batch_size": [2, 4]},
    }

    def _write_spec(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(self.SPEC))
        return path

    def test_cli_runs_spec_and_writes_json(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        out = tmp_path / "results" / "out.json"
        assert cli_main([str(spec), "--json", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "cli-sweep: 4 scenario(s)" in printed
        assert "tiny_cnn/final/x128/c16/b2" in printed
        payload = json.loads(out.read_text())
        assert payload["name"] == "cli-sweep"
        assert len(payload["outcomes"]) == 4
        assert all(o["simulation"]["completed"] for o in payload["outcomes"])

    def test_cli_matches_in_process_api(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        out = tmp_path / "out.json"
        assert cli_main([str(spec), "--json", str(out)]) == 0
        capsys.readouterr()
        grid = ScenarioGrid.from_axes(
            base=Scenario(**{**self.SPEC["base"], "input_shape": (3, 32, 32)}),
            crossbar_size=(128, 256),
            batch_size=(2, 4),
        )
        api_result = SweepRunner(max_workers=1).run(grid)
        payload = json.loads(out.read_text())
        for cli_outcome, api_outcome in zip(payload["outcomes"], api_result):
            assert cli_outcome["metrics"]["makespan_ms"] == pytest.approx(
                api_outcome.metrics.makespan_ms
            )
            assert cli_outcome["scenario"]["batch_size"] == (
                api_outcome.scenario.batch_size
            )

    def test_cli_list_mode(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        assert cli_main([str(spec), "--list"]) == 0
        printed = capsys.readouterr().out
        assert printed.count("tiny_cnn/final") == 4

    def test_cli_rejects_bad_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"base": {"model": "nope"}}))
        assert cli_main([str(bad)]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_cli_reports_malformed_files_gracefully(self, tmp_path, capsys):
        # TOML syntax error
        broken_toml = tmp_path / "broken.toml"
        broken_toml.write_text("[base\nmodel = ")
        assert cli_main([str(broken_toml)]) == 2
        assert "error:" in capsys.readouterr().err
        # JSON syntax error
        broken_json = tmp_path / "broken.json"
        broken_json.write_text('{"base": {,}}')
        assert cli_main([str(broken_json)]) == 2
        assert "error:" in capsys.readouterr().err
        # well-formed file, badly-typed field
        typed = tmp_path / "typed.json"
        typed.write_text(json.dumps({"base": {"batch_size": "four"}}))
        assert cli_main([str(typed)]) == 2
        assert "error:" in capsys.readouterr().err
        # valid base, invalid axis value (only surfaces at grid expansion)
        bad_axis = tmp_path / "axis.json"
        bad_axis.write_text(
            json.dumps({"base": {"model": "tiny_cnn"}, "axes": {"batch_size": [0, 2]}})
        )
        assert cli_main([str(bad_axis)]) == 2
        assert "batch_size must be positive" in capsys.readouterr().err

    def test_cli_exit_codes_reflect_feasibility(self, tmp_path, capsys):
        # every point infeasible -> exit 1; partially infeasible -> exit 0
        all_bad = tmp_path / "allbad.json"
        all_bad.write_text(
            json.dumps(
                {"base": {"model": "resnet18", "input_shape": [3, 64, 64], "n_clusters": 2}}
            )
        )
        assert cli_main([str(all_bad)]) == 1
        assert "1 infeasible" in capsys.readouterr().out
        partial = tmp_path / "partial.json"
        partial.write_text(
            json.dumps(
                {
                    "base": {
                        "model": "tiny_cnn",
                        "input_shape": [3, 32, 32],
                        "num_classes": 10,
                        "batch_size": 2,
                    },
                    "axes": {"n_clusters": [2, 16]},
                }
            )
        )
        assert cli_main([str(partial)]) == 0
        printed = capsys.readouterr().out
        assert "infeasible" in printed
