"""Tests for the performance-tracking harness (repro.perf)."""

import json

import pytest

from dataclasses import replace

from repro.perf.bench import (
    BenchConfig,
    REGRESSION_THRESHOLD,
    bench_micro_mvm,
    comparable_configs,
    compare_results,
    find_previous_result,
    load_results,
    main,
    next_output_path,
    run_benchmarks,
    write_results,
)

#: tiny configuration so scenario tests stay fast.
TINY = BenchConfig(
    repeats=1,
    micro_matrix_shape=(96, 80),
    micro_batch=4,
    crossbar_size=32,
    scenarios=("micro_mvm",),
)


def _config_dict(config):
    """The config exactly as it round-trips through a trajectory file."""
    from dataclasses import asdict

    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in asdict(config).items()
    }


class TestComparison:
    def test_no_regression_when_faster(self):
        old = {"a.x_s": 1.0, "a.speedup": 2.0}
        new = {"a.x_s": 0.9, "a.speedup": 1.0}
        assert compare_results(old, new) == []

    def test_regression_beyond_threshold_flagged(self):
        old = {"a.x_s": 1.0}
        new = {"a.x_s": 1.0 * (1.0 + REGRESSION_THRESHOLD) + 0.01}
        messages = compare_results(old, new)
        assert len(messages) == 1 and "a.x_s" in messages[0]

    def test_slowdown_within_threshold_tolerated(self):
        old = {"a.x_s": 1.0}
        new = {"a.x_s": 1.0 + REGRESSION_THRESHOLD - 0.05}
        assert compare_results(old, new) == []

    def test_non_timing_keys_ignored(self):
        old = {"a.speedup": 10.0, "a.x_s": 1.0}
        new = {"a.speedup": 1.0, "a.x_s": 1.0}
        assert compare_results(old, new) == []

    def test_disjoint_keys_ignored(self):
        assert compare_results({"a.x_s": 1.0}, {"b.y_s": 99.0}) == []

    def test_absolute_slack_absorbs_sub_millisecond_jitter(self):
        # 0.05 ms -> 0.10 ms is +100% but far below the slack scale
        assert compare_results({"a.x_s": 5e-5}, {"a.x_s": 1e-4}) == []

    def test_io_keys_gated_at_looser_threshold(self):
        from repro.perf.bench import IO_REGRESSION_THRESHOLD

        # within the IO threshold: storage jitter, not a regression
        tolerated = 1.0 * (1.0 + IO_REGRESSION_THRESHOLD) - 0.05
        assert compare_results({"a.x_io_s": 1.0}, {"a.x_io_s": tolerated}) == []
        # a catastrophic disk-path regression still trips the gate
        flagged = 1.0 * (1.0 + IO_REGRESSION_THRESHOLD) + 0.1
        messages = compare_results({"a.x_io_s": 1.0}, {"a.x_io_s": flagged})
        assert len(messages) == 1 and "a.x_io_s" in messages[0]
        # the same slowdown on a CPU-bound key is flagged as before
        assert compare_results({"a.x_s": 1.0}, {"a.x_s": tolerated})

    def test_regression_message_names_scenario_and_both_values(self):
        """The gate's diagnostic must say *what* regressed and by how much:
        scenario name, new and baseline timings, and the limit applied."""
        messages = compare_results(
            {"final_mapping.simulate_s": 0.100}, {"final_mapping.simulate_s": 0.250}
        )
        assert len(messages) == 1
        message = messages[0]
        assert "final_mapping.simulate_s" in message
        assert "scenario 'final_mapping'" in message
        assert "250.0 ms" in message  # the new timing
        assert "100.0 ms" in message  # the baseline it is compared against
        assert "+150%" in message
        assert "limit +20%" in message

    def test_missing_baselines_names_new_scenarios(self):
        from repro.perf.bench import missing_baselines

        old = {"micro_mvm.reference_s": 1.0, "micro_mvm.speedup": 2.0}
        new = {
            "micro_mvm.reference_s": 1.0,
            "sim_engine_table.table_s": 0.1,
            "sim_engine_table.speedup": 1.8,  # non-timing: ignored
        }
        assert missing_baselines(old, new) == ["sim_engine_table"]
        assert missing_baselines(new, new) == []
        # an empty baseline (e.g. a payload without "results") flags all
        assert missing_baselines({}, old) == ["micro_mvm"]

    def test_configs_comparable_ignoring_repeats_and_scenarios(self):
        import json

        base = BenchConfig()
        other = replace(base, repeats=99, scenarios=("micro_mvm",))
        serialized = json.loads(json.dumps(_config_dict(other)))
        assert comparable_configs(serialized, base)
        assert not comparable_configs(_config_dict(BenchConfig.quick()), base)
        assert not comparable_configs(None, base)


class TestTrajectoryFiles:
    def test_no_previous_in_empty_root(self, tmp_path):
        assert find_previous_result(tmp_path) is None
        assert next_output_path(tmp_path).name == "BENCH_PR1.json"

    def test_latest_by_pr_number_not_mtime(self, tmp_path):
        for number in (2, 10, 1):
            (tmp_path / f"BENCH_PR{number}.json").write_text("{}")
        latest = find_previous_result(tmp_path)
        assert latest.name == "BENCH_PR10.json"
        assert next_output_path(tmp_path).name == "BENCH_PR11.json"

    def test_exclude_output_file(self, tmp_path):
        (tmp_path / "BENCH_PR1.json").write_text("{}")
        assert find_previous_result(tmp_path, exclude=tmp_path / "BENCH_PR1.json") is None

    def test_write_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_PR1.json"
        results = {"micro_mvm.vectorized_s": 0.001}
        write_results(path, results, TINY)
        assert load_results(path) == results
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1
        assert payload["config"]["scenarios"] == ["micro_mvm"]


class TestScenarios:
    def test_micro_mvm_reports_both_backends(self):
        results = bench_micro_mvm(TINY)
        assert results["micro_mvm.reference_s"] > 0
        assert results["micro_mvm.vectorized_s"] > 0
        assert results["micro_mvm.speedup"] > 0

    def test_run_benchmarks_respects_scenario_selection(self):
        results = run_benchmarks(TINY)
        assert set(results) == {
            "micro_mvm.reference_s",
            "micro_mvm.vectorized_s",
            "micro_mvm.speedup",
        }

    def test_sim_engine_reports_kernel_timing(self):
        from repro.perf.bench import bench_sim_engine

        results = bench_sim_engine(replace(TINY, engine_jobs=50))
        assert results["sim_engine.kernel_s"] > 0

    def test_large_batch_sim_reports_both_modes(self):
        from repro.perf.bench import bench_large_batch_sim

        config = replace(
            TINY,
            large_batch=8,
            large_input=(3, 32, 32),
            large_clusters=256,
            sim_crossbar=256,
        )
        results = bench_large_batch_sim(config)
        assert set(results) == {
            "large_batch_sim.full_s",
            "large_batch_sim.fast_forward_s",
            "large_batch_sim.ff_speedup",
        }
        assert results["large_batch_sim.full_s"] > 0
        assert results["large_batch_sim.fast_forward_s"] > 0

    def test_fast_forward_final_reports_both_modes(self):
        from repro.perf.bench import bench_fast_forward_final

        # a deliberately tiny macro: the fast-forward refuses (typed) and
        # the ff arm times the verified fallback — the key contract and
        # the positive-timing invariant hold either way, without paying
        # for the paper-sized mapping in a unit test.
        config = replace(
            TINY,
            ff_final_batch=8,
            ff_final_input=(3, 32, 32),
            ff_final_clusters=256,
            sim_crossbar=256,
        )
        results = bench_fast_forward_final(config)
        assert set(results) == {
            "fast_forward_final.full_s",
            "fast_forward_final.ff_s",
            "fast_forward_final.ff_speedup",
        }
        assert results["fast_forward_final.full_s"] > 0
        assert results["fast_forward_final.ff_s"] > 0

    def test_new_scenarios_are_in_the_default_gate(self):
        for scenarios in (BenchConfig().scenarios, BenchConfig.quick().scenarios):
            assert "sim_engine" in scenarios
            assert "sim_engine_table" in scenarios
            assert "large_batch_sim" in scenarios
            assert "fast_forward_final" in scenarios


class TestCLI:
    def _argv(self, tmp_path, *extra):
        return [
            "--quick",
            "--scenario",
            "micro_mvm",
            "--root",
            str(tmp_path),
            *extra,
        ]

    def test_quick_run_writes_outside_the_trajectory(self, tmp_path, capsys):
        assert main(self._argv(tmp_path)) == 0
        assert (tmp_path / "BENCH_QUICK.json").exists()
        assert not (tmp_path / "BENCH_PR1.json").exists()
        assert "wrote" in capsys.readouterr().out

    def test_check_mode_writes_nothing(self, tmp_path):
        assert main(self._argv(tmp_path, "--check")) == 0
        assert list(tmp_path.glob("BENCH_*.json")) == []

    def test_check_fails_on_regression(self, tmp_path):
        # previous point claims near-zero timings: anything real regresses
        write_results(
            tmp_path / "BENCH_PR1.json",
            {"micro_mvm.reference_s": 1e-12, "micro_mvm.vectorized_s": 1e-12},
            BenchConfig.quick(),
        )
        assert main(self._argv(tmp_path, "--check")) == 1

    def test_check_passes_against_slower_history(self, tmp_path):
        write_results(
            tmp_path / "BENCH_PR1.json",
            {"micro_mvm.reference_s": 1e9, "micro_mvm.vectorized_s": 1e9},
            BenchConfig.quick(),
        )
        assert main(self._argv(tmp_path, "--check")) == 0

    def test_check_skips_comparison_across_configs(self, tmp_path, capsys):
        # a full-size trajectory point must not gate a quick smoke run
        write_results(
            tmp_path / "BENCH_PR1.json",
            {"micro_mvm.reference_s": 1e-12, "micro_mvm.vectorized_s": 1e-12},
            BenchConfig(),
        )
        assert main(self._argv(tmp_path, "--check")) == 0
        assert "skipping regression comparison" in capsys.readouterr().out

    def test_check_skips_scenarios_missing_from_baseline(self, tmp_path, capsys):
        # the baseline predates the micro_mvm scenario entirely: the gate
        # must say so and pass, not die on the missing keys.
        write_results(
            tmp_path / "BENCH_PR1.json",
            {"sim_engine.kernel_s": 1e9},
            BenchConfig.quick(),
        )
        assert main(self._argv(tmp_path, "--check")) == 0
        printed = capsys.readouterr().out
        assert "new scenario 'micro_mvm'" in printed
        assert "skipped" in printed

    def test_check_tolerates_payload_without_results(self, tmp_path, capsys):
        from dataclasses import asdict

        payload = {"schema": 1, "config": asdict(BenchConfig.quick())}
        (tmp_path / "BENCH_PR1.json").write_text(json.dumps(payload))
        assert main(self._argv(tmp_path, "--check")) == 0
        assert "new scenario 'micro_mvm'" in capsys.readouterr().out

    def test_quick_reruns_overwrite_quick_file_only(self, tmp_path):
        assert main(self._argv(tmp_path)) == 0
        assert main(self._argv(tmp_path)) == 0
        names = sorted(p.name for p in tmp_path.glob("BENCH_*.json"))
        assert names == ["BENCH_QUICK.json"]

    def test_explicit_output_into_new_directory(self, tmp_path):
        target = tmp_path / "nested" / "BENCH_PR1.json"
        assert main(self._argv(tmp_path, "--output", str(target))) == 0
        assert target.exists()

    def test_profile_prints_hot_functions_and_writes_nothing(self, tmp_path, capsys):
        argv = [
            "--profile",
            "--quick",
            "--scenario",
            "sim_engine",
            "--root",
            str(tmp_path),
        ]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert "profile: sim_engine" in printed
        assert "cumtime" in printed  # the pstats table header
        assert list(tmp_path.glob("BENCH_*.json")) == []
