"""Tests for CI's base-vs-head benchmark regression gate (tools/perfbench_gate.py)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = SPEC["end_to_end"]


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "perfbench_gate", ROOT / "tools" / "perfbench_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()

#: a stand-in for perfbench/run.py: prints a progress line, then the result
#: stored next to it, with the arguments it was given.
STUB_RUN = """\
import json
import sys
from pathlib import Path

print("setting up")
result = json.loads((Path(__file__).parent / "result.json").read_text())
result["argv"] = sys.argv[1:]
print(json.dumps(result))
sys.exit(result.get("exit", 0))
"""


def _result(correct=True, failed=0, **values):
    """A run.py result line: every end-to-end metric at 1.0 unless overridden."""
    metrics = {metric["name"]: {"value": 1.0, "unit": metric["unit"]} for metric in METRICS}
    for name, value in values.items():
        metrics[name]["value"] = value
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}


def _checkout(root, result):
    """A directory laid out like a checkout, whose run.py prints ``result``."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN)
    (root / "perfbench" / "result.json").write_text(json.dumps(result))
    return root


def _metric(name):
    return next(metric for metric in METRICS if metric["name"] == name)


class TestCompare:
    def test_identical_runs_pass(self):
        rows, failures = gate.compare("headline_b16", _result(), _result(), METRICS)
        assert failures == []
        assert len(rows) == len(METRICS)

    def test_slowdown_within_bound_passes(self):
        head = _result(op_p50_s=1.2)
        assert gate.compare("headline_b16", _result(), head, METRICS)[1] == []

    def test_slowdown_beyond_bound_fails_naming_metric_and_values(self):
        head = _result(op_p50_s=1.3)
        rows, failures = gate.compare("headline_b16", _result(), head, METRICS)
        assert failures == ["headline_b16: op_p50_s 1 -> 1.3  worse by more than 25%"]
        flagged = [row for row in rows if "worse" in row]
        assert len(flagged) == 1 and "op_p50_s" in flagged[0]

    def test_change_of_exactly_the_bound_passes(self):
        head = _result(op_p50_s=1.25, ops_per_s=0.75)
        assert gate.compare("headline_b16", _result(), head, METRICS)[1] == []

    def test_higher_is_better_drop_beyond_bound_fails(self):
        head = _result(ops_per_s=0.7)
        failures = gate.compare("ladder_sweep", _result(), head, METRICS)[1]
        assert len(failures) == 1 and "ops_per_s" in failures[0]

    def test_improvements_never_fail(self):
        faster = {
            metric["name"]: 0.1 if metric["better"] == "lower" else 10.0
            for metric in METRICS
        }
        head = _result(**faster)
        assert gate.compare("analog_accuracy", _result(), head, METRICS)[1] == []

    def test_unknown_direction_is_rejected(self):
        metric = dict(_metric("op_p50_s"), better="Lower")
        with pytest.raises(ValueError, match="unknown direction 'Lower'"):
            gate.compare("headline_b16", _result(), _result(), [metric])

    def test_head_not_correct_fails(self):
        failures = gate.compare("headline_b16", _result(), _result(correct=False), METRICS)[1]
        assert failures == ["headline_b16: head is not correct"]

    def test_more_failed_ops_than_base_fails(self):
        failures = gate.compare("batch64_ffwd", _result(), _result(failed=1), METRICS)[1]
        assert failures == ["batch64_ffwd: head failed 1 op(s), base 0"]

    def test_metric_missing_from_base_is_not_gated(self):
        base = _result()
        del base["metrics"]["op_tail_s"]
        rows, failures = gate.compare("headline_b16", base, _result(op_tail_s=9.0), METRICS)
        assert failures == []
        assert any("op_tail_s" in row and "new metric, not gated" in row for row in rows)

    def test_metric_missing_from_head_fails(self):
        head = _result()
        del head["metrics"]["peak_rss_mb"]
        failures = gate.compare("headline_b16", _result(), head, METRICS)[1]
        assert failures == ["headline_b16: head reports no peak_rss_mb"]


class TestBenchmarkDeclaration:
    def test_every_workload_has_a_seed(self):
        assert list(gate.SEEDS) == [workload["name"] for workload in SPEC["workloads"]]

    def test_every_end_to_end_metric_has_a_direction_and_bound(self):
        for metric in METRICS:
            assert metric["better"] in ("lower", "higher"), metric
            assert metric["bound"] > 0, metric


class TestRuns:
    def test_run_workload_passes_the_gate_arguments_and_reads_the_last_line(self, tmp_path):
        checkout = _checkout(tmp_path / "head", _result(op_p50_s=0.5))
        result = gate.run_workload(checkout, "analog_accuracy", 1)
        assert result["metrics"]["op_p50_s"]["value"] == 0.5
        assert result["argv"] == [
            "--workload", "analog_accuracy", "--seed", "1",
            "--seconds", str(gate.SECONDS), "--trace", "0",
        ]

    def test_run_workload_raises_when_the_run_fails(self, tmp_path):
        checkout = _checkout(tmp_path / "head", dict(_result(), exit=2))
        with pytest.raises(subprocess.CalledProcessError):
            gate.run_workload(checkout, "headline_b16", 0)

    def _gate(self, tmp_path, monkeypatch, head_result):
        base = _checkout(tmp_path / "base", _result())
        head = _checkout(tmp_path / "head", head_result)
        (head / "BENCHMARK.json").write_text(json.dumps(SPEC))
        monkeypatch.chdir(head)
        monkeypatch.setattr(gate, "BASE", base)
        return gate.main()

    def test_main_passes_when_head_matches_base(self, tmp_path, monkeypatch, capsys):
        assert self._gate(tmp_path, monkeypatch, _result()) == 0
        out = capsys.readouterr().out
        assert out.count("base 1") == len(SPEC["workloads"]) * len(METRICS)
        assert out.strip().endswith("no end-to-end metric worse than its bound")

    def test_main_fails_on_a_regression(self, tmp_path, monkeypatch, capsys):
        assert self._gate(tmp_path, monkeypatch, _result(setup_s=2.0)) == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == len(SPEC["workloads"])
        assert all("setup_s 1 -> 2" in line for line in errors)
