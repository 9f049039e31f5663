"""Tests for the accuracy axis: execution specs, the accuracy stage, caching.

The headline acceptance tests live here: the ``execution`` block makes the
analog functional backends a first-class scenario dimension — the digital
backend reproduces :class:`ReferenceExecutor` bit-for-bit, a warm accuracy
sweep (serial or parallel, through the persistent store) performs zero new
executor runs, and accuracy cache keys are stable across spec spellings
(preset name vs equivalent inline mapping) while staying injective on
distinct noise/converter configurations.
"""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.aimc import NOISE_PRESETS, NoiseModel, resolve_noise_spec
from repro.dnn.numerics import ReferenceExecutor, initialize_parameters, random_input
from repro.scenarios import (
    ACCURACY_PAYLOAD_VERSION,
    AccuracyRecord,
    ArtifactCache,
    ArtifactStore,
    ExecutionSpec,
    Scenario,
    ScenarioGrid,
    SpecError,
    SweepRunner,
    accuracy_stage,
    graph_stage,
    load_spec,
    parse_spec,
    run_scenario,
)
from repro.scenarios import pipeline as pipeline_module
from repro.scenarios.cli import main as cli_main
from repro.scenarios.fingerprint import accuracy_key

REPO_ROOT = Path(__file__).resolve().parents[1]

TINY = Scenario(
    model="tiny_cnn",
    input_shape=(3, 16, 16),
    num_classes=10,
    n_clusters=16,
    batch_size=2,
    level="final",
    execution=ExecutionSpec(backend="vectorized", noise="typical"),
)


def counting_executors(monkeypatch):
    """Patch the pipeline's executor classes with construction counters."""
    calls = {"analog": 0, "digital": 0}
    real_analog = pipeline_module.AnalogExecutor
    real_digital = pipeline_module.ReferenceExecutor

    def analog(*args, **kwargs):
        calls["analog"] += 1
        return real_analog(*args, **kwargs)

    def digital(*args, **kwargs):
        calls["digital"] += 1
        return real_digital(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "AnalogExecutor", analog)
    monkeypatch.setattr(pipeline_module, "ReferenceExecutor", digital)
    return calls


# --------------------------------------------------------------------------- #
# Spec layer
# --------------------------------------------------------------------------- #
class TestExecutionSpec:
    def test_defaults_and_labels(self):
        spec = ExecutionSpec()
        assert spec.backend == "vectorized"
        assert spec.noise_label == "typical"
        assert spec.label == "vectorized:typical"
        assert ExecutionSpec(dac_bits=6, adc_bits=4).label == "vectorized:typical:d6a4"

    def test_validation(self):
        with pytest.raises(SpecError, match="unknown execution backend"):
            ExecutionSpec(backend="gpu")
        with pytest.raises(SpecError, match="unknown noise preset"):
            ExecutionSpec(noise="noisy")
        with pytest.raises(SpecError, match="dac_bits"):
            ExecutionSpec(dac_bits=0)
        with pytest.raises(SpecError, match="adc_bits must be in 2..16"):
            ExecutionSpec(adc_bits=1)
        with pytest.raises(SpecError, match="n_inputs"):
            ExecutionSpec(n_inputs=0)
        # seeds and input counts that numpy or range() would reject (or, for
        # a bool, quietly read as 0 or 1) fail here, naming field and value
        with pytest.raises(SpecError, match=r"seed must be non-negative, got -1"):
            ExecutionSpec(seed=-1)
        for bad in (1.5, "3", True, None):
            with pytest.raises(SpecError, match=rf"seed must be an integer, got {bad!r}"):
                ExecutionSpec(seed=bad)
        for bad in (1.5, "3", True):
            with pytest.raises(
                SpecError, match=rf"n_inputs must be an integer, got {bad!r}"
            ):
                ExecutionSpec(n_inputs=bad)
        with pytest.raises(SpecError, match=r"n_inputs must be positive, got -2"):
            ExecutionSpec(n_inputs=-2)
        spec = ExecutionSpec(seed=np.int64(3), n_inputs=np.int32(2))
        assert type(spec.seed) is int and type(spec.n_inputs) is int
        assert spec == ExecutionSpec(seed=3, n_inputs=2)
        with pytest.raises(SpecError, match="unknown noise field"):
            ExecutionSpec(noise={"amplitude": 3.0})
        # bad resolved values also fail at spec time, not mid-sweep
        with pytest.raises(SpecError, match="ir_drop_factor"):
            ExecutionSpec(noise={"ir_drop_factor": 2.0})

    def test_converter_widths_must_be_integers(self):
        """A float, a string or a bool width fails when the spec is built,
        naming field and value; numpy integers are stored as ``int``."""
        for name in ("dac_bits", "adc_bits"):
            for bad in (4.5, 8.0, "8", True):
                with pytest.raises(
                    SpecError, match=rf"{name} must be an integer, got {bad!r}"
                ):
                    ExecutionSpec(**{name: bad})
        spec = ExecutionSpec(dac_bits=np.int64(6), adc_bits=np.int32(4))
        assert type(spec.dac_bits) is int and type(spec.adc_bits) is int
        assert spec == ExecutionSpec(dac_bits=6, adc_bits=4)
        assert spec.label == "vectorized:typical:d6a4"
        assert spec.noise_model.dac.bits == 6 and spec.noise_model.adc.bits == 4

    def test_coercion_forms(self):
        assert ExecutionSpec.coerce("ideal") == ExecutionSpec(noise="ideal")
        spec = ExecutionSpec.coerce({"backend": "reference", "noise": {"read_noise": False}})
        assert spec.backend == "reference"
        assert spec.noise == (("read_noise", False),)
        with pytest.raises(SpecError, match="unknown execution field"):
            ExecutionSpec.coerce({"backnd": "vectorized"})
        with pytest.raises(SpecError, match="execution must be"):
            ExecutionSpec.coerce(3)
        # resolved models have no lossless inline spelling: reject loudly
        with pytest.raises(SpecError, match="not a NoiseModel"):
            ExecutionSpec(noise=NoiseModel.typical())
        with pytest.raises(SpecError, match="preset name or a field mapping"):
            ExecutionSpec(noise=3.5)

    def test_noise_label_is_spelling_independent(self):
        """The label derives from the resolved model, like the cache key:
        an inline mapping equivalent to a preset labels as that preset, so
        cached records can never be served under a mismatched label."""
        assert ExecutionSpec(noise={}).noise_label == "typical"
        assert ExecutionSpec(noise={"preset": "pessimistic"}).noise_label == "pessimistic"
        assert ExecutionSpec(noise={"drift_time_s": 3600.0}).noise_label == "drift"
        assert ExecutionSpec(noise={"ir_drop_factor": 0.99}).noise_label == "inline"

    def test_scenario_coerces_and_labels(self):
        scenario = TINY.replace(execution={"noise": "pessimistic"})
        assert isinstance(scenario.execution, ExecutionSpec)
        assert scenario.label.endswith("/vectorized:pessimistic")
        # performance-only scenarios keep their old labels
        assert "vectorized" not in TINY.replace(execution=None).label

    def test_as_dict_is_json_safe_and_round_trips(self):
        scenario = TINY.replace(
            execution={"backend": "reference", "noise": {"drift_time_s": 60.0}}
        )
        payload = json.loads(json.dumps(scenario.as_dict()))
        assert payload["execution"]["noise"] == {"drift_time_s": 60.0}
        rebuilt = Scenario(**{**payload, "input_shape": tuple(payload["input_shape"])})
        assert rebuilt == scenario
        assert pickle.loads(pickle.dumps(scenario)) == scenario

    def test_spec_file_round_trip(self, tmp_path):
        spec = tmp_path / "accuracy.toml"
        spec.write_text(
            "\n".join(
                [
                    'name = "acc"',
                    "[base]",
                    'model = "tiny_cnn"',
                    "input_shape = [3, 16, 16]",
                    "num_classes = 10",
                    "n_clusters = 16",
                    'level = "final"',
                    "[base.execution]",
                    'backend = "vectorized"',
                    "n_inputs = 2",
                    "[axes]",
                    "crossbar_size = [128, 256]",
                    'execution = ["ideal", { noise = "typical", adc_bits = 6 }]',
                ]
            )
        )
        grid = load_spec(spec)
        scenarios = grid.expand()
        assert len(scenarios) == 4
        assert scenarios[0].execution == ExecutionSpec(noise="ideal")
        assert scenarios[1].execution.adc_bits == 6
        # a bad preset in an axis fails at load time with the spec diagnostic
        bad = {"base": {}, "axes": {"execution": ["idael"]}}
        with pytest.raises(SpecError, match="unknown noise preset"):
            parse_spec(bad)


class TestNoiseResolution:
    def test_presets_resolve_to_their_models(self):
        assert resolve_noise_spec("ideal") == NoiseModel.ideal()
        assert resolve_noise_spec("typical") == NoiseModel.typical()
        assert resolve_noise_spec("pessimistic") == NoiseModel.pessimistic()
        assert resolve_noise_spec("drift") == NoiseModel.typical().with_drift(3600.0)
        assert set(NOISE_PRESETS) == {"ideal", "typical", "pessimistic", "drift"}

    def test_inline_mapping_overrides_a_preset_base(self):
        assert resolve_noise_spec({}) == NoiseModel.typical()
        assert resolve_noise_spec({"preset": "pessimistic"}) == NoiseModel.pessimistic()
        model = resolve_noise_spec({"preset": "ideal", "ir_drop_factor": 0.99})
        assert model.ir_drop_factor == 0.99 and not model.read_noise

    def test_converter_bits_override_the_resolved_model(self):
        spec = ExecutionSpec(noise="pessimistic", dac_bits=4, adc_bits=5)
        model = spec.noise_model
        assert model.dac.bits == 4 and model.adc.bits == 5
        # untouched fields of the nested specs survive the override
        assert model.adc.noise_frac == NoiseModel.pessimistic().adc.noise_frac


# --------------------------------------------------------------------------- #
# Fingerprint stability and injectivity
# --------------------------------------------------------------------------- #
class TestAccuracyKeys:
    GRAPH_FP = "g" * 64

    def key(self, spec: ExecutionSpec, crossbar: int = 256) -> str:
        return accuracy_key(
            self.GRAPH_FP,
            spec.noise_model,
            spec.backend,
            crossbar,
            spec.seed,
            spec.n_inputs,
        )

    def test_equivalent_spellings_share_one_key(self):
        """Preset name vs equivalent inline mappings: same resolved model,
        same key — the cache is addressed by content, not spelling."""
        preset = self.key(ExecutionSpec(noise="typical"))
        assert self.key(ExecutionSpec(noise={})) == preset
        assert self.key(ExecutionSpec(noise={"preset": "typical"})) == preset
        drift = self.key(ExecutionSpec(noise="drift"))
        assert self.key(ExecutionSpec(noise={"drift_time_s": 3600.0})) == drift
        # and the key is stable across processes/calls (pure content hash)
        assert self.key(ExecutionSpec(noise="typical")) == preset

    def test_distinct_configurations_get_distinct_keys(self):
        specs = [
            ExecutionSpec(),
            ExecutionSpec(noise="ideal"),
            ExecutionSpec(noise="pessimistic"),
            ExecutionSpec(noise="drift"),
            ExecutionSpec(noise={"ir_drop_factor": 0.99}),
            ExecutionSpec(backend="reference"),
            ExecutionSpec(backend="digital"),
            ExecutionSpec(dac_bits=6),
            ExecutionSpec(adc_bits=6),
            ExecutionSpec(seed=1),
            ExecutionSpec(n_inputs=2),
        ]
        keys = [self.key(spec) for spec in specs]
        assert len(set(keys)) == len(keys)
        assert self.key(ExecutionSpec(), crossbar=128) != self.key(ExecutionSpec())


# --------------------------------------------------------------------------- #
# The accuracy stage
# --------------------------------------------------------------------------- #
class TestAccuracyStage:
    @pytest.fixture(scope="class")
    def graph(self):
        return TINY.build_graph()

    def test_digital_backend_is_bit_for_bit(self, graph):
        """The digital path reproduces ReferenceExecutor exactly: RMS 0.0,
        not merely small — any nondeterminism in parameter or input
        generation would break this equality."""
        spec = ExecutionSpec(backend="digital", n_inputs=3)
        record = accuracy_stage(graph, spec, crossbar_size=256)
        assert record.rms_error == 0.0
        assert record.top1_agreement == 1.0
        assert record.total_crossbars == 0
        # the reference outputs really are the ReferenceExecutor's
        parameters = initialize_parameters(graph, seed=spec.seed)
        executor = ReferenceExecutor(graph, parameters=parameters)
        image = random_input(graph, seed=np.random.SeedSequence((spec.seed, 0)))
        expected = executor.run_output(image)
        cache = ArtifactCache()
        outputs = pipeline_module.reference_output_stage(graph, spec, cache)
        assert np.array_equal(outputs[0], expected)

    def test_ideal_noise_matches_digital_to_float_rounding(self, graph):
        for backend in ("vectorized", "reference"):
            record = accuracy_stage(
                graph, ExecutionSpec(backend=backend, noise="ideal"), crossbar_size=256
            )
            assert record.relative_rms_error < 1e-12, backend
            assert record.top1_agreement == 1.0

    def test_noise_presets_order_by_severity(self, graph):
        def rel(noise):
            return accuracy_stage(
                graph, ExecutionSpec(noise=noise, n_inputs=2), crossbar_size=256
            ).relative_rms_error

        ideal, typical, pessimistic = rel("ideal"), rel("typical"), rel("pessimistic")
        assert ideal < typical < pessimistic
        assert pessimistic > 0.1  # 6-bit converters + drift visibly degrade

    def test_converter_resolution_is_a_live_axis(self, graph):
        coarse = accuracy_stage(
            graph, ExecutionSpec(noise="typical", adc_bits=3), crossbar_size=256
        )
        fine = accuracy_stage(graph, ExecutionSpec(noise="typical"), crossbar_size=256)
        assert coarse.rms_error > fine.rms_error

    def test_record_is_plain_data(self, graph):
        record = accuracy_stage(graph, ExecutionSpec(n_inputs=2), crossbar_size=128)
        assert record.total_crossbars > 0
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record
        payload = json.loads(json.dumps(record.as_dict()))
        assert payload["n_inputs"] == 2
        assert payload["relative_rms_error"] == pytest.approx(record.relative_rms_error)

    def test_payload_round_trip_and_stale_version(self, graph):
        record = accuracy_stage(graph, ExecutionSpec(), crossbar_size=256)
        payload = record.to_payload()
        assert payload["version"] == ACCURACY_PAYLOAD_VERSION
        assert AccuracyRecord.from_payload(payload) == record
        stale = dict(payload, version=ACCURACY_PAYLOAD_VERSION + 1)
        with pytest.raises(ValueError, match="stale artifact"):
            AccuracyRecord.from_payload(stale)


# --------------------------------------------------------------------------- #
# Cache semantics
# --------------------------------------------------------------------------- #
class TestAccuracyCaching:
    def test_warm_serial_rerun_runs_zero_executors(self, monkeypatch):
        calls = counting_executors(monkeypatch)
        cache = ArtifactCache()
        cold = run_scenario(TINY, cache)
        # one analog executor + one digital reference per cold point
        assert calls == {"analog": 1, "digital": 1}
        warm = run_scenario(TINY, cache)
        assert calls == {"analog": 1, "digital": 1}  # zero new executor runs
        assert cache.stats.hit_count("accuracy") == 1
        assert warm.accuracy == cold.accuracy

    def test_reference_outputs_shared_across_noise_points(self, monkeypatch):
        calls = counting_executors(monkeypatch)
        cache = ArtifactCache()
        graph = graph_stage(TINY, cache)
        for noise in ("ideal", "typical", "pessimistic"):
            accuracy_stage(graph, ExecutionSpec(noise=noise), cache=cache)
        assert calls["digital"] == 1  # one digital forward serves all presets
        assert calls["analog"] == 3

    def test_accuracy_key_ignores_performance_only_axes(self, monkeypatch):
        """One accuracy artifact serves every cluster-count/batch point."""
        calls = counting_executors(monkeypatch)
        cache = ArtifactCache()
        grid = ScenarioGrid.from_axes(
            base=TINY, n_clusters=(8, 16), batch_size=(2, 4)
        )
        result = SweepRunner(max_workers=1, cache=cache).run(grid)
        assert len(result) == 4 and not result.failures
        assert calls["analog"] == 1
        assert cache.stats.miss_count("accuracy") == 1
        assert cache.stats.hit_count("accuracy") == 3
        records = {outcome.accuracy for outcome in result}
        assert len(records) == 1  # identical record object content

    def test_equivalent_spellings_share_one_record_with_one_label(self, monkeypatch):
        calls = counting_executors(monkeypatch)
        cache = ArtifactCache()
        graph = graph_stage(TINY, cache)
        preset = accuracy_stage(graph, ExecutionSpec(noise="typical"), cache=cache)
        inline = accuracy_stage(graph, ExecutionSpec(noise={}), cache=cache)
        assert calls["analog"] == 1  # second spelling served from cache
        assert inline is preset
        assert preset.noise_label == "typical"

    def test_digital_backend_shares_one_record_across_noise_and_crossbars(
        self, monkeypatch
    ):
        """The digital path reads neither noise nor crossbar geometry, so
        its key normalises both: one control record serves the grid."""
        calls = counting_executors(monkeypatch)
        cache = ArtifactCache()
        graph = graph_stage(TINY, cache)
        records = [
            accuracy_stage(
                graph,
                ExecutionSpec(backend="digital", noise=noise),
                crossbar_size=crossbar,
                cache=cache,
            )
            for noise in ("ideal", "pessimistic")
            for crossbar in (128, 256)
        ]
        assert cache.stats.miss_count("accuracy") == 1
        assert all(record is records[0] for record in records)
        assert records[0].crossbar_size == 0
        assert records[0].noise_label == "n/a"
        # one digital run for the record + one for the shared reference
        assert calls == {"analog": 0, "digital": 2}

    def test_warm_store_serves_accuracy_across_processes(self, tmp_path, monkeypatch):
        calls = counting_executors(monkeypatch)
        store = ArtifactStore(tmp_path / "store")
        cold = run_scenario(TINY, ArtifactCache(store=store))
        assert calls == {"analog": 1, "digital": 1}
        assert store.size("accuracy") == 1
        fresh = ArtifactCache(store=store)  # simulates a new process
        warm = run_scenario(TINY, fresh)
        assert calls == {"analog": 1, "digital": 1}  # record rehydrated, not rebuilt
        assert fresh.stats.miss_count("accuracy") == 0
        assert fresh.stats.disk_hit_count("accuracy") == 1
        assert warm.accuracy == cold.accuracy

    def test_stale_accuracy_payload_forces_rebuild(self, tmp_path, monkeypatch):
        calls = counting_executors(monkeypatch)
        store = ArtifactStore(tmp_path / "store")
        run_scenario(TINY, ArtifactCache(store=store))
        region_dir = store._namespace / "accuracy"
        stamped = 0
        for path in region_dir.rglob("*"):
            if not path.is_file():
                continue
            envelope = pickle.loads(path.read_bytes())
            envelope["payload"]["version"] = ACCURACY_PAYLOAD_VERSION + 1
            path.write_bytes(pickle.dumps(envelope))
            stamped += 1
        assert stamped == 1
        fresh = ArtifactCache(store=store)
        run_scenario(TINY, fresh)
        assert calls["analog"] == 2  # rebuilt, not served stale
        assert fresh.stats.miss_count("accuracy") == 1
        assert fresh.stats.disk_hit_count("accuracy") == 0


# --------------------------------------------------------------------------- #
# Acceptance: the example spec through the sweep engine and the CLI
# --------------------------------------------------------------------------- #
class TestAccuracySweepAcceptance:
    EXAMPLE = REPO_ROOT / "examples" / "accuracy_sweep.toml"

    def test_example_spec_expands_to_the_preset_grid(self):
        grid = load_spec(self.EXAMPLE)
        scenarios = grid.expand()
        assert len(scenarios) == 8  # 2 crossbar sizes x 4 noise presets
        labels = {s.execution.noise_label for s in scenarios}
        assert labels == {"ideal", "typical", "pessimistic", "drift"}
        assert {s.crossbar_size for s in scenarios} == {128, 256}

    def test_warm_serial_sweep_builds_nothing(self, tmp_path, monkeypatch):
        calls = counting_executors(monkeypatch)
        scenarios = load_spec(self.EXAMPLE).expand()
        store = ArtifactStore(tmp_path / "store")
        cold = SweepRunner(max_workers=1, cache=ArtifactCache(store=store)).run(
            scenarios
        )
        assert len(cold) == len(scenarios) and not cold.failures
        cold_calls = dict(calls)
        assert cold_calls["analog"] == len(scenarios)
        for outcome in cold:
            assert outcome.accuracy is not None
        warm = SweepRunner(max_workers=1, cache=ArtifactCache(store=store)).run(
            scenarios
        )
        assert calls == cold_calls  # zero new executor runs
        for region in ("accuracy", "mapping", "workload", "simulation"):
            assert warm.cache_stats.miss_count(region) == 0, region
        assert warm.cache_stats.disk_hit_count("accuracy") == len(scenarios)
        for before, after in zip(cold, warm):
            assert before.accuracy == after.accuracy
            assert before.metrics == after.metrics

    def test_warm_parallel_sweep_builds_nothing(self, tmp_path):
        """Aggregated worker cache stats prove zero executor/simulate runs
        across every worker of a warm parallel re-run."""
        scenarios = load_spec(self.EXAMPLE).expand()
        store = ArtifactStore(tmp_path / "store")
        cold = SweepRunner(
            max_workers=2, cache=ArtifactCache(store=store), on_error="record"
        ).run(scenarios)
        assert len(cold) == len(scenarios) and not cold.failures
        assert store.size("accuracy") == len(scenarios)
        warm = SweepRunner(
            max_workers=2, cache=ArtifactCache(store=store), on_error="record"
        ).run(scenarios)
        assert len(warm) == len(scenarios) and not warm.failures
        for region in ("accuracy", "mapping", "workload", "simulation"):
            assert warm.cache_stats.miss_count(region) == 0, region
        assert warm.cache_stats.disk_hit_count("accuracy") == len(scenarios)
        for before, after in zip(cold, warm):
            assert before.accuracy == after.accuracy

    def test_sweep_result_as_dict_carries_accuracy(self):
        result = SweepRunner(max_workers=1).run([TINY, TINY.replace(execution=None)])
        payload = json.loads(json.dumps(result.as_dict()))
        accuracy = payload["outcomes"][0]["accuracy"]
        assert accuracy["backend"] == "vectorized"
        assert accuracy["rms_error"] > 0
        assert payload["outcomes"][1]["accuracy"] is None

    def test_cli_reports_accuracy_columns_and_json(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = cli_main(
            [str(self.EXAMPLE), "--json", str(out), "--cache-dir", str(tmp_path / "s")]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "rel RMSE" in printed and "top1" in printed
        payload = json.loads(out.read_text())
        assert all(o["accuracy"] is not None for o in payload["outcomes"])
        labels = {o["accuracy"]["noise_label"] for o in payload["outcomes"]}
        assert labels == {"ideal", "typical", "pessimistic", "drift"}
