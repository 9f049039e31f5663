"""Scenario-layer integration of the mapping-policy registry.

Covers the ``mapping`` spec field (validation, labels, sweep axes, spec
files), fingerprint injectivity at the pipeline level (named vs inline
spellings share cache entries; schedule contents key, not paths), the
end-to-end acceptance path — a user-supplied schedule file through
``mapping_stage`` → cache/store → ``SweepRunner`` with warm re-runs
rebuilding nothing — the pre-bump payload rebuild-once contract, and the
CLI policy flags.
"""

import pickle

import pytest

from repro.core import OptimizationLevel, SchedulePolicy, available_policies
from repro.core.mapping import MAPPING_PAYLOAD_VERSION
from repro.scenarios import (
    ArtifactCache,
    ArtifactStore,
    Scenario,
    ScenarioGrid,
    SpecError,
    SweepRunner,
    load_spec,
    mapping_stage,
    parse_spec,
    run_scenario,
)
from repro.scenarios import pipeline as pipeline_module
from repro.scenarios.cli import main as cli_main

TINY = Scenario(
    model="tiny_cnn",
    input_shape=(3, 32, 32),
    num_classes=10,
    n_clusters=16,
    batch_size=2,
    level="final",
)

SCHEDULE_TOML = """
name = "tiny-custom"

[layers.conv2]
replication = 2
"""


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture
def schedule_path(tmp_path):
    path = tmp_path / "sched.toml"
    path.write_text(SCHEDULE_TOML)
    return path


def counting_simulate(monkeypatch):
    """Patch the pipeline's simulate with a call counter (fork-safe)."""
    calls = []
    real = pipeline_module.simulate

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "simulate", wrapper)
    return calls


# --------------------------------------------------------------------------- #
# The `mapping` spec field
# --------------------------------------------------------------------------- #
class TestMappingField:
    def test_level_error_enumerates_the_live_registry(self):
        with pytest.raises(SpecError, match="unknown optimisation level") as err:
            TINY.replace(level="warp")
        for name in available_policies():
            assert name in str(err.value)

    def test_level_accepts_any_registered_policy(self):
        scenario = TINY.replace(level="spatial")
        assert scenario.mapping_policy.name == "spatial"
        assert scenario.label.startswith("tiny_cnn/spatial/")

    def test_mapping_overrides_level(self, schedule_path):
        scenario = TINY.replace(
            mapping={"policy": "schedule", "path": str(schedule_path)}
        )
        assert scenario.level == "final"  # untouched
        assert isinstance(scenario.mapping_policy, SchedulePolicy)
        assert "/schedule:tiny-custom/" in scenario.label

    def test_mapping_is_normalised_and_hashable(self):
        a = TINY.replace(mapping={"policy": "spatial", "conv": 2})
        b = TINY.replace(mapping=(("conv", 2), ("policy", "spatial")))
        assert a == b
        assert hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)) == a
        assert a.as_dict()["mapping"] == {"conv": 2, "policy": "spatial"}

    def test_bad_mapping_specs_fail_at_construction(self, tmp_path):
        with pytest.raises(SpecError, match="unknown mapping policy"):
            TINY.replace(mapping="warp")
        with pytest.raises(SpecError, match="unknown parameter"):
            TINY.replace(mapping={"policy": "spatial", "bogus": 1})
        with pytest.raises(SpecError, match="does not exist"):
            TINY.replace(
                mapping={"policy": "schedule", "path": str(tmp_path / "no.toml")}
            )
        with pytest.raises(SpecError, match="mapping must be"):
            TINY.replace(mapping=3.5)

    def test_mapping_as_sweep_axis(self, schedule_path):
        grid = ScenarioGrid(
            base=TINY,
            axes=(
                (
                    "mapping",
                    (
                        "naive",
                        "final",
                        {"policy": "schedule", "path": str(schedule_path)},
                    ),
                ),
            ),
        )
        labels = [s.label for s in grid.expand()]
        assert len(labels) == 3
        assert any("schedule:tiny-custom" in label for label in labels)

    def test_spec_file_with_mapping_axis(self, tmp_path, schedule_path):
        spec = tmp_path / "sweep.toml"
        spec.write_text(
            f"""
name = "policies"

[base]
model = "tiny_cnn"
input_shape = [3, 32, 32]
num_classes = 10
n_clusters = 16
batch_size = 2

[axes]
mapping = ["naive", {{policy = "schedule", path = {str(schedule_path)!r}}}]
"""
        )
        grid = load_spec(spec)
        assert len(grid.expand()) == 2

    def test_spec_file_mapping_axis_fails_eagerly(self):
        with pytest.raises(SpecError, match="unknown mapping policy"):
            parse_spec(
                {
                    "base": {"model": "tiny_cnn", "input_shape": [3, 32, 32]},
                    "axes": {"mapping": ["warp"]},
                }
            )


# --------------------------------------------------------------------------- #
# Fingerprint injectivity at the pipeline level
# --------------------------------------------------------------------------- #
class TestPolicyCacheKeys:
    def test_named_and_inline_spellings_share_cache_entries(self):
        graph, arch = TINY.build_graph(), TINY.build_arch()
        cache = ArtifactCache()
        first = mapping_stage(graph, arch, 2, "final", cache=cache)
        assert cache.stats.miss_count("mapping") == 1
        second = mapping_stage(graph, arch, 2, {"policy": "final"}, cache=cache)
        assert cache.stats.miss_count("mapping") == 1  # served, not rebuilt
        assert second is first
        # the enum spelling hits the same entry too (key stability)
        third = mapping_stage(
            graph, arch, 2, OptimizationLevel.FINAL, cache=cache
        )
        assert third is first

    def test_schedule_content_change_misses_cleanly(self, schedule_path):
        graph, arch = TINY.build_graph(), TINY.build_arch()
        cache = ArtifactCache()
        spec = {"policy": "schedule", "path": str(schedule_path)}
        mapping_stage(graph, arch, 2, spec, cache=cache)
        mapping_stage(graph, arch, 2, spec, cache=cache)
        assert cache.stats.miss_count("mapping") == 1
        schedule_path.write_text(
            SCHEDULE_TOML.replace("replication = 2", "replication = 4")
        )
        changed = mapping_stage(graph, arch, 2, spec, cache=cache)
        assert cache.stats.miss_count("mapping") == 2  # new contents, new key
        conv2 = next(n.node_id for n in graph.nodes if n.name == "conv2")
        assert changed.layers[conv2].replication == 4


# --------------------------------------------------------------------------- #
# End-to-end: schedule file through store + SweepRunner, warm re-runs
# --------------------------------------------------------------------------- #
class TestScheduleEndToEnd:
    def test_schedule_scenario_runs_and_warm_rerun_rebuilds_nothing(
        self, store, schedule_path, monkeypatch
    ):
        calls = counting_simulate(monkeypatch)
        scenario = TINY.replace(
            mapping={"policy": "schedule", "path": str(schedule_path)}
        )
        cold = run_scenario(scenario, ArtifactCache(store=store))
        assert len(calls) == 1
        assert cold.mapping.policy == "schedule:tiny-custom"
        warm_cache = ArtifactCache(store=store)  # simulates a new process
        warm = run_scenario(scenario, warm_cache)
        assert len(calls) == 1  # zero new simulate() calls
        assert warm_cache.stats.miss_count("mapping") == 0
        assert warm_cache.stats.disk_hit_count("mapping") == 1
        assert warm_cache.stats.miss_count("simulation") == 0
        assert warm.metrics == cold.metrics
        assert warm.mapping == cold.mapping

    def test_sweep_over_ladder_and_schedule(self, store, schedule_path):
        grid = ScenarioGrid(
            base=TINY,
            axes=(
                (
                    "mapping",
                    (
                        "naive",
                        "final",
                        {"policy": "schedule", "path": str(schedule_path)},
                    ),
                ),
            ),
        )
        cold = SweepRunner(max_workers=1, cache=ArtifactCache(store=store)).run(grid)
        assert len(cold.outcomes) == 3
        policies = {o.mapping.policy for o in cold.outcomes}
        assert policies == {"naive", "final", "schedule:tiny-custom"}
        warm_cache = ArtifactCache(store=store)
        warm = SweepRunner(max_workers=1, cache=warm_cache).run(grid)
        assert warm_cache.stats.miss_count("mapping") == 0
        assert warm_cache.stats.miss_count("simulation") == 0
        for before, after in zip(cold.outcomes, warm.outcomes):
            assert before.metrics == after.metrics

    def test_pre_bump_store_entry_rebuilds_once(self, store):
        """A payload stamped with the pre-bump version reads as a miss."""
        cache = ArtifactCache(store=store)
        graph, arch = TINY.build_graph(), TINY.build_arch()
        mapping = mapping_stage(graph, arch, 2, "final", cache=cache)
        region_dir = store._namespace / "mapping"
        stamped = 0
        for path in region_dir.rglob("*"):
            if not path.is_file():
                continue
            envelope = pickle.loads(path.read_bytes())
            # regress the stamp to the pre-provenance version (v1)
            envelope["payload"]["version"] = MAPPING_PAYLOAD_VERSION - 1
            path.write_bytes(pickle.dumps(envelope))
            stamped += 1
        assert stamped == 1
        fresh = ArtifactCache(store=store)
        rebuilt = mapping_stage(graph, arch, 2, "final", cache=fresh)
        assert fresh.stats.miss_count("mapping") == 1  # rebuilt, not served
        assert fresh.stats.disk_hit_count("mapping") == 0
        assert rebuilt.record() == mapping.record()
        # the rebuild-once contract: a second fresh cache now disk-hits
        again = ArtifactCache(store=store)
        mapping_stage(graph, arch, 2, "final", cache=again)
        assert again.stats.disk_hit_count("mapping") == 1
        assert again.stats.miss_count("mapping") == 0


# --------------------------------------------------------------------------- #
# CLI flags
# --------------------------------------------------------------------------- #
def write_spec(tmp_path):
    spec = tmp_path / "spec.toml"
    spec.write_text(
        """
name = "cli"

[base]
model = "tiny_cnn"
input_shape = [3, 32, 32]
num_classes = 10
n_clusters = 16
batch_size = 2
"""
    )
    return spec


class TestCli:
    def test_list_policies_needs_no_spec(self, capsys):
        assert cli_main(["--list-policies"]) == 0
        out = capsys.readouterr().out
        for name in available_policies():
            assert name in out

    def test_spec_required_otherwise(self, capsys):
        with pytest.raises(SystemExit):
            cli_main([])
        assert "spec file is required" in capsys.readouterr().err

    def test_policy_flag_pins_every_scenario(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert cli_main([str(spec), "--policy", "naive", "--list"]) == 0
        out = capsys.readouterr().out
        assert "tiny_cnn/naive/" in out

    def test_unknown_policy_is_a_spec_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert cli_main([str(spec), "--policy", "warp"]) == 2
        assert "unknown mapping policy" in capsys.readouterr().err
