"""Tests for the persistent on-disk artifact store (repro.scenarios.store).

The headline acceptance tests live here: a second invocation of an
identical sweep — serial via a fresh cache, or *parallel* across pool
workers — performs zero new ``simulate()`` calls because every mapping and
simulation is served from the shared on-disk store; plus the store's
versioning/corruption-tolerance rules and the compact ``NetworkMapping``
round trip.
"""

import copy
import copyreg
import dataclasses
import importlib
import io
import json
import pickle

import pytest

from repro.arch import ArchConfig
from repro.core import OptimizationLevel
from repro.core import mapping as core_mapping
from repro.core import pipeline as core_pipeline
from repro.core.mapping import MAPPING_PAYLOAD_VERSION, MappingRecord, NetworkMapping
from repro.dnn.graph import Graph
from repro.dnn.layers import ReLU
from repro.scenarios import (
    ArtifactCache,
    ArtifactStore,
    Scenario,
    ScenarioGrid,
    SweepRunner,
    fingerprint,
    graph_stage,
    mapping_stage,
    run_scenario,
    simulation_stage,
    workload_stage,
)
from repro.scenarios import pipeline as pipeline_module
from repro.scenarios.cli import main as cli_main
from repro.scenarios.fingerprint import arch_key, content_digest, simulation_key
from repro.scenarios.store import SCHEMA_VERSION
from repro.sim.compare import result_mismatches
from repro.sim.system import SIMULATION_PAYLOAD_VERSION
from repro.sim.tracer import ClusterActivity, StageActivity
from repro.sim.workload import Workload

# the package re-exports the fingerprint *function*, shadowing the
# submodule attribute; resolve the module itself for patching.
fingerprint_module = importlib.import_module("repro.scenarios.fingerprint")

TINY = Scenario(
    model="tiny_cnn",
    input_shape=(3, 32, 32),
    num_classes=10,
    n_clusters=16,
    batch_size=2,
    level="final",
)
GRID = ScenarioGrid.from_axes(
    base=TINY, name="store-sweep", crossbar_size=(128, 256), batch_size=(2, 4)
)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def counting_simulate(monkeypatch):
    """Patch the pipeline's simulate with a call counter (fork-safe)."""
    calls = []
    real = pipeline_module.simulate

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "simulate", wrapper)
    return calls


class TestStoreBasics:
    def test_roundtrip_and_miss(self, store):
        assert store.load("simulation", "a" * 64) is None
        store.store("simulation", "a" * 64, {"x": (1, 2)})
        assert store.load("simulation", "a" * 64) == {"x": (1, 2)}
        assert store.size("simulation") == 1
        assert len(store) == 1
        # other regions do not see the key
        assert store.load("mapping", "a" * 64) is None

    def test_default_root_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-root"))
        assert ArtifactStore().root == tmp_path / "env-root"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert ArtifactStore().root.name == "repro"

    def test_malformed_keys_rejected(self, store):
        with pytest.raises(ValueError, match="malformed artifact key"):
            store.load("simulation", "../escape")
        with pytest.raises(ValueError, match="malformed artifact key"):
            store.store("simulation", "", 1)

    def test_last_writer_wins(self, store):
        store.store("mapping", "k" * 64, "first")
        store.store("mapping", "k" * 64, "second")
        assert store.load("mapping", "k" * 64) == "second"
        assert store.size("mapping") == 1

    def test_unpicklable_payload_degrades_instead_of_failing(self, store):
        """A persist failure must never discard a successfully built artifact."""
        import threading

        unpicklable = threading.Lock()
        cache = ArtifactCache(store=store)
        with pytest.warns(RuntimeWarning, match="failed to persist"):
            value = cache.get_or_create(
                "simulation", "k" * 64, lambda: unpicklable, persist=True
            )
        assert value is unpicklable  # the build result survives
        assert cache.stats.miss_count("simulation") == 1
        assert store.load("simulation", "k" * 64) is None

    def test_clear_drops_current_namespace_only(self, store):
        store.store("mapping", "k" * 64, 1)
        assert len(store) == 1
        store.clear()
        assert len(store) == 0
        assert store.load("mapping", "k" * 64) is None
        store.store("mapping", "k" * 64, 2)  # still writable afterwards
        assert store.load("mapping", "k" * 64) == 2

    def test_unwritable_root_degrades_with_one_warning(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the store root should be")
        bad = ArtifactStore(blocked)
        with pytest.warns(RuntimeWarning, match="failed to persist"):
            bad.store("mapping", "k" * 64, 1)
        # second failure is silent, loads still behave as misses
        bad.store("mapping", "j" * 64, 2)
        assert bad.load("mapping", "k" * 64) is None


class TestStoreRobustness:
    def _entry_path(self, store, region, key):
        store.store(region, key, {"payload": True})
        path = store._path(region, key)
        assert path.exists()
        return path

    def test_truncated_entry_reads_as_miss_and_is_discarded(self, store):
        key = "b" * 64
        path = self._entry_path(store, "simulation", key)
        path.write_bytes(path.read_bytes()[:10])
        assert store.load("simulation", key) is None
        assert not path.exists()  # discarded so it is rebuilt exactly once

    def test_garbage_entry_reads_as_miss(self, store):
        key = "c" * 64
        path = self._entry_path(store, "workload", key)
        path.write_bytes(b"\x00not a pickle at all")
        assert store.load("workload", key) is None

    def test_stale_schema_version_reads_as_miss(self, store):
        key = "d" * 64
        path = self._entry_path(store, "mapping", key)
        envelope = pickle.loads(path.read_bytes())
        envelope["schema"] = SCHEMA_VERSION + 1
        path.write_bytes(pickle.dumps(envelope))
        assert store.load("mapping", key) is None

    def test_stale_canonical_version_reads_as_miss(self, store):
        key = "e" * 64
        path = self._entry_path(store, "mapping", key)
        envelope = pickle.loads(path.read_bytes())
        envelope["canonical"] = envelope["canonical"] + 1
        path.write_bytes(pickle.dumps(envelope))
        assert store.load("mapping", key) is None

    def test_mismatched_addressing_reads_as_miss(self, store):
        key = "f" * 64
        path = self._entry_path(store, "mapping", key)
        envelope = pickle.loads(path.read_bytes())
        envelope["key"] = "g" * 64
        path.write_bytes(pickle.dumps(envelope))
        assert store.load("mapping", key) is None

    def test_corrupt_entry_is_rebuilt_through_the_cache(self, store):
        cache = ArtifactCache(store=store)
        builds = []
        key = "h" * 64
        build = lambda: builds.append(1) or "artifact"
        cache.get_or_create("simulation", key, build, persist=True)
        store._path("simulation", key).write_bytes(b"rot")
        fresh = ArtifactCache(store=store)  # new process, warm disk
        assert fresh.get_or_create("simulation", key, build, persist=True) == "artifact"
        assert len(builds) == 2  # corrupt entry forced one rebuild
        assert fresh.get_or_create("simulation", key, build, persist=True) == "artifact"
        assert len(builds) == 2

    def test_pr4_simulation_payloads_read_as_misses_and_rebuild_once(self, tmp_path):
        """The PR 5 payload-version bump invalidates PR 4-era store entries.

        PR 5 bumped SIMULATION_PAYLOAD_VERSION (per-stage completion traces
        on the tracer, the fast_forwarded provenance flag): a warm store
        written under the old stamp must read as a miss, rebuild exactly
        once, and serve the rebuilt entry from disk afterwards.
        """
        from repro.sim.system import SIMULATION_PAYLOAD_VERSION

        assert SIMULATION_PAYLOAD_VERSION == 10  # the tracer orders records by id
        store = ArtifactStore(tmp_path / "sim-payload-store")
        cache = ArtifactCache(store=store)
        graph, arch = TINY.build_graph(), TINY.build_arch()
        mapping = mapping_stage(
            graph, arch, TINY.batch_size, OptimizationLevel.FINAL, cache=cache
        )
        workload = workload_stage(mapping, cache=cache)
        result = simulation_stage(arch, workload, cache=cache)
        # stamp every persisted simulation payload as the PR 4 schema
        region_dir = store._namespace / "simulation"
        stamped = 0
        for path in region_dir.rglob("*"):
            if not path.is_file():
                continue
            envelope = pickle.loads(path.read_bytes())
            envelope["payload"]["version"] = 1
            path.write_bytes(pickle.dumps(envelope))
            stamped += 1
        assert stamped == 1
        fresh = ArtifactCache(store=store)  # a new process over the old store
        mapping2 = mapping_stage(
            graph, arch, TINY.batch_size, OptimizationLevel.FINAL, cache=fresh
        )
        workload2 = workload_stage(mapping2, cache=fresh)
        rebuilt = simulation_stage(arch, workload2, cache=fresh)
        assert fresh.stats.miss_count("simulation") == 1  # rebuilt, not served
        assert fresh.stats.disk_hit_count("simulation") == 0
        assert rebuilt.record() == result.record()
        # rebuilt once: the refreshed entry serves the next process from disk
        third = ArtifactCache(store=store)
        mapping3 = mapping_stage(
            graph, arch, TINY.batch_size, OptimizationLevel.FINAL, cache=third
        )
        workload3 = workload_stage(mapping3, cache=third)
        served = simulation_stage(arch, workload3, cache=third)
        assert third.stats.miss_count("simulation") == 0
        assert third.stats.disk_hit_count("simulation") == 1
        assert served.record() == result.record()

    def test_pr5_simulation_payloads_read_as_misses_and_rebuild_once(self, tmp_path):
        """The PR 9 payload-version bump invalidates PR 5-era store entries.

        PR 9 bumped SIMULATION_PAYLOAD_VERSION 2 -> 3 (the tracer gained the
        per-request completion map of open-system workloads): a warm store
        written under the v2 stamp must read as a miss, rebuild exactly
        once, and serve the rebuilt entry from disk afterwards.
        """
        store = ArtifactStore(tmp_path / "sim-v2-store")
        cache = ArtifactCache(store=store)
        graph, arch = TINY.build_graph(), TINY.build_arch()
        mapping = mapping_stage(
            graph, arch, TINY.batch_size, OptimizationLevel.FINAL, cache=cache
        )
        workload = workload_stage(mapping, cache=cache)
        result = simulation_stage(arch, workload, cache=cache)
        # stamp every persisted simulation payload as the PR 5 schema
        region_dir = store._namespace / "simulation"
        stamped = 0
        for path in region_dir.rglob("*"):
            if not path.is_file():
                continue
            envelope = pickle.loads(path.read_bytes())
            envelope["payload"]["version"] = 2
            path.write_bytes(pickle.dumps(envelope))
            stamped += 1
        assert stamped == 1
        fresh = ArtifactCache(store=store)  # a new process over the old store
        rebuilt = simulation_stage(arch, workload, cache=fresh)
        assert fresh.stats.miss_count("simulation") == 1  # rebuilt, not served
        assert fresh.stats.disk_hit_count("simulation") == 0
        assert rebuilt.record() == result.record()
        # rebuilt once: the refreshed entry serves the next process from disk
        third = ArtifactCache(store=store)
        served = simulation_stage(arch, workload, cache=third)
        assert third.stats.miss_count("simulation") == 0
        assert third.stats.disk_hit_count("simulation") == 1
        assert served.record() == result.record()

    def test_stale_payload_version_forces_rebuild(self, tmp_path):
        """A future MAPPING_PAYLOAD_VERSION bump must read as a miss."""
        store = ArtifactStore(tmp_path / "payload-store")
        cache = ArtifactCache(store=store)
        graph, arch = TINY.build_graph(), TINY.build_arch()
        mapping = mapping_stage(
            graph, arch, TINY.batch_size, OptimizationLevel.FINAL, cache=cache
        )
        # corrupt every persisted mapping payload's version stamp
        region_dir = store._namespace / "mapping"
        stamped = 0
        for path in region_dir.rglob("*"):
            if not path.is_file():
                continue
            envelope = pickle.loads(path.read_bytes())
            envelope["payload"]["version"] = MAPPING_PAYLOAD_VERSION + 1
            path.write_bytes(pickle.dumps(envelope))
            stamped += 1
        assert stamped == 1
        fresh = ArtifactCache(store=store)
        rebuilt = mapping_stage(
            graph, arch, TINY.batch_size, OptimizationLevel.FINAL, cache=fresh
        )
        assert fresh.stats.miss_count("mapping") == 1  # rebuilt, not served
        assert fresh.stats.disk_hit_count("mapping") == 0
        assert rebuilt.record() == mapping.record()


class TestMappingPayload:
    def test_round_trip_equality(self):
        graph, arch = TINY.build_graph(), TINY.build_arch()
        mapping = mapping_stage(graph, arch, 4, OptimizationLevel.FINAL)
        payload = mapping.to_payload()
        restored = NetworkMapping.from_payload(payload, graph, arch)
        assert restored == mapping
        assert restored.record() == mapping.record()
        assert restored.summary() == mapping.summary()

    def test_payload_is_compact_plain_data(self):
        graph, arch = TINY.build_graph(), TINY.build_arch()
        mapping = mapping_stage(graph, arch, 2, OptimizationLevel.NAIVE)
        payload = mapping.to_payload()
        # the graph and arch are re-attached by the loader, never stored
        assert "graph" not in payload and "arch" not in payload
        assert payload["version"] == MAPPING_PAYLOAD_VERSION
        # survives a pickle round trip as pure data (no live objects)
        assert pickle.loads(pickle.dumps(payload)) == payload

    def test_unknown_version_rejected(self):
        graph, arch = TINY.build_graph(), TINY.build_arch()
        mapping = mapping_stage(graph, arch, 2, OptimizationLevel.NAIVE)
        payload = dict(mapping.to_payload(), version=MAPPING_PAYLOAD_VERSION + 1)
        with pytest.raises(ValueError, match="stale artifact"):
            NetworkMapping.from_payload(payload, graph, arch)


class TestWarmFromDisk:
    def test_second_process_runs_zero_simulations(self, store, monkeypatch):
        """A fresh cache over a warm store rebuilds nothing at all."""
        calls = counting_simulate(monkeypatch)
        cold = run_scenario(TINY, ArtifactCache(store=store))
        assert len(calls) == 1
        warm_cache = ArtifactCache(store=store)  # simulates a new process
        warm = run_scenario(TINY, warm_cache)
        assert len(calls) == 1  # zero new simulate() calls
        assert warm_cache.stats.miss_count("simulation") == 0
        assert warm_cache.stats.disk_hit_count("simulation") == 1
        assert warm_cache.stats.disk_hit_count("mapping") == 1
        assert warm_cache.stats.disk_hit_count("workload") == 1
        assert warm.metrics == cold.metrics
        assert warm.simulation == cold.simulation
        assert warm.mapping == cold.mapping

    def test_disk_served_results_match_fresh_builds_exactly(self, store):
        outcomes = {}
        for label in ("cold", "warm"):
            cache = ArtifactCache(store=store)
            outcomes[label] = SweepRunner(max_workers=1, cache=cache).run(GRID)
        for cold, warm in zip(outcomes["cold"], outcomes["warm"]):
            assert cold.metrics == warm.metrics
            assert cold.simulation == warm.simulation

    def test_disk_served_simulation_supports_breakdown_analysis(self, store):
        """Rehydrated results keep the tracer: they are not second-class."""
        from repro.analysis.breakdown import breakdown_summary, cluster_breakdown

        graph, arch = TINY.build_graph(), TINY.build_arch()
        for _ in range(2):
            cache = ArtifactCache(store=store)
            mapping = mapping_stage(
                graph, arch, 2, OptimizationLevel.FINAL, cache=cache
            )
            workload = workload_stage(mapping, cache=cache)
            result = simulation_stage(arch, workload, cache=cache)
        assert cache.stats.disk_hit_count("simulation") == 1
        rows = cluster_breakdown(result, mapping)
        assert rows and breakdown_summary(rows)["mean_busy_fraction"] > 0.0

    def test_parallel_workers_share_the_store(self, store):
        """Cold parallel run populates; warm parallel run rebuilds nothing.

        The aggregated worker cache statistics prove it: misses count
        builds, so zero misses in the mapping/workload/simulation regions
        means zero new optimizer/lowering/simulate() executions across
        every worker process.
        """
        scenarios = GRID.expand()
        cold_runner = SweepRunner(
            max_workers=2, cache=ArtifactCache(store=store), on_error="record"
        )
        cold = cold_runner.run(scenarios)
        assert len(cold) == len(scenarios) and not cold.failures
        assert store.size("simulation") == len(scenarios)
        assert cold.cache_stats is not None
        assert cold.cache_stats.miss_count("simulation") == len(scenarios)

        warm_runner = SweepRunner(
            max_workers=2, cache=ArtifactCache(store=store), on_error="record"
        )
        warm = warm_runner.run(scenarios)
        assert len(warm) == len(scenarios) and not warm.failures
        assert warm.cache_stats is not None
        for region in ("mapping", "workload", "simulation"):
            assert warm.cache_stats.miss_count(region) == 0, region
        assert warm.cache_stats.disk_hit_count("simulation") == len(scenarios)
        for before, after in zip(cold, warm):
            assert before.metrics == after.metrics

    def test_parallel_run_with_store_does_not_warn_about_cold_workers(self, store):
        import warnings as warnings_module

        runner = SweepRunner(max_workers=2, cache=ArtifactCache(store=store))
        runner.run([TINY])  # warm the in-memory cache
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", RuntimeWarning)
            try:
                runner.run(GRID.expand()[:2])
            except RuntimeWarning as warning:  # pragma: no cover - diagnostic
                assert "process-local" not in str(warning)


class TestSweepContract:
    def test_outcomes_and_failures_carry_input_indices(self):
        impossible = Scenario(model="resnet18", input_shape=(3, 64, 64), n_clusters=2)
        feasible_a = TINY
        feasible_b = TINY.replace(batch_size=4)
        runner = SweepRunner(max_workers=1, on_error="record")
        result = runner.run([feasible_a, impossible, feasible_b])
        assert [o.index for o in result.outcomes] == [0, 2]
        assert [f.index for f in result.failures] == [1]
        # realignment: index maps every record back to the submitted list
        submitted = [feasible_a, impossible, feasible_b]
        for outcome in result.outcomes:
            assert submitted[outcome.index] == outcome.scenario
        for failure in result.failures:
            assert submitted[failure.index] == failure.scenario

    def test_as_dict_includes_indices_and_cache_stats(self):
        runner = SweepRunner(max_workers=1, on_error="record")
        impossible = Scenario(model="resnet18", input_shape=(3, 64, 64), n_clusters=2)
        result = runner.run([impossible, TINY])
        payload = json.loads(json.dumps(result.as_dict()))
        assert payload["outcomes"][0]["index"] == 1
        assert payload["failures"][0]["index"] == 0
        stats = payload["cache_stats"]
        assert stats is not None
        assert stats["misses"]["simulation"] == 1

    def test_cache_stats_none_without_cache(self):
        result = SweepRunner(max_workers=1, cache=None).run([TINY])
        assert result.cache_stats is None
        assert result.as_dict()["cache_stats"] is None

    def test_parallel_run_without_cache_stays_uncached(self):
        """cache=None must disable worker caches too, not just the parent's."""
        result = SweepRunner(max_workers=2, cache=None).run(
            [TINY, TINY.replace(batch_size=4)]
        )
        assert len(result) == 2
        assert result.cache_stats is None
        assert result.as_dict()["cache_stats"] is None


class TestPaperDefaultDerivation:
    def test_label_and_arch_share_one_cluster_source(self):
        paper_clusters = ArchConfig.paper().n_clusters
        scenario = Scenario()
        assert scenario.resolved_n_clusters == paper_clusters
        assert f"/c{paper_clusters}/" in scenario.label
        assert scenario.build_arch().n_clusters == paper_clusters

    def test_explicit_clusters_still_win(self):
        scenario = Scenario(n_clusters=64)
        assert scenario.resolved_n_clusters == 64
        assert "/c64/" in scenario.label
        assert scenario.build_arch().n_clusters == 64


class TestCLIPersistence:
    SPEC = {
        "name": "persist",
        "base": {
            "model": "tiny_cnn",
            "input_shape": [3, 32, 32],
            "num_classes": 10,
            "n_clusters": 16,
            "level": "final",
        },
        "axes": {"batch_size": [2, 4]},
    }

    def _run(self, tmp_path, tag, extra=()):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.SPEC))
        out = tmp_path / f"{tag}.json"
        args = [str(spec), "--json", str(out), *extra]
        assert cli_main(args) == 0
        return json.loads(out.read_text())

    def test_warm_invocation_reports_full_cache_hits(self, tmp_path, capsys):
        cache_dir = tmp_path / "cli-store"
        cold = self._run(tmp_path, "cold", ["--cache-dir", str(cache_dir)])
        assert cold["cache_stats"]["misses"]["simulation"] == 2
        warm = self._run(tmp_path, "warm", ["--cache-dir", str(cache_dir)])
        printed = capsys.readouterr().out
        assert f"artifact store: {cache_dir}" in printed
        # the graph region is memory-only by design (graphs rebuild in
        # microseconds); every expensive region must be disk-served.
        for region in ("optimizer", "mapping", "workload", "simulation"):
            assert warm["cache_stats"]["misses"].get(region, 0) == 0, region
        assert warm["cache_stats"]["disk_hits"]["simulation"] == 2
        for a, b in zip(cold["outcomes"], warm["outcomes"]):
            assert a["metrics"] == b["metrics"]

    def test_no_store_keeps_cache_in_memory_only(self, tmp_path):
        cache_dir = tmp_path / "unused-store"
        first = self._run(
            tmp_path, "a", ["--cache-dir", str(cache_dir), "--no-store"]
        )
        second = self._run(
            tmp_path, "b", ["--cache-dir", str(cache_dir), "--no-store"]
        )
        assert not cache_dir.exists()
        assert second["cache_stats"]["misses"]["simulation"] == 2
        for a, b in zip(first["outcomes"], second["outcomes"]):
            assert a["metrics"] == b["metrics"]

    def test_default_store_honours_repro_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-store"))
        self._run(tmp_path, "env")
        assert (tmp_path / "env-store").exists()


def stage_chain(scenario, cache):
    """Graph, arch, mapping and workload of one scenario through ``cache``."""
    graph = graph_stage(scenario, cache)
    arch = scenario.build_arch()
    mapping = mapping_stage(
        graph,
        arch,
        scenario.batch_size,
        scenario.mapping_policy,
        cache=cache,
        reserve_clusters=scenario.reserve_clusters,
        max_replication=scenario.max_replication,
    )
    return graph, arch, mapping, workload_stage(mapping, cache=cache)


class TestWorkloadKeyVersions:
    """The persisted workload has no payload stamp, so the mapping and
    lowering versions are hashed into its key: bumping either lowers every
    workload again, once, while the simulations stay disk hits."""

    @pytest.mark.parametrize(
        "module, name",
        [
            (core_mapping, "MAPPING_PAYLOAD_VERSION"),
            (core_pipeline, "WORKLOAD_PAYLOAD_VERSION"),
        ],
    )
    def test_version_bump_lowers_each_workload_once(
        self, store, monkeypatch, module, name
    ):
        scenarios = GRID.expand()
        n = len(scenarios)
        calls = counting_simulate(monkeypatch)
        version = getattr(module, name)
        passes = []
        for bump in (0, 0, 1, 1):
            monkeypatch.setattr(module, name, version + bump)
            cache = ArtifactCache(store=store)
            outcomes = [run_scenario(s, cache) for s in scenarios]
            passes.append((cache.stats, outcomes))
        assert len(calls) == n  # the cold pass only
        (_, cold), (unbumped, _), (first, bumped), (second, _) = passes
        for region in ("mapping", "workload", "simulation"):
            assert unbumped.miss_count(region) == 0, region
        assert first.miss_count("workload") == n
        assert second.miss_count("workload") == 0
        assert first.disk_hit_count("simulation") == n
        assert second.disk_hit_count("simulation") == n
        for before, after in zip(cold, bumped):
            assert before.simulation == after.simulation
            assert before.metrics == after.metrics


#: TINY served open-system: one request every 1,000 cycles.
OPEN = TINY.replace(arrivals={"process": "deterministic", "interval_cycles": 1000})


class TestCarriedDigest:
    def test_store_served_workload_keys_without_canonicalising(
        self, store, monkeypatch
    ):
        run_scenario(TINY, ArtifactCache(store=store))
        cache = ArtifactCache(store=store)
        workload = stage_chain(TINY, cache)[3]
        assert cache.stats.disk_hit_count("workload") == 1
        _, memo = vars(workload)[fingerprint_module._DIGEST_ATTR]
        assert memo == fingerprint(workload)

        calls = []
        real = fingerprint_module.canonicalize

        def counting(obj):
            calls.append(1)
            return real(obj)

        monkeypatch.setattr(fingerprint_module, "canonicalize", counting)
        assert fingerprint_module.content_digest(workload) == memo
        assert calls == []

    def test_open_system_run_digests_each_workload_once(self, store, monkeypatch):
        """An open-system run keys its simulation on the lowered workload's
        digest and the schedule: the cold run digests the workload once,
        when it lowers it, and never the copy stamped with the schedule;
        the warm run digests nothing."""
        digested = []
        real = fingerprint_module.fingerprint

        def counting(obj):
            if isinstance(obj, Workload):
                digested.append(obj.is_open)
            return real(obj)

        monkeypatch.setattr(fingerprint_module, "fingerprint", counting)
        cold = run_scenario(OPEN, ArtifactCache(store=store))
        assert digested == [False]
        cache = ArtifactCache(store=store)
        warm = run_scenario(OPEN, cache)
        assert digested == [False]
        assert cache.stats.disk_hit_count("simulation") == 1
        assert warm.simulation == cold.simulation
        assert warm.metrics == cold.metrics

    def test_open_system_simulation_keys_on_the_lowered_workload(self):
        cache = ArtifactCache()
        _, arch, _, workload = stage_chain(OPEN, cache)
        result = simulation_stage(arch, workload, arrivals=OPEN.arrivals, cache=cache)
        assert result.workload.is_open and not workload.is_open
        key = simulation_key(
            arch_key(arch),
            content_digest(workload),
            True,
            2,
            arrivals=result.workload.arrival_cycles,
        )
        assert cache.lookup(ArtifactCache.REGION_SIMULATION, key) is result

    def test_derived_workloads_do_not_inherit_the_memo(self, store):
        workload = stage_chain(TINY, ArtifactCache(store=store))[3]
        for derived in (
            workload.with_n_jobs(1),
            workload.with_arrivals(range(workload.n_jobs)),
        ):
            assert fingerprint_module._DIGEST_ATTR not in vars(derived)
            assert fingerprint_module.content_digest(derived) == fingerprint(derived)


#: the perfbench ladder grid: three models, the three ladder levels and
#: two batch sizes at 3x64x64 on the paper's 512 clusters.
LADDER = ScenarioGrid.from_axes(
    Scenario(input_shape=(3, 64, 64)),
    model=["resnet18", "resnet34", "mobilenet_v2"],
    level=["naive", "replicated", "final"],
    batch_size=[4, 16],
)


@pytest.fixture(scope="module")
def ladder_mappings():
    cache = ArtifactCache()
    return [stage_chain(s, cache)[2] for s in LADDER.expand()]


class TestShallowMappingPayload:
    def test_layer_payloads_equal_their_asdict_form(self, ladder_mappings):
        for mapping in ladder_mappings:
            reference = {
                node_id: dataclasses.asdict(layer)
                for node_id, layer in mapping.layers.items()
            }
            payload = mapping.to_payload()
            assert payload["layers"] == reference
            restored = NetworkMapping.from_payload(
                pickle.loads(pickle.dumps(payload)), mapping.graph, mapping.arch
            )
            assert restored.record() == mapping.record()

    def test_record_equals_the_properties(self, ladder_mappings):
        for mapping in ladder_mappings:
            assert mapping.record() == MappingRecord(
                name=mapping.options.name,
                batch_size=mapping.options.batch_size,
                n_used_clusters=mapping.n_used_clusters,
                total_clusters=mapping.arch.n_clusters,
                global_mapping_efficiency=mapping.global_mapping_efficiency,
                local_mapping_efficiency=mapping.local_mapping_efficiency,
                total_crossbars=mapping.total_crossbars,
                total_stored_params=mapping.total_stored_params,
                policy=mapping.policy,
            )

    def test_from_payload_infers_shapes_only_when_stale(self, monkeypatch):
        graph, arch = TINY.build_graph(), TINY.build_arch()
        payload = mapping_stage(graph, arch, 2, OptimizationLevel.FINAL).to_payload()
        calls = []
        real = Graph.infer_shapes

        def counting(self):
            calls.append(1)
            real(self)

        monkeypatch.setattr(Graph, "infer_shapes", counting)
        assert graph.shapes_inferred
        NetworkMapping.from_payload(payload, graph, arch)
        assert calls == []
        graph.add(ReLU(name="extra"), inputs=[graph.output_nodes[0].node_id])
        NetworkMapping.from_payload(payload, graph, arch)
        assert calls == [1]
        assert graph.shapes_inferred


#: the paper's Sec. VI point, and the same point served open-system.
HEADLINE = Scenario(
    model="resnet18", input_shape=(3, 256, 256), batch_size=16, level="final"
)
HEADLINE_POISSON = HEADLINE.replace(
    arrivals={"process": "poisson", "mean_interarrival_cycles": 20000, "seed": 7}
)


class TestEachLayerPayload:
    def test_layers_render_and_load_field_by_field(self, ladder_mappings):
        """Every layer's payload equals its ``asdict`` form, and the loader
        rebuilds the layer without modifying the payload."""
        headline = stage_chain(HEADLINE, ArtifactCache())[2]
        for mapping in ladder_mappings + [headline]:
            for layer in mapping.layers.values():
                payload = core_mapping._layer_payload(layer)
                assert payload == dataclasses.asdict(layer)
                before = copy.deepcopy(payload)
                assert core_mapping._layer_from_payload(payload) == layer
                assert payload == before
            restored = NetworkMapping.from_payload(
                mapping.to_payload(), mapping.graph, mapping.arch
            )
            assert restored.layers == mapping.layers
            assert restored.record() == mapping.record()


def _simulate(scenario, cache):
    """The scenario's simulation result, through ``cache``."""
    _, arch, _, workload = stage_chain(scenario, cache)
    return simulation_stage(
        arch,
        workload,
        model_contention=scenario.model_contention,
        buffer_depth=scenario.buffer_depth,
        fast_forward=scenario.fast_forward,
        engine=scenario.engine,
        arrivals=scenario.arrivals,
        cache=cache,
    )


def _only_entry(store, region):
    """The path of the store's one entry in ``region``."""
    (path,) = [p for p in (store._namespace / region).rglob("*") if p.is_file()]
    return path


def _pickle_with_field_dicts(obj):
    """``obj`` pickled with every tracer record reduced the default
    dataclass way (a class, then a dict of its fields), as the records
    pickled before they reduced positionally."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = copyreg.dispatch_table.copy()
    for cls in (ClusterActivity, StageActivity):
        pickler.dispatch_table[cls] = lambda record: (
            copyreg.__newobj__,
            (type(record),),
            dict(vars(record)),
        )
    pickler.dump(obj)
    return buffer.getvalue()


class _FieldDictUnpickler(pickle.Unpickler):
    """Loads the tracer records as plain dataclasses with the same fields
    and the default reduction: code from before the records reduced
    positionally."""

    plain = {
        cls.__name__: dataclasses.make_dataclass(
            cls.__name__,
            [(f.name, f.type, dataclasses.field(default=f.default))
             for f in dataclasses.fields(cls)],
        )
        for cls in (ClusterActivity, StageActivity)
    }

    def find_class(self, module, name):
        if module == "repro.sim.tracer" and name in self.plain:
            return self.plain[name]
        return super().find_class(module, name)


#: field order of the tracer records, which pickle positionally.
CLUSTER_ACTIVITY_FIELDS = (
    "cluster_id",
    "analog",
    "digital",
    "communication",
    "synchronization",
    "last_busy_cycle",
    "jobs",
)
STAGE_ACTIVITY_FIELDS = (
    "stage_id",
    "name",
    "jobs_completed",
    "analog_busy",
    "digital_busy",
    "input_stall",
    "output_stall",
    "first_job_start",
    "last_job_end",
)


class TestPositionalTracerRecords:
    def test_field_order_is_part_of_the_payload_version(self):
        assert SIMULATION_PAYLOAD_VERSION == 10
        for cls, pinned in (
            (ClusterActivity, CLUSTER_ACTIVITY_FIELDS),
            (StageActivity, STAGE_ACTIVITY_FIELDS),
        ):
            assert tuple(f.name for f in dataclasses.fields(cls)) == pinned, (
                f"{cls.__name__} pickles positionally, so its field order is "
                "part of the stored simulation payload: a change needs a "
                "SIMULATION_PAYLOAD_VERSION bump (then re-pin the order here)"
            )
        cluster = ClusterActivity(3, 10, 20, 30, 0, 99, 4)
        assert cluster.__reduce__() == (ClusterActivity, (3, 10, 20, 30, 0, 99, 4))
        stage = StageActivity(1, "conv1", 2, 3, 4, 0, 0, None, 9)
        assert stage.__reduce__() == (
            StageActivity,
            (1, "conv1", 2, 3, 4, 0, 0, None, 9),
        )

    @pytest.mark.parametrize(
        "scenario", [HEADLINE, HEADLINE_POISSON], ids=["headline", "poisson"]
    )
    def test_results_round_trip_through_the_store(self, store, scenario):
        cold = _simulate(scenario, ArtifactCache(store=store))
        cache = ArtifactCache(store=store)
        warm = _simulate(scenario, cache)
        assert cache.stats.disk_hit_count("simulation") == 1
        assert warm.workload.is_open == (scenario.arrivals is not None)
        assert result_mismatches(cold, warm) == []
        assert warm.record() == cold.record()
        assert warm.tracer.clusters == cold.tracer.clusters
        assert warm.tracer.stages == cold.tracer.stages
        assert warm.tracer.request_completions == cold.tracer.request_completions

    def test_entries_pickled_with_field_dicts_still_load(self, store):
        cold = _simulate(HEADLINE, ArtifactCache(store=store))
        path = _only_entry(store, "simulation")
        positional = path.read_bytes()
        legacy = _pickle_with_field_dicts(pickle.loads(positional))
        # only the field-dict form spells the field names out
        assert b"last_busy_cycle" in legacy
        assert b"last_busy_cycle" not in positional
        path.write_bytes(legacy)
        cache = ArtifactCache(store=store)
        warm = _simulate(HEADLINE, cache)
        assert cache.stats.disk_hit_count("simulation") == 1
        assert result_mismatches(cold, warm) == []
        assert warm.record() == cold.record()

    def test_positional_entries_load_in_field_dict_code(self, store):
        cold = _simulate(HEADLINE, ArtifactCache(store=store))
        entry = io.BytesIO(_only_entry(store, "simulation").read_bytes())
        envelope = _FieldDictUnpickler(entry).load()
        tracer = envelope["payload"]["tracer"]
        assert len(tracer.clusters) == len(cold.tracer.clusters) > 0
        for records, expected in (
            (tracer.clusters, cold.tracer.clusters),
            (tracer.stages, cold.tracer.stages),
        ):
            assert list(records) == list(expected)
            for key, record in records.items():
                assert type(record) in _FieldDictUnpickler.plain.values()
                assert vars(record) == vars(expected[key])


class TestUsedClusterMemos:
    def test_memos_equal_a_fresh_recount(self, ladder_mappings):
        for mapping in ladder_mappings:
            workload = workload_stage(mapping)
            assert mapping.used_clusters == tuple(
                sorted(
                    {c for layer in mapping.layers.values() for c in layer.clusters}
                    | set(mapping.residuals.storage_clusters)
                )
            )
            assert workload.used_clusters == tuple(
                sorted(
                    {c for stage in workload.stages for c in stage.clusters}
                    | set(workload.storage_clusters)
                )
            )
            assert mapping.used_clusters is mapping.used_clusters
            assert workload.used_clusters is workload.used_clusters

    def test_stored_workloads_carry_no_count(self, store):
        outcome = run_scenario(TINY, ArtifactCache(store=store))
        stored = pickle.loads(_only_entry(store, "workload").read_bytes())["payload"]
        assert "used_clusters" not in vars(stored)
        assert stored.n_used_clusters == outcome.simulation.n_used_clusters
