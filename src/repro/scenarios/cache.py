"""Content-hash-keyed artifact cache for the experiment pipeline.

Sweeps share work: every mapping level of an optimisation study shares the
graph and the tiling, a batch-size sweep shares every mapping except the
batch dimension, and a re-run of an identical sweep shares *everything*.
:class:`ArtifactCache` lets the pipeline stages (:mod:`repro.scenarios.
pipeline`) skip straight past any stage whose inputs were already seen,
keyed by the stable content fingerprints of :mod:`repro.scenarios.
fingerprint`.

The cache is a process-local, region-structured LRU store.  Regions keep
unrelated artifact kinds (mappings, workloads, simulation results,
optimizers) from evicting each other and give per-kind hit statistics,
which the tests use to assert things like "a warm sweep re-run performs
zero new simulations".

Invalidation never happens implicitly: keys are pure functions of content,
so a changed spec simply produces a new key.  The in-memory tier is
process-local; passing an :class:`~repro.scenarios.store.ArtifactStore`
adds a second, on-disk tier shared across processes and invocations: a
memory miss consults the store before building, and fresh builds are
spilled back to it (memory -> disk -> build).

Module contract: the cache hashes nothing itself — callers bring
ready-made fingerprint keys — and it stores whatever the build callable
returns, live objects included.  Only ``get_or_create(persist=True, ...)``
calls touch the persistent tier, and those payloads must be picklable
plain data (the ``dump``/``load`` pair converts; see ``docs/caching.md``
for which regions persist and which stay memory-only).  ``CacheStats``
misses count *builds*, the invariant every "warm run rebuilds nothing"
test relies on.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from .store import ArtifactStore


@dataclass
class CacheStats:
    """Hit/miss counters, per region and overall.

    ``misses`` count *builds*: an artifact served from the on-disk store
    lands in ``disk_hits`` instead, so "zero misses in the simulation
    region" always means "zero new ``simulate()`` calls" regardless of
    which tier served the run.
    """

    hits: Dict[str, int] = field(default_factory=dict)
    misses: Dict[str, int] = field(default_factory=dict)
    #: artifacts served from the persistent store rather than memory.
    disk_hits: Dict[str, int] = field(default_factory=dict)

    def record(self, region: str, hit: bool) -> None:
        counters = self.hits if hit else self.misses
        counters[region] = counters.get(region, 0) + 1

    def record_disk_hit(self, region: str) -> None:
        self.disk_hits[region] = self.disk_hits.get(region, 0) + 1

    def hit_count(self, region: Optional[str] = None) -> int:
        """In-memory hits in one region, or across all when ``region`` is None."""
        if region is not None:
            return self.hits.get(region, 0)
        return sum(self.hits.values())

    def miss_count(self, region: Optional[str] = None) -> int:
        """Builds in one region, or across all regions when ``region`` is None."""
        if region is not None:
            return self.misses.get(region, 0)
        return sum(self.misses.values())

    def disk_hit_count(self, region: Optional[str] = None) -> int:
        """Disk-served artifacts in one region, or across all regions."""
        if region is not None:
            return self.disk_hits.get(region, 0)
        return sum(self.disk_hits.values())

    def snapshot(self) -> "CacheStats":
        """An independent copy (for before/after comparisons in tests)."""
        return CacheStats(
            hits=dict(self.hits),
            misses=dict(self.misses),
            disk_hits=dict(self.disk_hits),
        )

    def subtract(self, earlier: "CacheStats") -> "CacheStats":
        """The counter deltas accumulated since the ``earlier`` snapshot."""

        def delta(now: Dict[str, int], then: Dict[str, int]) -> Dict[str, int]:
            return {
                region: count - then.get(region, 0)
                for region, count in now.items()
                if count - then.get(region, 0)
            }

        return CacheStats(
            hits=delta(self.hits, earlier.hits),
            misses=delta(self.misses, earlier.misses),
            disk_hits=delta(self.disk_hits, earlier.disk_hits),
        )

    def merge(self, other: "CacheStats") -> None:
        """Add another stats object's counters into this one (in place)."""
        for mine, theirs in (
            (self.hits, other.hits),
            (self.misses, other.misses),
            (self.disk_hits, other.disk_hits),
        ):
            for region, count in theirs.items():
                mine[region] = mine.get(region, 0) + count

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """Plain-data rendering (JSON-safe)."""
        return {
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "disk_hits": dict(self.disk_hits),
        }

    def format(self) -> str:
        regions = sorted(set(self.hits) | set(self.misses) | set(self.disk_hits))
        parts = []
        for region in regions:
            part = (
                f"{region}: {self.hits.get(region, 0)} hit / "
                f"{self.misses.get(region, 0)} miss"
            )
            if self.disk_hits.get(region, 0):
                part += f" / {self.disk_hits[region]} disk"
            parts.append(part)
        return "; ".join(parts) if parts else "(empty)"


class ArtifactCache:
    """Region-structured LRU cache keyed by content fingerprints."""

    #: region names used by the pipeline stages.
    REGION_GRAPH = "graph"
    REGION_OPTIMIZER = "optimizer"
    REGION_MAPPING = "mapping"
    REGION_WORKLOAD = "workload"
    REGION_SIMULATION = "simulation"
    #: functional-execution (accuracy) artifacts; persisted like simulations.
    REGION_ACCURACY = "accuracy"
    #: digital reference outputs shared by every noise point of one graph;
    #: memory-only (ndarrays that rebuild from the accuracy stage's seed).
    REGION_REFERENCE_OUTPUT = "reference_output"

    def __init__(
        self,
        max_entries_per_region: Optional[int] = None,
        store: Optional[ArtifactStore] = None,
    ):
        if max_entries_per_region is not None and max_entries_per_region <= 0:
            raise ValueError("max_entries_per_region must be positive when given")
        self.max_entries_per_region = max_entries_per_region
        #: optional persistent tier consulted on memory misses (and written
        #: back to on builds) by ``get_or_create`` calls with ``persist=True``.
        self.store = store
        self.stats = CacheStats()
        self._regions: Dict[str, OrderedDict] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def get_or_create(
        self,
        region: str,
        key: str,
        build: Callable[[], Any],
        *,
        persist: bool = False,
        dump: Optional[Callable[[Any], Any]] = None,
        load: Optional[Callable[[Any], Any]] = None,
    ) -> Any:
        """Return the artifact for ``key``: memory, then disk, then build.

        ``build`` runs outside the lock (it may be expensive and may itself
        consult the cache); if two threads race on the same key, the first
        stored value wins so every caller sees one consistent artifact.

        With ``persist=True`` and a configured :attr:`store`, a memory miss
        consults the persistent tier before building, and a fresh build is
        spilled back to it.  ``dump`` renders the artifact to its storable
        payload (default: the artifact itself) and ``load`` rehydrates it
        (default: identity); a ``load`` that raises — e.g. a stale
        payload-schema stamp — degrades to a rebuild.
        """
        with self._lock:
            memory = self._regions.setdefault(region, OrderedDict())
            if key in memory:
                memory.move_to_end(key)
                self.stats.record(region, hit=True)
                return memory[key]
        if persist and self.store is not None:
            payload = self.store.load(region, key)
            if payload is not None:
                try:
                    value = payload if load is None else load(payload)
                except Exception:
                    value = None  # stale/undecodable payload: rebuild below
                if value is not None:
                    with self._lock:
                        self.stats.record_disk_hit(region)
                        return self._insert(region, key, value)
        with self._lock:
            self.stats.record(region, hit=False)
        value = build()
        if persist and self.store is not None:
            self.store.store(region, key, value if dump is None else dump(value))
        with self._lock:
            return self._insert(region, key, value)

    def _insert(self, region: str, key: str, value: Any) -> Any:
        """Store ``value`` under ``key`` (first writer wins); lock held."""
        memory = self._regions.setdefault(region, OrderedDict())
        if key not in memory:
            memory[key] = value
            if (
                self.max_entries_per_region is not None
                and len(memory) > self.max_entries_per_region
            ):
                memory.popitem(last=False)
        return memory[key]

    def lookup(self, region: str, key: str) -> Optional[Any]:
        """The in-memory artifact, or None (does not count as a hit or miss)."""
        with self._lock:
            memory = self._regions.get(region)
            if memory is None or key not in memory:
                return None
            memory.move_to_end(key)
            return memory[key]

    def __len__(self) -> int:
        with self._lock:
            return sum(len(memory) for memory in self._regions.values())

    def clear(self) -> None:
        """Drop every in-memory artifact (statistics and the persistent
        store are kept)."""
        with self._lock:
            self._regions.clear()
