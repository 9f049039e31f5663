"""Parallel sweep engine: execute independent scenarios across processes.

Scenarios are independent by construction (each is a closed description of
one experiment), so a sweep is embarrassingly parallel.  :class:`SweepRunner`
fans the expanded scenario list out over a ``concurrent.futures``
process pool — each worker rebuilds its artifacts from the declarative spec
and returns only the lightweight :class:`~repro.scenarios.pipeline.
ScenarioOutcome` records — and falls back to in-process serial execution
when processes are unavailable (single-CPU boxes, sandboxes without fork
support) or explicitly disabled.

Serial execution shares one :class:`~repro.scenarios.cache.ArtifactCache`
across the whole sweep, which is where repeated sweeps win: a warm cache
serves every mapping and simulation without recomputation.  Parallel
workers each own a process-local in-memory cache, but when the runner's
cache is backed by a persistent :class:`~repro.scenarios.store.
ArtifactStore`, every worker attaches to the same store — so artifacts
computed by one worker (or a previous invocation) are served from disk to
all the others.

Module contract: everything that crosses a process boundary is plain
picklable data — scenarios travel out as specs (never live graphs or
architectures; workers rebuild or rehydrate those), and results travel
back as record-layer outcomes/failures plus per-task ``CacheStats``
deltas.  The engine adds no cache keys and no versioning of its own: all
hashing lives in :mod:`repro.scenarios.fingerprint`, all payload schemas
with the artifact types, so every stage a scenario runs — the accuracy
stage included — gets cross-worker reuse for free.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Sequence, Tuple, Union

from ..aimc.crossbar import _available_cpus
from .cache import ArtifactCache, CacheStats
from .pipeline import ScenarioOutcome, run_scenario
from .spec import Scenario, ScenarioGrid
from .store import ArtifactStore

#: per-region capacity of the caches the sweep engine creates by default.
#: Cached simulation results retain their tracer (megabytes for paper-scale
#: points), so an unbounded cache would grow monotonically over very large
#: grids; 256 entries keeps realistic sweeps fully warm while bounding
#: memory.  Pass an explicit ``ArtifactCache(max_entries_per_region=None)``
#: to lift the cap.
DEFAULT_CACHE_ENTRIES = 256


def default_cache(store: Optional[ArtifactStore] = None) -> ArtifactCache:
    return ArtifactCache(max_entries_per_region=DEFAULT_CACHE_ENTRIES, store=store)


@dataclass(frozen=True)
class ScenarioFailure:
    """Record of one scenario that could not be executed.

    Design-space grids legitimately contain infeasible points (a mapping
    that does not fit the cluster budget, say); with
    ``SweepRunner(on_error="record")`` those become failure records instead
    of aborting the sweep.
    """

    scenario: Scenario
    error_type: str
    message: str
    #: position of the scenario in the sweep's input list (-1 when unknown),
    #: mirroring :attr:`ScenarioOutcome.index` so callers can realign the
    #: separated outcome/failure lists with their input.
    index: int = -1

    @property
    def label(self) -> str:
        """The failing scenario's display label."""
        return self.scenario.label

    def as_dict(self) -> dict:
        """Plain-data rendering (JSON-safe) of the failure."""
        return {
            "scenario": self.scenario.as_dict(),
            "error_type": self.error_type,
            "message": self.message,
            "index": self.index,
        }


#: module-level so worker processes build one cache per process, shared by
#: every scenario dispatched to that worker.
_WORKER_CACHE: Optional[ArtifactCache] = None


def _init_worker(
    package_root: str, store_root: Optional[str], enable_cache: bool
) -> None:
    """Worker initialiser: make ``repro`` importable and set up the cache.

    The parent may have put ``src/`` on ``sys.path`` manually (e.g. via
    ``PYTHONPATH=src`` in a shell the child does not inherit); mirroring the
    parent's package root keeps spawned workers importable either way.

    ``enable_cache`` mirrors whether the parent runner holds a cache at
    all (a ``cache=None`` runner must stay uncached in its workers too),
    and ``store_root`` mirrors that cache's persistent store: every
    worker's process-local cache attaches to the same on-disk tier, so the
    workers share warm artifacts with each other and with previous runs.
    """
    global _WORKER_CACHE
    if package_root not in sys.path:
        sys.path.insert(0, package_root)
    if enable_cache:
        store = ArtifactStore(store_root) if store_root is not None else None
        _WORKER_CACHE = default_cache(store=store)
    else:
        _WORKER_CACHE = None


def _execute(
    scenario: Scenario,
    cache: Optional[ArtifactCache],
    record_errors: bool,
    index: int,
):
    """Run one scenario, returning an outcome or (optionally) a failure."""
    try:
        outcome = run_scenario(scenario, cache)
    except Exception as error:
        if not record_errors:
            raise
        return ScenarioFailure(
            scenario=scenario,
            error_type=type(error).__name__,
            message=str(error),
            index=index,
        )
    return dataclasses.replace(outcome, index=index)


def _run_in_worker(task) -> Tuple[object, Optional[CacheStats]]:
    """Execute one (index, scenario, record_errors) task inside a pool worker.

    Returns the outcome/failure together with the cache-counter delta this
    task produced, so the parent can aggregate cross-worker statistics.
    """
    index, scenario, record_errors = task
    cache = _WORKER_CACHE
    before = cache.stats.snapshot() if cache is not None else None
    result = _execute(scenario, cache, record_errors, index)
    delta = cache.stats.snapshot().subtract(before) if cache is not None else None
    return result, delta


@dataclass
class SweepResult:
    """Outcomes of one sweep run plus execution bookkeeping."""

    outcomes: List[ScenarioOutcome]
    elapsed_s: float
    n_workers: int
    #: scenarios that raised, when the runner records instead of raising.
    failures: List[ScenarioFailure] = field(default_factory=list)
    #: cumulative snapshot of the shared cache's statistics on serial runs;
    #: on parallel runs, the aggregated per-task deltas of every worker's
    #: process-local cache.  None only when caching was disabled.
    cache_stats: Optional[CacheStats] = None

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __getitem__(self, index: int) -> ScenarioOutcome:
        return self.outcomes[index]

    def as_dict(self) -> dict:
        """Plain-data rendering (JSON-safe) of the whole sweep."""
        return {
            "elapsed_s": self.elapsed_s,
            "n_workers": self.n_workers,
            "outcomes": [outcome.as_dict() for outcome in self.outcomes],
            "failures": [failure.as_dict() for failure in self.failures],
            "cache_stats": (
                self.cache_stats.as_dict() if self.cache_stats is not None else None
            ),
        }


@dataclass
class SweepRunner:
    """Executes scenario lists/grids, in parallel when it pays off.

    ``max_workers=None`` sizes the pool to the CPUs this process may run
    on (capped by the scenario count); ``max_workers<=1`` forces the
    serial path.  The serial path reuses ``cache`` across scenarios and
    across successive ``run`` calls, so repeated sweeps on one runner are
    served from warm artifacts.

    ``on_error`` selects the failure policy: ``"raise"`` (default)
    propagates the first error; ``"record"`` turns failing scenarios into
    :class:`ScenarioFailure` entries in ``SweepResult.failures`` so that
    partially-infeasible design-space grids still produce every feasible
    point.
    """

    max_workers: Optional[int] = None
    cache: Optional[ArtifactCache] = field(default_factory=default_cache)
    on_error: str = "raise"

    def __post_init__(self) -> None:
        if self.on_error not in ("raise", "record"):
            raise ValueError('on_error must be "raise" or "record"')

    def resolve_workers(self, n_scenarios: int) -> int:
        """Number of worker processes a sweep of ``n_scenarios`` would use."""
        limit = self.max_workers if self.max_workers is not None else _available_cpus()
        return max(1, min(limit, n_scenarios))

    # ------------------------------------------------------------------ #
    def run(self, scenarios: Union[ScenarioGrid, Sequence[Scenario]]) -> SweepResult:
        """Execute every scenario and return their outcomes, in input order.

        Every outcome and failure carries the ``index`` of its scenario in
        the input list: with ``on_error="record"`` the failures are
        reported in a separate list, so zipping ``outcomes`` against the
        submitted scenarios would silently misalign on the first
        infeasible point — realign through ``index`` instead.
        """
        if isinstance(scenarios, ScenarioGrid):
            scenarios = scenarios.expand()
        scenarios = list(scenarios)
        if not scenarios:
            return SweepResult(outcomes=[], elapsed_s=0.0, n_workers=0)
        start = perf_counter()
        record_errors = self.on_error == "record"
        n_workers = self.resolve_workers(len(scenarios))
        results = None
        cache_stats: Optional[CacheStats] = None
        if n_workers > 1:
            has_store = self.cache is not None and self.cache.store is not None
            if self.cache is not None and len(self.cache) > 0 and not has_store:
                warnings.warn(
                    "parallel sweep workers use process-local caches; the "
                    "runner's warm in-memory cache is not consulted (use "
                    "max_workers=1 to reuse it, or back the cache with an "
                    "ArtifactStore to share artifacts through disk)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            parallel = self._run_parallel(scenarios, n_workers, record_errors)
            if parallel is not None:
                results = [result for result, _ in parallel]
                if self.cache is not None:
                    cache_stats = CacheStats()
                    for _, delta in parallel:
                        if delta is not None:
                            cache_stats.merge(delta)
        if results is None:
            n_workers = 1
            results = [
                _execute(scenario, self.cache, record_errors, index)
                for index, scenario in enumerate(scenarios)
            ]
            if self.cache is not None:
                cache_stats = self.cache.stats.snapshot()
        outcomes = [r for r in results if isinstance(r, ScenarioOutcome)]
        failures = [r for r in results if isinstance(r, ScenarioFailure)]
        return SweepResult(
            outcomes=outcomes,
            elapsed_s=perf_counter() - start,
            n_workers=n_workers,
            failures=failures,
            cache_stats=cache_stats,
        )

    def _run_parallel(
        self, scenarios: List[Scenario], n_workers: int, record_errors: bool
    ) -> Optional[List[Tuple[object, Optional[CacheStats]]]]:
        """Process-pool execution; None means "fall back to serial"."""
        from concurrent.futures.process import BrokenProcessPool

        import repro

        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        store = self.cache.store if self.cache is not None else None
        store_root = str(store.root) if store is not None else None
        tasks = [
            (index, scenario, record_errors)
            for index, scenario in enumerate(scenarios)
        ]
        try:
            pool = ProcessPoolExecutor(
                max_workers=n_workers,
                initializer=_init_worker,
                initargs=(package_root, store_root, self.cache is not None),
            )
        except OSError as error:  # no fork/spawn support, /dev/shm missing, ...
            return self._fallback(error)
        with pool:
            try:
                return list(pool.map(_run_in_worker, tasks))
            except BrokenProcessPool as error:
                # workers died before returning (e.g. unimportable repro in
                # the child): the serial path can still deliver the sweep.
                return self._fallback(error)
            # Anything else is a genuine scenario error that escaped a
            # worker (only possible under on_error="raise"): propagate it
            # rather than wastefully re-running the sweep serially.

    @staticmethod
    def _fallback(error: Exception) -> None:
        """Warn that the pool is unusable; None tells run() to go serial."""
        warnings.warn(
            f"parallel sweep unavailable ({type(error).__name__}: {error}); "
            "falling back to serial execution",
            RuntimeWarning,
            stacklevel=4,
        )
        return None


def run_sweep(
    scenarios: Union[ScenarioGrid, Sequence[Scenario]],
    max_workers: Optional[int] = None,
    cache: Optional[ArtifactCache] = None,
    on_error: str = "raise",
    store: Optional[ArtifactStore] = None,
) -> SweepResult:
    """One-call sweep: expand, execute (possibly in parallel), collect.

    ``store`` backs the default cache with a persistent on-disk tier
    (ignored when an explicit ``cache`` is supplied — configure the store
    on that cache instead).
    """
    runner = SweepRunner(
        max_workers=max_workers,
        cache=cache if cache is not None else default_cache(store=store),
        on_error=on_error,
    )
    return runner.run(scenarios)
