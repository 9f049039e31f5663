"""Command-line front-end: run a sweep spec file and report the results.

Usage, from the repo root::

    PYTHONPATH=src python -m repro.scenarios spec.toml
    PYTHONPATH=src python -m repro.scenarios spec.json --workers 4 --json out.json
    PYTHONPATH=src python -m repro.scenarios spec.toml --cache-dir /tmp/store

The spec file (TOML or JSON, see :func:`repro.scenarios.spec.load_spec`)
declares a base scenario and optional sweep axes; the CLI expands the grid,
executes it through the :class:`~repro.scenarios.sweep.SweepRunner`, prints
a results table and optionally writes the full record-layer results as
JSON.  Specs with an ``execution`` block (the accuracy axis — see
``docs/scenario-spec.md`` and ``examples/accuracy_sweep.toml``) get two
extra table columns: relative output RMS error and top-1 agreement of the
functional execution against the digital reference.

By default the artifact cache is backed by the persistent on-disk store
(``--cache-dir``, ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``), so a second
invocation of an identical spec — and every parallel worker of a
``--workers`` run — is served from warm artifacts instead of re-simulating.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from ..core.policies import available_policies, policy_class
from ..sim.system import SIMULATION_ENGINES
from ..sim.workload import ARRIVAL_PROCESSES
from .spec import SpecError, load_spec
from .store import ArtifactStore
from .sweep import SweepResult, SweepRunner, default_cache


def _parse_arrivals_option(text: str) -> object:
    """Parse the ``--arrivals`` flag value into an arrival spec.

    ``process,key=value,...`` (first chunk a registered process name)
    becomes an inline process table; anything else is a trace file path.
    """
    head, _, rest = text.partition(",")
    if head not in ARRIVAL_PROCESSES:
        return text
    params: dict = {"process": head}
    if rest:
        for chunk in rest.split(","):
            key, sep, value = chunk.partition("=")
            if not sep or not key:
                raise SpecError(
                    f"--arrivals parameter {chunk!r} is not key=value"
                )
            try:
                parsed: object = int(value)
            except ValueError:
                try:
                    parsed = float(value)
                except ValueError:
                    parsed = value
            params[key.strip()] = parsed
    return params


def format_outcomes(result: SweepResult) -> str:
    """Fixed-width results table of one sweep.

    Accuracy columns (relative output RMS error and top-1 agreement vs the
    digital reference) appear whenever any outcome ran the accuracy stage;
    per-request latency percentile and sustained-QPS columns appear
    whenever any outcome ran an open-system (arrival-driven) workload.  A
    ``ffwd`` column appears whenever any scenario requested the
    steady-state fast-forward: ``yes`` when it engaged, otherwise the
    typed refusal reason, so coverage cliffs are visible in the stats
    line instead of silently degrading to the full run.
    """
    with_accuracy = any(o.accuracy is not None for o in result.outcomes)
    with_serving = any(
        o.metrics.request_latency_p50_ms is not None for o in result.outcomes
    )
    with_ffwd = any(o.scenario.fast_forward for o in result.outcomes)
    header = (
        f"{'scenario':<40} {'ms':>8} {'TOPS':>8} {'img/s':>8} "
        f"{'clusters':>9} {'TOPS/W':>8} {'HBM MB':>8}"
    )
    if with_serving:
        header += f" {'p50 ms':>8} {'p95 ms':>8} {'p99 ms':>8} {'QPS':>10} {'sat':>4}"
    if with_accuracy:
        header += f" {'rel RMSE':>9} {'top1':>6}"
    if with_ffwd:
        header += f" {'ffwd':>18}"
    lines = [header, "-" * len(header)]
    for outcome in result.outcomes:
        m = outcome.metrics
        line = (
            f"{outcome.label:<40} {m.makespan_ms:>8.2f} {m.throughput_tops:>8.2f} "
            f"{m.images_per_second:>8.0f} {m.used_clusters:>9} "
            f"{m.energy_efficiency_tops_w:>8.2f} {m.hbm_traffic_mb:>8.1f}"
        )
        if with_serving:
            if m.request_latency_p50_ms is not None:
                line += (
                    f" {m.request_latency_p50_ms:>8.3f}"
                    f" {m.request_latency_p95_ms:>8.3f}"
                    f" {m.request_latency_p99_ms:>8.3f}"
                    f" {m.sustained_qps:>10.0f}"
                    f" {'yes' if m.saturated else 'no':>4}"
                )
            else:
                line += f" {'-':>8} {'-':>8} {'-':>8} {'-':>10} {'-':>4}"
        if with_accuracy:
            accuracy = outcome.accuracy
            if accuracy is not None:
                line += (
                    f" {accuracy.relative_rms_error:>9.5f}"
                    f" {accuracy.top1_agreement:>6.2f}"
                )
            else:
                line += f" {'-':>9} {'-':>6}"
        if with_ffwd:
            sim = outcome.simulation
            if sim.fast_forwarded:
                cell = "yes"
            else:
                cell = sim.fast_forward_refusal or "-"
            line += f" {cell:>18}"
        lines.append(line)
    for failure in result.failures:
        lines.append(
            f"{failure.label:<40} infeasible: {failure.error_type}: {failure.message}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Run a declarative experiment sweep (TOML/JSON spec file).",
    )
    parser.add_argument(
        "spec",
        type=Path,
        nargs="?",
        default=None,
        help="sweep spec file (.toml or .json)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = in-process serial with a shared cache; "
        "0 = one per CPU in this process's affinity mask)",
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="also write full results as JSON"
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the artifact cache"
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="root of the persistent on-disk artifact store shared across "
        "workers and invocations (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro); --no-store keeps the cache in memory only",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="keep the artifact cache in memory only (no on-disk store)",
    )
    parser.add_argument(
        "--fast-forward",
        action="store_true",
        help="enable the exact steady-state fast-forward for every scenario "
        "(periodic simulations are cut short and extrapolated, bit-identical "
        "results; non-periodic ones run in full) — equivalent to "
        "fast_forward = true in the spec's [base] table",
    )
    parser.add_argument(
        "--engine",
        choices=SIMULATION_ENGINES,
        default=None,
        help="pin the event kernel for every scenario (table: the compiled "
        "state-machine lane, the default; python: the object kernel, the "
        "readable reference — bit-identical, kept for cross-checks and "
        "performance comparison) — equivalent to engine = \"...\" in the "
        "spec's [base] table",
    )
    parser.add_argument(
        "--arrivals",
        default=None,
        metavar="SPEC",
        help="pin an open-system arrival process for every scenario: "
        "process,key=value,... with a registered process name "
        f"({', '.join(sorted(ARRIVAL_PROCESSES))}), e.g. "
        "poisson,mean_interarrival_cycles=400,seed=7 — or the path of an "
        "SWF-style arrival trace file; equivalent to arrivals = {...} in "
        "the spec's [base] table.  Adds per-request latency percentile "
        "and sustained-QPS columns to the results table",
    )
    parser.add_argument(
        "--policy",
        default=None,
        metavar="NAME",
        help="pin the mapping policy for every scenario (a registered "
        "policy name, see --list-policies) — equivalent to mapping = "
        '"..." in the spec\'s [base] table',
    )
    parser.add_argument(
        "--list-policies",
        action="store_true",
        help="print the registered mapping policies and exit",
    )
    parser.add_argument(
        "--list", action="store_true", help="print the expanded scenarios and exit"
    )
    args = parser.parse_args(argv)

    if args.list_policies:
        for name in available_policies():
            print(f"{name:<12} {policy_class(name).description}")
        return 0
    if args.spec is None:
        parser.error("a spec file is required (or use --list-policies)")

    try:
        grid = load_spec(args.spec)
        scenarios = grid.expand()
        if args.policy is not None:
            scenarios = [s.replace(mapping=args.policy) for s in scenarios]
        if args.fast_forward:
            scenarios = [s.replace(fast_forward=True) for s in scenarios]
        if args.engine is not None:
            scenarios = [s.replace(engine=args.engine) for s in scenarios]
        if args.arrivals is not None:
            arrivals = _parse_arrivals_option(args.arrivals)
            scenarios = [s.replace(arrivals=arrivals) for s in scenarios]
    except (TypeError, ValueError) as error:
        # SpecError (a bad [base] or [axes] value fails while the grid is
        # built, before any scenario runs), JSON/TOML decode errors and
        # malformed sections (ValueError/TypeError family) get the
        # friendly diagnostic.
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"{grid.name}: {len(scenarios)} scenario(s)")
    if args.list:
        for scenario in scenarios:
            print(f"  {scenario.label}")
        return 0

    cache = None
    if not args.no_cache:
        store = None if args.no_store else ArtifactStore(args.cache_dir)
        cache = default_cache(store=store)
        if store is not None:
            print(f"artifact store: {store.root}")
    runner = SweepRunner(
        max_workers=None if args.workers == 0 else args.workers,
        cache=cache,
        on_error="record",  # infeasible grid points must not kill the sweep
    )
    result = runner.run(scenarios)
    print(format_outcomes(result))
    failed = f", {len(result.failures)} infeasible" if result.failures else ""
    print(
        f"ran {len(result)} scenario(s){failed} in {result.elapsed_s:.2f} s "
        f"on {result.n_workers} worker(s)"
        + (
            f"; cache: {result.cache_stats.format()}"
            if result.cache_stats is not None
            else ""
        )
    )
    if args.json is not None:
        payload = {"name": grid.name, **result.as_dict()}
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    # partial infeasibility is a legitimate sweep result; producing nothing
    # at all is not, and scripted callers need the exit code to say so.
    return 1 if result.failures and not result.outcomes else 0
