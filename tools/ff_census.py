"""Fast-forward census: every coverage point with and without fast-forward.

Runs the 104 points of ``docs/simulator.md`` § Coverage on the table
lane: ResNet-18, ResNet-34 and MobileNetV2 at 3×64×64 and tiny_cnn and
linear_cnn at 3×32×32, each at batch 16 and 64, plus ResNet-18 at
3×256×256 at batch 16, 64 and 256; every point under the four ladder
policies on 512 clusters, with contention on and off.  Each point is
simulated once with ``fast_forward=True`` and once in full.  Run it from
the repository root::

    PYTHONPATH=src python tools/ff_census.py

It prints, per point, the outcome, the refusal reason, the events the
fast-forward's attempted run dispatched ("-" when it refused before
attempting) and those of the full run, then the outcome counts.  It
exits 1 when a fast-forwarded result differs from its full run
(``result_mismatches(full, ff, ignore_provenance=True)``), or when a run
refused after attempting dispatched other than the full run's events,
as a run that falls back to a second, full simulation does; 0 otherwise.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import List

from repro.scenarios import Scenario, graph_stage, mapping_stage, workload_stage
from repro.sim import SystemSimulator, result_mismatches, simulate
from repro.sim import steady_state

#: (model, input shape, batch sizes) of the census.
MODELS = (
    ("resnet18", (3, 64, 64), (16, 64)),
    ("resnet34", (3, 64, 64), (16, 64)),
    ("mobilenet_v2", (3, 64, 64), (16, 64)),
    ("tiny_cnn", (3, 32, 32), (16, 64)),
    ("linear_cnn", (3, 32, 32), (16, 64)),
    ("resnet18", (3, 256, 256), (16, 64, 256)),
)
LEVELS = ("naive", "pipelined", "replicated", "final")
N_CLUSTERS = 512
ENGINE = "table"


class _CountingAttempt(steady_state._AttemptSimulator):
    """The fast-forward's attempted run, recording the events it dispatched."""

    events: List[int] = []

    def run(self):
        result = super().run()
        self.events.append(self.engine.events_processed)
        return result


def _workload(model, shape, level, batch):
    scenario = Scenario(
        model=model,
        input_shape=shape,
        batch_size=batch,
        level=level,
        n_clusters=N_CLUSTERS,
        crossbar_size=256,
    )
    arch = scenario.build_arch()
    mapping = mapping_stage(
        graph_stage(scenario), arch, scenario.batch_size, scenario.level_enum
    )
    return arch, workload_stage(mapping)


def main() -> int:
    steady_state._AttemptSimulator = _CountingAttempt
    started = time.perf_counter()
    outcomes: Counter = Counter()
    failures = []
    print(f"{'point':<42} {'outcome':<26} {'reason':<24} {'attempt':>7} {'full':>7}")
    for model, shape, batches in MODELS:
        for batch in batches:
            for level in LEVELS:
                arch, workload = _workload(model, shape, level, batch)
                for contention in (True, False):
                    label = (
                        f"{model} {shape[1]}px b{batch} {level} "
                        f"{'cont' if contention else 'nocont'}"
                    )
                    full_run = SystemSimulator(
                        arch, workload, model_contention=contention, engine=ENGINE
                    )
                    full = full_run.run()
                    full_events = full_run.engine.events_processed
                    _CountingAttempt.events = []
                    ff = simulate(
                        arch,
                        workload,
                        model_contention=contention,
                        fast_forward=True,
                        engine=ENGINE,
                    )
                    ff_events = sum(_CountingAttempt.events)
                    refusal = ff.fast_forward_refusal
                    if ff.fast_forwarded:
                        outcome = "engaged"
                    elif _CountingAttempt.events:
                        outcome = "refused after attempting"
                    else:
                        outcome = "refused before attempting"
                    reason = refusal.reason if refusal is not None else "-"
                    outcomes[(outcome, reason)] += 1
                    attempt = str(ff_events) if _CountingAttempt.events else "-"
                    print(
                        f"{label:<42} {outcome:<26} {reason:<24} "
                        f"{attempt:>7} {full_events:>7}"
                    )
                    mismatches = result_mismatches(full, ff, ignore_provenance=True)
                    if mismatches:
                        failures.append(f"{label}: result differs: {mismatches}")
                    if outcome == "refused after attempting" and ff_events != full_events:
                        failures.append(
                            f"{label}: refused after dispatching {ff_events} "
                            f"events, the full run {full_events}: {refusal.probes}"
                        )
    print()
    for (outcome, reason), count in sorted(outcomes.items()):
        print(f"{count:>4}  {outcome}" + (f": {reason}" if reason != "-" else ""))
    print(f"{sum(outcomes.values())} runs in {time.perf_counter() - started:.0f} s")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
