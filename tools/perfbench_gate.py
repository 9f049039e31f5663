"""Base-vs-head regression gate over the perfbench workloads.

Every workload of ``BENCHMARK.json`` runs first in the base checkout and
then in the head checkout, on the same machine: timings taken on
different machines are never comparable.  The gate fails when the head is
not correct, fails more ops than the base, or is worse than the base on an
end-to-end metric of ``BENCHMARK.json`` by more than that metric's
``bound`` (its ``better`` field gives the direction).

Run it from the root of the head checkout, with the base checkout at
``../base``::

    git worktree add ../base <base commit>
    python tools/perfbench_gate.py

It exits 0 when the gate passes and 1 when it fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

#: the base checkout, relative to the root of the head checkout.
BASE = Path("../base")
#: seconds each workload runs in each checkout.
SECONDS = 6
#: each workload's seed, the same as in CI's "Benchmark pins" step.  The
#: simulator workloads pin integer cycle counts, the same on every CPU, so
#: they run at seed 0; analog_accuracy's seed-0 pin passes through BLAS,
#: whose results differ between CPUs, so it runs at seed 1, where every op
#: must equal the run's own warm-up record.
SEEDS = {
    "headline_b16": 0,
    "batch64_ffwd": 0,
    "ladder_sweep": 0,
    "analog_accuracy": 1,
}


def run_workload(checkout: Path, workload: str, seed: int) -> dict:
    """The result line of one untraced perfbench run of ``checkout``."""
    stdout = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    return json.loads(stdout.strip().splitlines()[-1])


def is_worse(metric: dict, old: float, new: float) -> bool:
    """Whether ``new`` is worse than ``old`` by more than ``metric``'s bound."""
    bound = metric["bound"]
    if metric["better"] == "lower":
        return new > old * (1 + bound)
    if metric["better"] == "higher":
        return new < old * (1 - bound)
    raise ValueError(f"{metric['name']}: unknown direction {metric['better']!r}")


def compare(
    workload: str, base: dict, head: dict, metrics: List[dict]
) -> Tuple[List[str], List[str]]:
    """Report rows and failures of the head's run of ``workload`` against the base's."""
    rows: List[str] = []
    failures: List[str] = []
    if head["correct"] is not True:
        failures.append(f"{workload}: head is not correct")
    if head["failed"] > base["failed"]:
        failures.append(
            f"{workload}: head failed {head['failed']} op(s), base {base['failed']}"
        )
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        if name not in head["metrics"]:
            failures.append(f"{workload}: head reports no {name}")
            continue
        if name not in base["metrics"]:
            rows.append(f"{workload:<16} {name:<14} new metric, not gated")
            continue
        old = base["metrics"][name]["value"]
        new = head["metrics"][name]["value"]
        worse = is_worse(metric, old, new)
        flag = f"  worse by more than {bound:.0%}" if worse else ""
        rows.append(f"{workload:<16} {name:<14} base {old:<10.4g} head {new:<10.4g}{flag}")
        if worse:
            failures.append(f"{workload}: {name} {old:.4g} -> {new:.4g}{flag}")
    return rows, failures


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    failures: List[str] = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        seed = SEEDS[workload]
        base = run_workload(BASE, workload, seed)
        head = run_workload(Path("."), workload, seed)
        rows, found = compare(workload, base, head, spec["end_to_end"])
        print("\n".join(rows), flush=True)
        failures += found
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    print("every workload correct; no end-to-end metric worse than its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
