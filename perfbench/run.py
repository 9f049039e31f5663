"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload headline_b16 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a traced run.  Workloads, metrics
and their interactions are described in ``perfbench/README.md``.

An untraced run starts ``PROCESSES`` fresh processes one after another,
each from the checkout's ``src/`` with one BLAS thread; each sets up and
measures for an equal share of ``--seconds``, and the run's metrics are
taken over their pooled samples (see :func:`end_to_end`).  A traced run is
one process.  Every artifact store lives in a temporary directory under
``.perfbench/`` that is removed afterwards.  Results, host facts and
(traced) spans are written to ``.perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("headline_b16", "batch64_ffwd", "ladder_sweep", "analog_accuracy")
#: fresh processes per untraced run; each sets up and measures for an
#: equal share of ``--seconds``.
PROCESSES = 3
#: hard limit on the whole run, in seconds.
RUN_LIMIT_S = 170.0


def declared_units() -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_lines(command, env, deadline):
    """Start a worker; yield ``(line, monotonic time read)`` for its stdout.

    The worker is killed if it outlives ``deadline``, and always waited
    for.  A non-zero exit raises :class:`BenchError`.
    """
    proc = subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise BenchError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit")
                line = proc.stdout.readline()
                if not line:
                    break
                yield line.rstrip("\n"), time.monotonic()
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def run_worker(args, seconds, tmp, env, deadline, spans_out=None):
    """One worker process: returns (set-up seconds, its result)."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(args.trace), "--tmp", str(tmp),
    ]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    started = time.monotonic()
    setup_s = result = None
    for line, when in worker_lines(command, env, deadline):
        if line == "READY":
            setup_s = when - started
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if setup_s is None or result is None:
        raise BenchError("worker ended without reporting")
    return setup_s, result


def tail(values):
    """(value, percentile): the highest percentile with >= 10 samples beyond it.

    Below 21 samples that percentile would fall under the median, so the
    (upper) median is reported instead.
    """
    ordered = sorted(values)
    index = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(setups, results):
    """End-to-end metrics of a run, over the pooled samples of its processes.

    Host times, set-up included, are at the reference host speed
    (``worker.speed_scale``).  ``op_p50_s``, ``op_tail_s`` and
    ``warm_op_p50_s`` are taken over every round of the run, a round's
    sample being its mean op time (see ``worker.round_means``);
    ``ops_per_s`` is over the single cold ops.  ``setup_s`` and
    ``peak_rss_mb`` are medians over the processes.
    """
    scaled_setups = [s * r["setup_scale"] for s, r in zip(setups, results)]
    cold = [t for r in results for t in r["cold"]]
    cold_rounds = [t for r in results for t in r["cold_rounds"]]
    warm_rounds = [t for r in results for t in r["warm_rounds"]]
    peaks = [r["peak_rss_mb"] for r in results]
    tail_s, tail_percentile = tail(cold_rounds)
    metrics = {
        "setup_s": statistics.median(scaled_setups),
        "op_p50_s": statistics.median(cold_rounds),
        "op_tail_s": tail_s,
        "ops_per_s": len(cold) / sum(cold),
        "warm_op_p50_s": statistics.median(warm_rounds),
        "peak_rss_mb": statistics.median(peaks),
        "fidelity_err": results[-1]["fidelity_err"],
    }
    samples = {
        "n_cold": len(cold),
        "n_rounds": len(cold_rounds),
        "op_tail_percentile": tail_percentile,
        "setup_s": scaled_setups,
        "peak_rss_mb": peaks,
        "cold_s": cold,
        "cold_rounds_s": cold_rounds,
        "warm_rounds_s": warm_rounds,
        "raw_setup_s": setups,
        "raw_cold_rounds_s": [t for r in results for t in r["raw_cold_rounds"]],
        "raw_warm_rounds_s": [t for r in results for t in r["raw_warm_rounds"]],
        "probes_s": [t for r in results for t in r["probes"]],
    }
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = declared_units()

    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".perfbench"
    out_dir = work / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    (work / "tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work / "tmp"))
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_CACHE_DIR=str(tmp / "repro-cache"),
    )
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            spans_out = out_dir / f"{stem}-spans.json"
            _, result = run_worker(args, args.seconds, tmp, env, deadline, spans_out)
            results = [result]
            metrics = result.pop("metrics")
        else:
            setups, results = [], []
            for index in range(PROCESSES):
                process_tmp = tmp / f"process-{index}"
                process_tmp.mkdir()
                setup_s, result = run_worker(
                    args, args.seconds / PROCESSES, process_tmp, env, deadline
                )
                setups.append(setup_s)
                results.append(result)
                shutil.rmtree(process_tmp)
            metrics, samples = end_to_end(setups, results)
    except BenchError as error:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    checks = [note for r in results for note in r["checks"]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": results[-1]["host"],
        "repro": results[-1]["repro"],
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "metrics": metrics,
    }
    if args.trace:
        report.update(
            (key, result[key])
            for key in ("layers_mvm_s", "refusals", "untraced_cold", "traced_cold")
        )
    else:
        report["samples"] = samples
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    for name, value in sorted(metrics.items()):
        print(f"{args.workload:<16} {name:<40} {value:.6g}")
    for note in checks:
        print(f"check failed: {note}")
    print(json.dumps({
        "correct": failed == 0 and not checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
