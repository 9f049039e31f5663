"""One benchmark process: set up one workload, then measure or trace it.

``run.py`` starts this script; it is not meant to be started by hand,
except to re-record the pinned outputs after a deliberate model change::

    PYTHONPATH=src python3 perfbench/worker.py --record-pins

Protocol on standard output: a ``READY`` line once set-up (imports plus the
warm-up op) is done, then one ``RESULT <json>`` line.  Untraced, the result
holds the op times at the reference host speed (see :func:`normalised`),
the raw ones and the host probes; traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import heapq
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy

import repro
from repro.scenarios import Scenario
from workloads import STORE_REGIONS, WORKLOADS, Spans

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"

#: the five layers with the most MVM time in the analog forward at
#: 3x256x256 (node id - node name), reported one by one.
TOP_LAYERS = ("25-conv23", "24-conv22", "22-conv20", "21-conv19", "18-conv16")

#: span names reported as per-op seconds (``<name>_s``).
STAGE_SPANS = (
    "dnn.graph", "core.mapping", "core.lower", "sim.simulate", "analysis.metrics",
    "scenarios.warm.graph", "scenarios.warm.mapping", "scenarios.warm.lower",
    "scenarios.warm.simulate", "scenarios.warm.metrics", "scenarios.key",
    "sim.steady_state.attempt", "sim.full_run",
    "dnn.init_params", "dnn.reference", "aimc.program", "aimc.forward",
)
MODEL_METRICS = (
    "model.makespan_cycles", "model.cycles_per_job", "model.analog_cycles",
    "model.digital_cycles", "model.comm_cycles", "model.sync_cycles",
    "model.input_stall_cycles", "model.output_stall_cycles",
    "model.hot_link_busy_cycles", "model.hbm_bytes", "model.noc_byte_hops",
    "model.used_clusters",
)


def host_facts() -> dict:
    """What the numbers were measured on."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "default_engine": Scenario().engine,
        "machine": platform.machine(),
    }


_PROBE_VECTOR = numpy.arange(4096, dtype=float)
_PROBE_MATRIX = numpy.linspace(0.0, 1.0, 96 * 96).reshape(96, 96)


@functools.cache
def _probe_operands():
    """The large-array and BLAS parts' inputs, made on first use so that
    workloads without those parts do not hold them."""
    return (
        numpy.random.default_rng(0).standard_normal(1 << 19),
        numpy.random.default_rng(1).standard_normal((256, 512)),
        numpy.random.default_rng(2).standard_normal((512, 256)),
    )


def _probe_interpreter() -> None:
    """Interpreter work (heap and dict traffic, as in an event loop), with
    small numpy element-wise work and a small BLAS product."""
    heap, table = [], {}
    for i in range(12000):
        heapq.heappush(heap, (i * 7919) % 10007)
        table[i & 1023] = table.get(i & 1023, 0) + i
    while heap:
        heapq.heappop(heap)
    vector = _PROBE_VECTOR
    for _ in range(200):
        vector = numpy.sqrt(vector * 1.0001 + 1.0)
    for _ in range(50):
        _PROBE_MATRIX @ _PROBE_MATRIX


def _probe_arrays() -> None:
    """Large-array work: random draws and element-wise passes over 4 MB
    arrays, as in device programming and quantisation."""
    array = _probe_operands()[0]
    noise = numpy.random.default_rng(3).standard_normal(array.size)
    values = array * 0.5 + noise
    numpy.clip(values, -1.0, 1.0, out=values)
    numpy.round(values * 127.0)


def _probe_blas() -> None:
    """Mid-size BLAS products, as in a crossbar tile's MVMs."""
    _, left, right = _probe_operands()
    for _ in range(4):
        left @ right


def _probe_stream() -> None:
    """A fresh 64 MB array (page faults) streamed through twice, well past
    the caches, as the analog path does with its per-op arrays."""
    block = numpy.full(1 << 23, 1.0)
    block *= 1.5
    float(block.sum())


#: probe parts -> (function, its seconds on the reference host: a
#: 2-vCPU x86_64 VM, Intel Xeon 2.0 GHz, one BLAS thread, at its normal
#: speed).  Host times are reported at this speed.
PROBE_PARTS = {
    "interpreter": (_probe_interpreter, 0.0105),
    "arrays": (_probe_arrays, 0.012),
    "blas": (_probe_blas, 0.0055),
    "stream": (_probe_stream, 0.025),
}
#: warm ops are store reads: interpreter and small-file work on every workload.
WARM_PROBE_PARTS = ("interpreter",)


def host_probe(parts) -> dict:
    """The host's current speed: per probe part (``PROBE_PARTS``), the
    median seconds of three tries.

    The probe is the benchmark's own code, so no change to the package
    moves it; only the host does.
    """
    out = {}
    for part in parts:
        function = PROBE_PARTS[part][0]
        tries = []
        for _ in range(3):
            start = time.perf_counter()
            function()
            tries.append(time.perf_counter() - start)
        out[part] = statistics.median(tries)
    return out


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB, since it started or
    since the last :func:`reset_peak_rss` (Linux ``VmHWM``)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def reset_peak_rss() -> None:
    """Bring the peak resident memory mark down to the current size."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def measure(workload, seconds: float, spans=None):
    """Run rounds back to back until ``seconds`` have passed.

    Returns one list of samples per round, the host probes taken before
    the first round and after every round, and the peak resident memory
    (MB) of set-up and the rounds.  The peak mark is read before each
    probe and reset after it, so the probes' own memory is left out.
    """
    parts = sorted(set(workload.probe_parts) | set(WARM_PROBE_PARTS))
    peak = peak_rss_mb()
    rounds, probes = [], [host_probe(parts)]
    reset_peak_rss()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        rounds.append(workload.round(spans))
        peak = max(peak, peak_rss_mb())
        probes.append(host_probe(parts))
        reset_peak_rss()
    return rounds, probes, peak


def speed_scale(parts, probes, index: int) -> float:
    """Factor that brings the host times of round ``index`` to the
    reference host speed for the mix of probe ``parts``: their reference
    seconds over the median of their probed seconds in the four probes
    nearest the round (two before it, two after; ``index`` -1 is set-up,
    which has only the two after it).

    A single probe is noisier than the host's phases are short, and the
    host changes phase within a process: the window is a few seconds wide
    on the short rounds and spans the whole process on the long ones.
    """
    reference = sum(PROBE_PARTS[part][1] for part in parts)
    window = probes[max(0, index - 1):index + 3]
    return reference / statistics.median(sum(p[part] for part in parts) for p in window)


def normalised(workload, rounds, probes):
    """The samples of each round with their times scaled by
    :func:`speed_scale`: cold ops for the workload's ``probe_parts``, warm
    ops for ``WARM_PROBE_PARTS``."""
    out = []
    for index, samples in enumerate(rounds):
        scales = {
            "cold": speed_scale(workload.probe_parts, probes, index),
            "warm": speed_scale(WARM_PROBE_PARTS, probes, index),
        }
        out.append([replace(s, seconds=s.seconds * scales[s.kind]) for s in samples])
    return out


def flatten(rounds):
    return [sample for samples in rounds for sample in samples]


def seconds_of(samples, kind):
    return [s.seconds for s in samples if s.kind == kind]


def round_means(rounds, kind):
    """Per round, the mean time of its ``kind`` ops.

    The medians of ``op_p50_s`` and ``warm_op_p50_s`` are taken over these.
    A ``ladder_sweep`` pass mixes 18 points whose op times differ several
    fold, and its seeded order decides which point pays for the optimizer
    that the levels of one model and batch share; a median over single
    points would jump between kinds of point, the mean over a pass does not.
    """
    means = []
    for samples in rounds:
        times = seconds_of(samples, kind)
        if times:
            means.append(statistics.fmean(times))
    return means


def per_layer(workload, spans, n_rounds, traced, untraced):
    """Per-layer metrics of a traced run (0 where the workload bypasses a layer)."""
    totals = spans.totals()
    counters = workload.counters
    values = counters.values
    traced_cold = seconds_of(traced, "cold")
    n_cold = len(traced_cold)
    n_warm = max(1, len(seconds_of(traced, "warm")))
    n_rounds = max(1, n_rounds)
    out = {}
    for name in STAGE_SPANS:
        per = n_warm if name.startswith("scenarios.") else n_cold
        out[f"{name}_s"] = totals.get(name, 0.0) / per
    layers = {
        name[len("aimc.layer."):-len(".mvm")]: total / n_cold
        for name, total in totals.items()
        if name.startswith("aimc.layer.")
    }
    out["aimc.mvm_s"] = sum(layers.values())
    out["aimc.digital_s"] = out["aimc.forward_s"] - out["aimc.mvm_s"]
    for layer in TOP_LAYERS:
        out[f"aimc.layer.{layer}.mvm_s"] = layers.get(layer, 0.0)
    out["aimc.crossbars"] = counters.crossbars
    events = values.get("events", 0)
    out["sim.events"] = events / n_cold
    out["sim.ns_per_event"] = totals.get("sim.full_run", 0.0) / events * 1e9 if events else 0.0
    out["sim.steady_state.engaged"] = values.get("ffwd_engaged", 0) / n_cold
    out["sim.steady_state.attempted"] = values.get("ffwd_attempted", 0) / n_cold
    for region in STORE_REGIONS:
        out[f"scenarios.{region}.builds"] = values.get(f"builds.{region}", 0) / n_rounds
        out[f"scenarios.{region}.disk_hits"] = values.get(f"disk_hits.{region}", 0) / n_rounds
    lookups = values.get("warm_lookups", 0)
    out["scenarios.warm_hit_ratio"] = values.get("warm_served", 0) / lookups if lookups else 0.0
    model = workload.model_metrics()
    for name in MODEL_METRICS:
        out[name] = model.get(name, 0)
    out["trace_overhead"] = statistics.median(traced_cold) / statistics.median(
        seconds_of(untraced, "cold")
    )
    return out, layers


def record_pins() -> None:
    pins = {}
    for name, cls in WORKLOADS.items():
        pins[name] = cls(0, HERE, pins).record_pins()
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path)
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--record-pins", action="store_true")
    args = parser.parse_args(argv)
    if args.record_pins:
        record_pins()
        return 0
    pins = json.loads(PINS.read_text())
    workload = WORKLOADS[args.workload](args.seed, args.tmp, pins)
    warmup = workload.setup()
    print("READY", flush=True)

    result = {
        "host": host_facts(),
        "repro": str(Path(repro.__file__).resolve().parent),
    }
    if args.trace:
        half = args.seconds / 2
        untraced_rounds, probes, _ = measure(workload, half)
        untraced = flatten(normalised(workload, untraced_rounds, probes))
        spans = Spans()
        traced_rounds, probes, _ = measure(workload, half, spans)
        traced = flatten(normalised(workload, traced_rounds, probes))
        checks = workload.trace_checks()
        metrics, layers = per_layer(workload, spans, len(traced_rounds), traced, untraced)
        samples = untraced + traced
        result.update(
            metrics=metrics,
            layers_mvm_s=dict(sorted(layers.items(), key=lambda kv: -kv[1])),
            refusals=sorted(workload.counters.refusals),
            untraced_cold=seconds_of(untraced, "cold"),
            traced_cold=seconds_of(traced, "cold"),
        )
        if args.spans_out is not None:
            args.spans_out.write_text(json.dumps(
                {"columns": ["name", "start", "end", "parent", "op"], "spans": spans.records}
            ))
    else:
        raw_rounds, probes, peak_mb = measure(workload, args.seconds)
        rounds = normalised(workload, raw_rounds, probes)
        samples = flatten(rounds)
        checks = []
        result.update(
            probes=probes,
            setup_scale=speed_scale(workload.probe_parts, probes, -1),
            cold=seconds_of(samples, "cold"),
            cold_rounds=round_means(rounds, "cold"),
            warm_rounds=round_means(rounds, "warm"),
            raw_cold_rounds=round_means(raw_rounds, "cold"),
            raw_warm_rounds=round_means(raw_rounds, "warm"),
            peak_rss_mb=peak_mb,
            fidelity_err=workload.headline_fidelity(),
        )
    samples = warmup + samples
    result.update(
        attempted=len(samples),
        failed=sum(1 for s in samples if not s.ok),
        checks=checks,
    )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
