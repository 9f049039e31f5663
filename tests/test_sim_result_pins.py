"""Pinned full results of tie-prone real points, on both kernels.

perfbench pins the ``SimulationRecord`` and the metrics of its own points,
and the equivalence suite compares the two kernels with each other.
Neither notices a change that moves a same-cycle tie in both kernels at
once: the stage completion traces or the insertion order of the tracer's
dicts could move without a pinned figure changing.  This module pins a
digest of every observable :func:`repro.sim.result_mismatches` compares,
in its order, on contended points outside perfbench's set whose
activations or residuals go through the HBM, and checks each pin on both
engines.

A change that is meant to move these results re-pins them from
:func:`result_digest` and bumps
:data:`~repro.sim.system.SIMULATION_PAYLOAD_VERSION`.
"""

import hashlib

import pytest

from repro.sim import simulate
from repro.sim.system import SIMULATION_ENGINES

from test_sim_fast_forward import _zoo_workload

#: (model, input shape, level, batch, classes) -> digest of the contended
#: run on the paper's 512 clusters with 256-wide crossbars.
PINNED_RESULTS = {
    ("resnet18", (3, 64, 64), "pipelined", 16, None): (
        "c7d82804ecce1794b33bbd830dbcbf889bbdd7e29112e6b83d281248e10bb364"
    ),
    ("resnet34", (3, 64, 64), "pipelined", 16, None): (
        "1490e458ee7fdb245f32ffb97d7cc8b66daff77a21b8446d268112543a948f36"
    ),
    ("mobilenet_v2", (3, 64, 64), "pipelined", 16, None): (
        "bab6754bc923122e3af4e85e2110183866c16d491147fdf0a557e7283b2baf49"
    ),
    ("resnet18", (3, 128, 128), "naive", 16, None): (
        "7585442a6dc8285b99833a68d84f5f932172a5e1560381d02128f5cc6b651c94"
    ),
    ("resnet18", (3, 128, 128), "replicated", 16, None): (
        "bfee5e85ffc4fb700d71826f02bdd4982585cf533735a59d5d815263c68c77da"
    ),
    ("tiny_cnn", (3, 32, 32), "naive", 64, 10): (
        "3af16a06aca0b3e072c068c152ae58f49ba7c6135270b5507faf3287c1111742"
    ),
    ("linear_cnn", (3, 32, 32), "naive", 64, 10): (
        "47d8afa80609f1c253859aacddbfc7ac32a654855fe3f639013478cbe5387c44"
    ),
    # the stage completion traces of this point move when a queued DMA
    # burst enters the NoC at an event booked at issue instead of through
    # the deferral booked at the channel's free cycle
    ("resnet34", (3, 64, 64), "replicated", 64, None): (
        "7eb6a070d8a9eca211d337f355283ef6f9fb2ce84e8b06abcc1187070ad9d468"
    ),
}


def result_digest(result) -> str:
    """SHA-256 of every observable ``result_mismatches`` compares, in its
    order, with the insertion order of every dict."""
    tracer = result.tracer
    refusal = result.fast_forward_refusal
    observables = (
        result.makespan_cycles,
        list(result.jobs_completed.items()),
        tuple(result.final_stage_completions),
        result.model_contention,
        result.fast_forwarded,
        None if refusal is None else refusal.to_payload(),
        [getattr(tracer, counter) for counter in (
            "noc_bytes", "noc_byte_hops", "hbm_bytes", "local_bytes",
            "n_transfers", "makespan",
        )],
        [
            (cid, x.analog, x.digital, x.communication, x.synchronization,
             x.last_busy_cycle, x.jobs)
            for cid, x in tracer.clusters.items()
        ],
        [
            (sid, x.name, x.jobs_completed, x.analog_busy, x.digital_busy,
             x.input_stall, x.output_stall, x.first_job_start, x.last_job_end)
            for sid, x in tracer.stages.items()
        ],
        list(tracer.link_busy.items()),
        [(sid, list(trace)) for sid, trace in tracer.stage_completions.items()],
        list(tracer.request_completions.items()),
    )
    return hashlib.sha256(repr(observables).encode()).hexdigest()


@pytest.mark.parametrize(
    "point", list(PINNED_RESULTS), ids=lambda p: f"{p[0]}-{p[1][1]}px-{p[2]}-b{p[3]}"
)
def test_result_is_pinned(point):
    model, shape, level, batch, classes = point
    arch, workload = _zoo_workload(model, shape, level, batch, 512, classes)
    for engine in SIMULATION_ENGINES:
        result = simulate(arch, workload, True, engine=engine)
        assert result_digest(result) == PINNED_RESULTS[point], engine
