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
        "790324f4a572ce8add6057bfd363c637d9dd7bd579262c8dd3a7cc89007a69b2"
    ),
    ("resnet34", (3, 64, 64), "pipelined", 16, None): (
        "1fa472f2514c94404f286a31af18244324ebe2ea56dd4044c38d8c2bad21ffed"
    ),
    ("mobilenet_v2", (3, 64, 64), "pipelined", 16, None): (
        "22fd42f78a4eb37f144b16824972fe8fc0d94a851fadeb3ac45a02b767024434"
    ),
    ("resnet18", (3, 128, 128), "naive", 16, None): (
        "d922df5a9d4b04efa360fc04fe14d08f77ed877659de1a8d69227aaa06a135fb"
    ),
    ("resnet18", (3, 128, 128), "replicated", 16, None): (
        "3dcc780a5e611d3cd08df05ba6a2d922ded78da735e75a4ca724d0d9d73f55fe"
    ),
    ("tiny_cnn", (3, 32, 32), "naive", 64, 10): (
        "2468193611a6940a7a3f8a3eb78767fd0b207d47092f8c27e225db86b1c2f467"
    ),
    ("linear_cnn", (3, 32, 32), "naive", 64, 10): (
        "2208faf54e96ed0f9dbab552912c17078b09c81bd08db485d3c1f34478f90328"
    ),
    # the stage completion traces of this point move when a queued DMA
    # burst enters the NoC at an event booked at issue instead of through
    # the deferral booked at the channel's free cycle
    ("resnet34", (3, 64, 64), "replicated", 64, None): (
        "4995927763cb85b710bffb1f58a80e3e3f7a1cafaafc666d14c2d932ec1b328f"
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
        list(tracer.stage_replica_groups.items()),
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
