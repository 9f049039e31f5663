"""Tie-heavy equivalence sweep: the object kernel against the table lane.

Draws small contended pipelines whose costs and byte sizes are multiples
of one quantum, so that many events fall due on the same cycle, with
chunked stage flows and residual relays of up to 40 chunks (more chunks
than a cluster has DMA channels, so DMA queues).  A second generator adds
digital clusters and intra-stage partial-sum flows to such pipelines, so
that stages share clusters.  A third arm draws the first generator's
pipelines on an HBM controller with two channels: every draw
fetches its input from the HBM and some relay a residual through it, so
bursts contend for the earliest-free channel.  A fourth arm draws the
first generator's pipelines again with the event queue's compaction
threshold (``repro.sim.engine.COMPACT_ROWS``) lowered to a few rows, so
every run renumbers its pending rows many times, also in the middle of
same-cycle cascades.  A fifth arm draws the first generator's pipelines
with contention off, where every burst lands all its chunks at one cycle
and the table lane lands them through one row.  The first four arms run
with contention on.  Every draw is simulated on both engines at buffer
depths 1, 2 and 5, and the results are compared with
``repro.sim.result_mismatches``.  Run it from the repository root::

    PYTHONPATH=src python tools/tie_sweep.py

It exits 0 when both engines agree on every draw, and 1 otherwise, naming
each diverging generator, seed and depth.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import time

from repro.arch import ArchConfig
from repro.sim import engine as event_queue
from repro.sim import (
    DataFlow,
    StageCost,
    StageDescriptor,
    Workload,
    result_mismatches,
    simulate,
)

#: the seeds drawn; each is simulated at every buffer depth.  Sized to
#: run in about 80 s on a 2-core x86 container.
SEEDS = range(2500)
#: the seeds :func:`digital_tie_workload` draws, disjoint from
#: :data:`SEEDS`; about 20 s on the same container.
DIGITAL_SEEDS = range(2500, 2900)
#: the seeds :func:`tie_workload` draws on :data:`TWO_CHANNEL_ARCH`,
#: disjoint from the other two ranges; about 15 s on the same container.
TWO_CHANNEL_SEEDS = range(2900, 3300)
#: the seeds :func:`tie_workload` draws with the queue compacting every
#: :data:`COMPACT_ROWS` dispatches, disjoint from the other ranges; about
#: 20 s on the same container.
COMPACTING_SEEDS = range(3300, 3700)
#: the compaction threshold of the compacting arm: a run compacts about
#: 100 times, more than half of them while events of the current cycle
#: are still queued.
COMPACT_ROWS = 16
#: the seeds :func:`tie_workload` draws with contention off, disjoint from
#: the other ranges; about 15 s on the same container.
UNCONTENDED_SEEDS = range(3700, 4100)
#: the buffer depths every seed's pipeline is simulated at.
BUFFER_DEPTHS = (1, 2, 5)
#: the architecture every draw is mapped onto (64 clusters).
ARCH = ArchConfig.scaled(64)
#: :data:`ARCH` with a two-channel HBM controller.
TWO_CHANNEL_ARCH = dataclasses.replace(
    ARCH, hbm=dataclasses.replace(ARCH.hbm, n_channels=2)
)
#: the most chunks a flow moves per job (a cluster has 16 DMA channels).
MAX_CHUNKS = 40


def tie_workload(rng: random.Random) -> Workload:
    """A random contended pipeline whose costs and sizes share a quantum.

    Stage flows and an optional residual relay (through a storage
    cluster's L1 or the HBM) move as up to :data:`MAX_CHUNKS` chunks per
    job; at least one draw in three asks for more than 16, the default DMA
    channel count.
    """
    quantum = rng.choice([64, 128, 256])
    n_stages = rng.randint(2, 4)
    n_jobs = rng.choice([7, 12, 24])

    def size():
        return quantum * rng.choice([1, 1, 2, 4])

    def chunks():
        return rng.choice([2, rng.randint(1, MAX_CHUNKS), rng.randint(17, MAX_CHUNKS)])

    residual = None
    if rng.random() < 0.7:
        writer = rng.randrange(n_stages - 1)
        reader = rng.randrange(writer + 1, n_stages)
        kind = rng.choice(["storage", "storage", "hbm"])
        residual = (writer, reader, kind, rng.randrange(64), size(), chunks(),
                    rng.choice([1, 4]))
    stages = []
    cluster = 0
    for i in range(n_stages):
        nbytes = size()
        inputs = (
            (DataFlow("hbm", nbytes, label="in"),)
            if i == 0
            else (DataFlow("stage", nbytes, stage_id=i - 1),)
        )
        outputs = (
            (DataFlow("hbm", size(), label="out"),)
            if i == n_stages - 1
            else (DataFlow("stage", size(), stage_id=i + 1, transfers_per_job=chunks()),)
        )
        if residual is not None:
            writer, reader, kind, where, rbytes, rchunks, depth = residual
            flow = DataFlow(
                kind, rbytes, storage_cluster=where if kind == "storage" else None,
                label="res", buffer_depth=depth, transfers_per_job=rchunks,
            )
            if i == writer:
                outputs = outputs + (flow,)
            if i == reader:
                inputs = inputs + (flow,)
        replicas = []
        for __ in range(rng.choice([1, 1, 2, 3, 4])):
            width = rng.choice([1, 2])
            replicas.append(tuple(range(cluster, cluster + width)))
            cluster += width + rng.choice([0, 1])
        stages.append(
            StageDescriptor(
                stage_id=i,
                name=f"s{i}",
                analog_replicas=tuple(replicas),
                cost=StageCost(
                    analog_cycles_per_job=quantum * rng.randint(1, 8),
                    digital_cycles_per_job=quantum * rng.choice([0, 1, 2]),
                    analog_macs_per_job=100,
                ),
                inputs=inputs,
                outputs=outputs,
            )
        )
    return Workload(
        "tie-sweep",
        stages,
        n_jobs=n_jobs,
        batch_size=n_jobs,
        tiles_per_image=1,
        total_macs=100 * n_jobs * n_stages,
    )


def digital_tie_workload(rng: random.Random) -> Workload:
    """A :func:`tie_workload` draw whose stages also have digital clusters.

    The pipeline is drawn first, unchanged.  Then each stage draws its
    digital clusters from its own replica clusters, the other stages'
    clusters and one free cluster (so stages and record sources share
    clusters), and the bytes of its intra-stage partial-sum flow, which
    runs from each replica to the first digital cluster.
    """
    workload = tie_workload(rng)
    used = {c for stage in workload.stages for replica in stage.analog_replicas
            for c in replica}
    free = min(set(range(ARCH.n_clusters)) - used)
    stages = []
    for stage in workload.stages:
        own = {c for replica in stage.analog_replicas for c in replica}
        candidates = sorted(own) + sorted(used - own) + [free]
        clusters = tuple(rng.sample(candidates, rng.choice([0, 1, 1, 2, 3])))
        cost = dataclasses.replace(
            stage.cost, intra_stage_bytes_per_job=rng.choice([0, 64, 128, 512])
        )
        stages.append(
            dataclasses.replace(stage, digital_clusters=clusters, cost=cost)
        )
    return dataclasses.replace(workload, stages=stages)


def sweep(name, generator, seeds, arch=ARCH, model_contention=True) -> int:
    """Simulate every draw of ``generator`` on both engines on ``arch``;
    return the number of diverging draws."""
    began = time.perf_counter()
    diverged = 0
    for seed in seeds:
        workload = generator(random.Random(seed))
        for depth in BUFFER_DEPTHS:
            python = simulate(arch, workload, model_contention, depth, engine="python")
            table = simulate(arch, workload, model_contention, depth, engine="table")
            mismatches = result_mismatches(python, table)
            if mismatches:
                diverged += 1
                print(f"{name}: seed {seed}, buffer depth {depth}: {mismatches[0]}")
    draws = len(seeds) * len(BUFFER_DEPTHS)
    print(
        f"{name}: {diverged} of {draws} draws diverge "
        f"({len(seeds)} seeds x depths {BUFFER_DEPTHS}), "
        f"{time.perf_counter() - began:.0f} s"
    )
    return diverged


def main() -> int:
    diverged = sweep("tie sweep", tie_workload, SEEDS)
    diverged += sweep("digital tie sweep", digital_tie_workload, DIGITAL_SEEDS)
    diverged += sweep(
        "two-channel HBM tie sweep", tie_workload, TWO_CHANNEL_SEEDS, TWO_CHANNEL_ARCH
    )
    default_rows = event_queue.COMPACT_ROWS
    event_queue.COMPACT_ROWS = COMPACT_ROWS
    try:
        diverged += sweep("compacting tie sweep", tie_workload, COMPACTING_SEEDS)
    finally:
        event_queue.COMPACT_ROWS = default_rows
    diverged += sweep(
        "uncontended tie sweep", tie_workload, UNCONTENDED_SEEDS, model_contention=False
    )
    return 1 if diverged else 0


if __name__ == "__main__":
    sys.exit(main())
