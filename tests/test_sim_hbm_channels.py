"""HBM controllers with more than one channel, on both kernels.

Every shipped configuration has one HBM channel.  A burst to or from the
HBM books the earliest-free channel when it enters the NoC
(:func:`repro.sim.noc.book_hbm_channel`); these tests reach the
multi-channel side of that rule in the object kernel and the table lane.
"""

import dataclasses

import pytest

from repro.arch import ArchConfig
from repro.sim import (
    DataFlow,
    StageCost,
    StageDescriptor,
    SystemSimulator,
    Workload,
    result_mismatches,
    simulate,
)
from repro.sim.system import SIMULATION_ENGINES

from test_sim_fast_forward import _zoo_workload


def _with_channels(arch: ArchConfig, n_channels: int) -> ArchConfig:
    return dataclasses.replace(arch, hbm=dataclasses.replace(arch.hbm, n_channels=n_channels))


def _twin_writers(n_bytes: int) -> Workload:
    """Two input-less one-job stages on clusters 0 and 1 with equal costs,
    each writing ``n_bytes`` to the HBM: their bursts enter the NoC in the
    same cycle, stage 0's first."""
    stages = [
        StageDescriptor(
            stage_id=i,
            name=f"writer{i}",
            analog_replicas=((i,),),
            cost=StageCost(analog_cycles_per_job=400, analog_macs_per_job=100),
            inputs=(),
            outputs=(DataFlow("hbm", n_bytes, label=f"out{i}"),),
        )
        for i in range(2)
    ]
    return Workload("twin-writers", stages, n_jobs=1, batch_size=1,
                    tiles_per_image=1, total_macs=200)


@pytest.mark.parametrize("engine", SIMULATION_ENGINES)
@pytest.mark.parametrize("n_channels", [1, 2])
def test_bursts_entering_together_share_one_channel_or_take_two(engine, n_channels):
    arch = _with_channels(ArchConfig.scaled(16), n_channels)
    n_bytes = 1024
    service = arch.hbm.service_cycles(n_bytes)
    # the two routes share every link but the first, so the second burst
    # drains them one serialisation later; both drains end before a
    # channel finishes its first burst
    assert 2 * -(-n_bytes // arch.hbm.data_width_bytes) < service
    simulator = SystemSimulator(arch, _twin_writers(n_bytes), True, engine=engine)
    result = simulator.run()
    # a write's job completes when its burst lands
    (first,), (second,) = (result.completion_trace(i) for i in range(2))
    assert second - first == (service if n_channels == 1 else 0)
    if simulator.noc is not None:  # the object kernel's NocModel
        assert simulator.noc.hbm_busy_cycles() == 2 * service


def test_kernels_agree_with_two_channels_on_a_naive_mapping():
    # the naive mapping stages its residuals in the HBM
    arch, workload = _zoo_workload("resnet18", (3, 64, 64), "naive", 16, 512)
    two = _with_channels(arch, 2)
    python = simulate(two, workload, True, engine="python")
    table = simulate(two, workload, True, engine="table")
    assert table.tracer.hbm_bytes > 0
    assert result_mismatches(python, table) == []
    one = simulate(arch, workload, True)
    assert result_mismatches(one, table)  # the second channel is used
    assert table.makespan_cycles <= one.makespan_cycles
