"""Throughput, energy and area-efficiency metrics (Sec. VI headline numbers).

:func:`compute_metrics` turns a simulation result plus the mapping it came
from into the figures the paper reports: TOPS, images/s, latency, energy,
TOPS/W and GOPS/mm2.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..arch.area_power import EnergyBreakdown
from ..arch.config import ArchConfig
from ..core.mapping import NetworkMapping
from ..sim.system import SimulationResult


@dataclass(frozen=True)
class PerformanceMetrics:
    """Headline performance/efficiency figures of one simulated inference run."""

    name: str
    batch_size: int
    makespan_ms: float
    total_ops: int
    total_macs: int
    throughput_tops: float
    images_per_second: float
    latency_per_image_ms: float
    used_clusters: int
    total_clusters: int
    chip_area_mm2: float
    area_efficiency_gops_mm2: float
    energy_mj: float
    energy_breakdown: Dict[str, float]
    power_w: float
    energy_efficiency_tops_w: float
    hbm_traffic_mb: float
    noc_traffic_mb: float
    #: per-request latency percentiles and sustained throughput of
    #: open-system (arrival-driven) workloads; ``None`` on closed batches,
    #: so records written before the serving axis round-trip unchanged.
    request_latency_p50_ms: Optional[float] = None
    request_latency_p95_ms: Optional[float] = None
    request_latency_p99_ms: Optional[float] = None
    sustained_qps: Optional[float] = None
    #: whether the offered load exceeds the pipeline's steady-state service
    #: rate (queues grow without bound; the percentiles then depend on the
    #: run length, not just the arrival process).
    saturated: Optional[bool] = None

    def as_record(self) -> Dict[str, object]:
        """Complete plain-data rendering (JSON-safe), losslessly invertible.

        Unlike :meth:`as_dict` — a curated selection for reports — this is
        the serialisation layer the scenario subsystem uses to move metrics
        across process boundaries and into JSON result files.
        """
        return dict(dataclasses.asdict(self))

    @classmethod
    def from_record(cls, payload: Dict[str, object]) -> "PerformanceMetrics":
        """Inverse of :meth:`as_record`."""
        return cls(**payload)

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary of the scalar metrics (for reports and tests)."""
        return {
            "batch_size": self.batch_size,
            "makespan_ms": self.makespan_ms,
            "throughput_tops": self.throughput_tops,
            "images_per_second": self.images_per_second,
            "latency_per_image_ms": self.latency_per_image_ms,
            "used_clusters": self.used_clusters,
            "area_efficiency_gops_mm2": self.area_efficiency_gops_mm2,
            "energy_mj": self.energy_mj,
            "power_w": self.power_w,
            "energy_efficiency_tops_w": self.energy_efficiency_tops_w,
            "hbm_traffic_mb": self.hbm_traffic_mb,
            "noc_traffic_mb": self.noc_traffic_mb,
            **(
                {
                    "request_latency_p50_ms": self.request_latency_p50_ms,
                    "request_latency_p95_ms": self.request_latency_p95_ms,
                    "request_latency_p99_ms": self.request_latency_p99_ms,
                    "sustained_qps": self.sustained_qps,
                    "saturated": self.saturated,
                }
                if self.request_latency_p50_ms is not None
                else {}
            ),
        }


def compute_energy(result: SimulationResult) -> EnergyBreakdown:
    """Energy of one simulated run, from the traffic/compute counters."""
    arch = result.arch
    workload = result.workload
    model = arch.energy
    duration_s = result.makespan_seconds
    active = workload.n_used_clusters
    idle = max(0, arch.n_clusters - active)
    digital_ops = workload.total_digital_ops
    return EnergyBreakdown(
        analog_mj=model.analog_energy_mj(workload.total_macs),
        digital_mj=model.digital_energy_mj(digital_ops),
        local_traffic_mj=model.local_traffic_energy_mj(result.tracer.local_bytes),
        noc_traffic_mj=model.noc_traffic_energy_mj(result.tracer.noc_byte_hops),
        hbm_traffic_mj=model.hbm_traffic_energy_mj(result.tracer.hbm_bytes),
        static_mj=model.static_energy_mj(active, idle, duration_s),
    )


def percentile(ordered: Sequence[int], q: float) -> int:
    """Nearest-rank percentile of an ascending sequence (exact, no
    interpolation — the returned value is always an observed latency)."""
    if not ordered:
        raise ValueError("cannot take a percentile of an empty sequence")
    rank = math.ceil(q * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def compute_metrics(
    result: SimulationResult,
    mapping: Optional[NetworkMapping] = None,
    name: Optional[str] = None,
) -> PerformanceMetrics:
    """Derive the paper's headline metrics from a simulation result.

    On an open-system workload (the simulation recorded per-request
    completions) the serving metrics are filled in as well: p50/p95/p99
    request latency — sojourn from arrival to final-stage completion, one
    request = one pipeline job — sustained QPS (requests completed per
    second of wall time between the first arrival and the last
    completion), and the ``saturated`` flag (mean inter-arrival time below
    the pipeline's observed steady-state service time per job).
    """
    arch: ArchConfig = result.arch
    workload = result.workload
    seconds = result.makespan_seconds
    if seconds <= 0:
        raise ValueError("simulation produced a zero-length run")
    ops = workload.total_ops
    tops = ops / seconds / 1e12
    images = workload.batch_size
    images_per_second = images / seconds
    area = arch.chip_area_mm2
    energy = compute_energy(result)
    energy_mj = energy.total_mj
    power_w = energy_mj * 1e-3 / seconds
    tops_per_w = tops / power_w if power_w > 0 else 0.0
    used = mapping.n_used_clusters if mapping is not None else workload.n_used_clusters
    p50_ms = p95_ms = p99_ms = qps = saturated = None
    latencies = result.request_latencies()
    if latencies:
        cycle_ms = arch.cycle_time_ns * 1e-6
        ordered = sorted(latencies)
        p50_ms = percentile(ordered, 0.50) * cycle_ms
        p95_ms = percentile(ordered, 0.95) * cycle_ms
        p99_ms = percentile(ordered, 0.99) * cycle_ms
        arrivals = workload.arrival_cycles
        completions = result.request_completions
        span_cycles = max(1, max(completions.values()) - arrivals[0])
        qps = len(completions) / (span_cycles * arch.cycle_time_ns * 1e-9)
        n = len(arrivals)
        mean_gap = (arrivals[-1] - arrivals[0]) / (n - 1) if n > 1 else 0.0
        saturated = mean_gap < result.steady_state_cycles_per_job()
    return PerformanceMetrics(
        name=name or workload.name,
        batch_size=workload.batch_size,
        makespan_ms=result.makespan_ms,
        total_ops=ops,
        total_macs=workload.total_macs,
        throughput_tops=tops,
        images_per_second=images_per_second,
        latency_per_image_ms=result.makespan_ms / images,
        used_clusters=used,
        total_clusters=arch.n_clusters,
        chip_area_mm2=area,
        area_efficiency_gops_mm2=tops * 1e3 / area,
        energy_mj=energy_mj,
        energy_breakdown=energy.as_dict(),
        power_w=power_w,
        energy_efficiency_tops_w=tops_per_w,
        hbm_traffic_mb=result.tracer.hbm_bytes / 1e6,
        noc_traffic_mb=result.tracer.noc_bytes / 1e6,
        request_latency_p50_ms=p50_ms,
        request_latency_p95_ms=p95_ms,
        request_latency_p99_ms=p99_ms,
        sustained_qps=qps,
        saturated=saturated,
    )
