"""Performance-degradation waterfall (Fig. 6 of the paper).

The paper decomposes the gap between the system's ideal peak throughput and
the achieved end-to-end throughput into four multiplicative factors:

1. **global mapping** — not every cluster holds parameters (322/512 in the
   paper's mapping);
2. **local mapping** — the clusters that are used do not fill their
   crossbar (or do not use it at all for digital-only work);
3. **intra-layer unbalance** — the pipeline runs at the pace of its slowest
   stage, so balanced-compute throughput is not reached;
4. **communication** — NoC/HBM transfers and their contention add stalls on
   top of the compute-limited pipeline.

:func:`compute_waterfall` reproduces this decomposition from the mapping
statistics plus two simulations of the same workload (one with all
communication suppressed, one complete).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..arch.config import ArchConfig
from ..core.mapping import NetworkMapping
from ..core.pipeline import lower_to_workload
from ..sim.system import SimulationResult, simulate


@dataclass(frozen=True)
class WaterfallStep:
    """One bar of the Fig. 6 waterfall."""

    name: str
    throughput_tops: float
    degradation_from_previous: float
    cumulative_degradation: float


@dataclass(frozen=True)
class Waterfall:
    """The full ideal-to-achieved decomposition."""

    steps: tuple
    total_degradation: float

    def step(self, name: str) -> WaterfallStep:
        """Return one step by name."""
        for item in self.steps:
            if item.name == name:
                return item
        raise KeyError(f"no waterfall step named {name!r}")

    def as_dict(self) -> Dict[str, float]:
        """Step name to throughput (TOPS)."""
        return {item.name: item.throughput_tops for item in self.steps}

    def format(self) -> str:
        """ASCII rendering of the waterfall."""
        lines = [f"{'step':<22} {'TOPS':>10} {'step x':>8} {'cum x':>8}"]
        for item in self.steps:
            lines.append(
                f"{item.name:<22} {item.throughput_tops:>10.1f} "
                f"{item.degradation_from_previous:>7.1f}x "
                f"{item.cumulative_degradation:>7.1f}x"
            )
        return "\n".join(lines)


def compute_waterfall(
    mapping: NetworkMapping,
    full_result: Optional[SimulationResult] = None,
    compute_only_result: Optional[SimulationResult] = None,
) -> Waterfall:
    """Build the Fig. 6 waterfall for one mapping.

    ``full_result`` and ``compute_only_result`` are reused when the caller
    already simulated the workload (they are recomputed otherwise).
    """
    arch: ArchConfig = mapping.arch
    if compute_only_result is None:
        compute_only_result = simulate(
            arch, lower_to_workload(mapping, zero_communication=True)
        )
    if full_result is None:
        full_result = simulate(arch, lower_to_workload(mapping))

    ops = full_result.workload.total_ops
    ideal_tops = arch.peak_tops
    global_tops = ideal_tops * mapping.global_mapping_efficiency
    # the cell use of the *used* clusters scales the global-mapping bar
    local_tops = global_tops * mapping.local_mapping_efficiency
    unbalance_tops = ops / compute_only_result.makespan_seconds / 1e12
    unbalance_tops = min(unbalance_tops, local_tops)
    communication_tops = ops / full_result.makespan_seconds / 1e12
    communication_tops = min(communication_tops, unbalance_tops)

    values = [
        ("ideal", ideal_tops),
        ("global mapping", global_tops),
        ("local mapping", local_tops),
        ("intra-layer unbalance", unbalance_tops),
        ("communication", communication_tops),
    ]
    steps: List[WaterfallStep] = []
    previous = ideal_tops
    for name, tops in values:
        step_factor = previous / tops if tops > 0 else float("inf")
        cumulative = ideal_tops / tops if tops > 0 else float("inf")
        steps.append(
            WaterfallStep(
                name=name,
                throughput_tops=tops,
                degradation_from_previous=step_factor if name != "ideal" else 1.0,
                cumulative_degradation=cumulative if name != "ideal" else 1.0,
            )
        )
        previous = tops
    total = steps[-1].cumulative_degradation
    return Waterfall(steps=tuple(steps), total_degradation=total)
