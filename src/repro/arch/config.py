"""Top-level architecture configuration (the paper's Table I).

:class:`ArchConfig` bundles the cluster, IMA, interconnect, HBM, area and
energy descriptions into one object that the mapping engine, the simulator
and the analysis code all consume.  ``ArchConfig.paper()`` returns the exact
configuration of Table I; ``ArchConfig.scaled(...)`` builds smaller design
points that are convenient for tests and for the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Sequence

from .area_power import AreaModel, EnergyModel, DEFAULT_AREA_MODEL, DEFAULT_ENERGY_MODEL
from .cluster import ClusterSpec, CoreSpec, DEFAULT_CLUSTER_SPEC
from .hbm import HBMSpec, DEFAULT_HBM_SPEC
from .ima import IMASpec
from .interconnect import InterconnectSpec, QuadrantTopology, DEFAULT_INTERCONNECT_SPEC


@dataclass(frozen=True)
class ArchConfig:
    """Complete description of the many-core AIMC system.

    Attributes mirror Table I of the paper; the defaults reproduce the
    512-cluster configuration evaluated in the paper.
    """

    n_clusters: int = 512
    cluster: ClusterSpec = field(default_factory=lambda: DEFAULT_CLUSTER_SPEC)
    interconnect: InterconnectSpec = field(default_factory=lambda: DEFAULT_INTERCONNECT_SPEC)
    hbm: HBMSpec = field(default_factory=lambda: DEFAULT_HBM_SPEC)
    area: AreaModel = field(default_factory=lambda: DEFAULT_AREA_MODEL)
    energy: EnergyModel = field(default_factory=lambda: DEFAULT_ENERGY_MODEL)
    name: str = "paper-512"

    def __post_init__(self) -> None:
        if self.n_clusters <= 0:
            raise ValueError("the system needs at least one cluster")
        if self.n_clusters > self.interconnect.max_clusters:
            raise ValueError(
                f"{self.n_clusters} clusters do not fit under an interconnect "
                f"hosting at most {self.interconnect.max_clusters}"
            )

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def ima(self) -> IMASpec:
        """The IMA specification shared by every cluster."""
        return self.cluster.ima

    @property
    def cores(self) -> CoreSpec:
        """The digital core-complex specification shared by every cluster."""
        return self.cluster.cores

    @property
    def frequency_hz(self) -> float:
        """System operating frequency (1 GHz in Table I)."""
        return self.cluster.frequency_hz

    @property
    def cycle_time_ns(self) -> float:
        """Duration of one system clock cycle in nanoseconds."""
        return self.cluster.cycle_time_ns

    @property
    def total_cores(self) -> int:
        """Total number of RISC-V cores in the system."""
        return self.n_clusters * self.cores.n_cores

    @property
    def total_crossbar_params(self) -> int:
        """Aggregate non-volatile parameter capacity across all IMAs."""
        return self.n_clusters * self.ima.capacity_params

    @property
    def peak_tops(self) -> float:
        """Ideal peak analog throughput with every IMA busy on full MVMs."""
        return self.n_clusters * self.ima.peak_tops

    @property
    def chip_area_mm2(self) -> float:
        """Total silicon area of the system."""
        return self.area.system_mm2(self.n_clusters)

    def topology(self) -> QuadrantTopology:
        """The quadrant topology of this configuration.

        Routes are a pure function of the interconnect and the cluster
        count, so equal configurations share one topology and the routes
        it has memoized.
        """
        return _topology(self.interconnect, self.n_clusters)

    # ------------------------------------------------------------------ #
    # Table I rendering
    # ------------------------------------------------------------------ #
    def table1(self) -> Dict[str, str]:
        """Return the Table I rows for this configuration, as strings."""
        factors = tuple(level.quadrant_factor for level in self.interconnect.levels)
        widths = tuple(level.data_width_bytes for level in self.interconnect.levels)
        latencies = tuple(level.latency_cycles for level in self.interconnect.levels)
        return {
            "Number of clusters": str(self.n_clusters),
            "Number of IMA per cluster": "1",
            "Number of CORES per cluster": str(self.cores.n_cores),
            "L1 memory size": f"{self.cluster.l1_size_bytes // (1 << 20)} MB",
            "HBM size": f"{self.hbm.size_bytes / (1 << 30):.1f} GB",
            "Operating frequency": f"{self.frequency_hz / 1e9:g} GHz",
            "Number of streamers ports (read and write)": str(self.ima.n_streamer_ports),
            "IMA crossbar size": f"{self.ima.rows}x{self.ima.cols}",
            "Analog latency (MVM operation)": f"{self.ima.analog_latency_ns:g} ns",
            "Quadrant factor (HBM link,wrapper,L3,L2,L1)": str(factors),
            "Data Width (HBM link,wrapper,L3,L2,L1)": f"{widths} Bytes",
            "Latency (HBM,link,wrapper,L3,L2,L1)": f"{latencies} cycles",
        }

    # ------------------------------------------------------------------ #
    # Factory methods
    # ------------------------------------------------------------------ #
    @classmethod
    def paper(cls) -> "ArchConfig":
        """The exact Table I configuration (512 clusters, 256x256 IMAs)."""
        return cls()

    @classmethod
    def scaled(
        cls,
        n_clusters: int,
        crossbar_size: int = 256,
        cores_per_cluster: int = 16,
        l1_size_bytes: int = 1 << 20,
        quadrant_factors: Optional[Sequence[int]] = None,
        analog_latency_ns: float = 130.0,
        name: Optional[str] = None,
    ) -> "ArchConfig":
        """Build a smaller or otherwise modified design point.

        ``quadrant_factors`` defaults to a hierarchy wide enough for
        ``n_clusters``: the bottom levels keep the paper's factor of 4 and
        the wrapper level absorbs the remainder.
        """
        if n_clusters <= 0:
            raise ValueError("n_clusters must be positive")
        ima = IMASpec(
            rows=crossbar_size,
            cols=crossbar_size,
            analog_latency_ns=analog_latency_ns,
        )
        cores = CoreSpec(n_cores=cores_per_cluster)
        cluster = ClusterSpec(cores=cores, ima=ima, l1_size_bytes=l1_size_bytes)
        if quadrant_factors is None:
            quadrant_factors = _default_factors(n_clusters)
        interconnect = InterconnectSpec.from_factors(list(quadrant_factors))
        if interconnect.max_clusters < n_clusters:
            raise ValueError(
                "quadrant factors host only "
                f"{interconnect.max_clusters} clusters, need {n_clusters}"
            )
        return cls(
            n_clusters=n_clusters,
            cluster=cluster,
            interconnect=interconnect,
            name=name or f"scaled-{n_clusters}x{crossbar_size}",
        )


@lru_cache(maxsize=16)
def _topology(interconnect: InterconnectSpec, n_clusters: int) -> QuadrantTopology:
    return QuadrantTopology(interconnect, n_clusters)


def _default_factors(n_clusters: int) -> list:
    """Quadrant factors (top to bottom) hosting at least ``n_clusters``.

    The bottom three levels use the paper's factor of 4; the wrapper level
    grows to cover the requested cluster count; the HBM link factor is 1.
    """
    import math

    base = 4 * 4 * 4
    wrapper = max(1, math.ceil(n_clusters / base))
    return [1, wrapper, 4, 4, 4]
