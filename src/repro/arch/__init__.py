"""Architecture description of the massively parallel AIMC system.

This package captures the hardware template of the paper (Sec. II and
Table I): heterogeneous clusters coupling RISC-V cores with a non-volatile
analog in-memory-computing accelerator (IMA), a hierarchical quadrant
interconnect, a shared HBM, and parametric area/energy models.
"""

from .area_power import (
    AreaModel,
    EnergyBreakdown,
    EnergyModel,
    DEFAULT_AREA_MODEL,
    DEFAULT_ENERGY_MODEL,
)
from .cluster import ClusterSpec, CoreSpec, DEFAULT_CLUSTER_SPEC
from .config import ArchConfig
from .hbm import HBMSpec, DEFAULT_HBM_SPEC
from .ima import IMASpec, DEFAULT_IMA_SPEC
from .interconnect import (
    InterconnectSpec,
    LevelSpec,
    QuadrantTopology,
    Route,
    DEFAULT_INTERCONNECT_SPEC,
)

__all__ = [
    "ArchConfig",
    "AreaModel",
    "ClusterSpec",
    "CoreSpec",
    "EnergyBreakdown",
    "EnergyModel",
    "HBMSpec",
    "IMASpec",
    "InterconnectSpec",
    "LevelSpec",
    "QuadrantTopology",
    "Route",
    "DEFAULT_AREA_MODEL",
    "DEFAULT_CLUSTER_SPEC",
    "DEFAULT_ENERGY_MODEL",
    "DEFAULT_HBM_SPEC",
    "DEFAULT_IMA_SPEC",
    "DEFAULT_INTERCONNECT_SPEC",
]
