"""Specification of one heterogeneous analog/digital cluster.

A cluster (Fig. 1A of the paper) contains:

* a parallel group of RISC-V cores sharing a multi-banked L1 scratchpad
  (TCDM) for SPMD execution,
* a hardware event unit / synchronizer for cheap barriers and thread
  dispatching,
* a DMA engine for cluster-to-cluster and cluster-to-HBM transfers,
* one IMA (nvAIMC accelerator) acting as a master on the TCDM interconnect.

This module carries the static description and its cost rules
(:meth:`ClusterSpec.dma_cycles` and the like); the simulator kernels
(:mod:`repro.sim.system`, :mod:`repro.sim.system_table`) charge them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .ima import IMASpec, DEFAULT_IMA_SPEC


@dataclass(frozen=True)
class CoreSpec:
    """Static parameters of the digital RISC-V cores of a cluster.

    The per-kernel throughput numbers are simple calibrated cycle models: the
    cores are RI5CY-class in-order cores with DSP extensions, and the digital
    kernels the paper runs on them (residual additions, max/avg pooling,
    reductions of partial sums, im2col-style data marshalling) are
    memory-streaming loops that sustain roughly one element per core per
    cycle once parallelised, minus a parallelisation overhead.
    """

    n_cores: int = 16
    frequency_hz: float = 1.0e9
    #: elements processed per core per cycle for streaming element-wise
    #: kernels (residual add, ReLU, pooling window compare).
    elementwise_throughput: float = 0.5
    #: elements accumulated per core per cycle for reduction kernels.
    reduction_throughput: float = 0.5
    #: cycles of fixed overhead per parallel kernel launch (barrier + fork).
    kernel_overhead_cycles: int = 100
    #: cycles for the master core to configure one DMA transfer.
    dma_config_cycles: int = 30

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ValueError("a cluster needs at least one core")
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if self.elementwise_throughput <= 0 or self.reduction_throughput <= 0:
            raise ValueError("core throughputs must be positive")

    @property
    def cycle_time_ns(self) -> float:
        """Duration of one clock cycle in nanoseconds."""
        return 1e9 / self.frequency_hz

    def elementwise_cycles(self, n_elements: int, n_clusters: int = 1) -> int:
        """Cycles to run an element-wise kernel over ``n_elements`` elements.

        ``n_clusters`` models plain parallelisation of a digital layer over
        multiple clusters (Sec. V.2): the elements are split evenly and each
        cluster pays the fixed kernel overhead.
        """
        if n_elements < 0:
            raise ValueError("n_elements must be non-negative")
        if n_clusters <= 0:
            raise ValueError("n_clusters must be positive")
        per_cluster = math.ceil(n_elements / n_clusters)
        compute = math.ceil(per_cluster / (self.n_cores * self.elementwise_throughput))
        return self.kernel_overhead_cycles + compute

    def reduction_cycles(self, n_elements: int, n_operands: int) -> int:
        """Cycles for one cluster to accumulate ``n_operands`` partial tensors.

        Each of the ``n_elements`` output elements requires ``n_operands - 1``
        additions; the work is spread over the cores.
        """
        if n_operands < 1:
            raise ValueError("a reduction needs at least one operand")
        adds = n_elements * max(0, n_operands - 1)
        compute = math.ceil(adds / (self.n_cores * self.reduction_throughput))
        return self.kernel_overhead_cycles + compute


@dataclass(frozen=True)
class ClusterSpec:
    """Static parameters of one heterogeneous cluster (Fig. 1A, Table I)."""

    cores: CoreSpec = field(default_factory=CoreSpec)
    ima: IMASpec = field(default_factory=lambda: DEFAULT_IMA_SPEC)
    l1_size_bytes: int = 1 << 20  # 1 MB
    l1_banks: int = 32
    #: bytes per cycle the cluster DMA can move in or out of the cluster.
    dma_bandwidth_bytes_per_cycle: int = 64
    #: maximum number of outstanding DMA transfers.
    dma_channels: int = 16

    def __post_init__(self) -> None:
        if self.l1_size_bytes <= 0:
            raise ValueError("L1 size must be positive")
        if self.l1_banks <= 0:
            raise ValueError("L1 must have at least one bank")
        if self.dma_bandwidth_bytes_per_cycle <= 0:
            raise ValueError("DMA bandwidth must be positive")
        if self.dma_channels <= 0:
            raise ValueError("DMA must have at least one channel")

    @property
    def frequency_hz(self) -> float:
        """Cluster clock frequency (cores, DMA and IMA digital side)."""
        return self.cores.frequency_hz

    @property
    def cycle_time_ns(self) -> float:
        """Duration of one cluster clock cycle in nanoseconds."""
        return self.cores.cycle_time_ns

    @property
    def analog_latency_cycles(self) -> int:
        """Latency of one analog MVM expressed in cluster clock cycles."""
        return math.ceil(self.ima.analog_latency_ns / self.cycle_time_ns)

    def dma_cycles(self, n_bytes: int) -> int:
        """Cycles one DMA channel is busy pushing ``n_bytes`` out of the cluster.

        A burst pays the channel's configuration cycles plus its bytes over
        the port bandwidth; an empty burst costs nothing.  Every simulator
        model charges a DMA burst with this rule.
        """
        if n_bytes <= 0:
            return 0
        return self.cores.dma_config_cycles + self.delivery_cycles(n_bytes)

    def delivery_cycles(self, n_bytes: int) -> int:
        """Communication cycles charged to the cluster receiving ``n_bytes``."""
        return math.ceil(n_bytes / self.dma_bandwidth_bytes_per_cycle)


DEFAULT_CLUSTER_SPEC = ClusterSpec()
"""The 16-core, 1 MB L1, single-IMA cluster used throughout the paper."""
