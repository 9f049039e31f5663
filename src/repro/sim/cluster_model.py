"""Behavioural model of one heterogeneous cluster.

Each cluster exposes three servers that pipeline-stage jobs contend for:

* the **IMA** (capacity 1): executes analog jobs, asynchronously with
  respect to the cores, as in Sec. IV.5;
* the **core complex** (capacity 1): executes the digital kernels of the
  cluster (reductions, pooling, residual additions, requantisation) as one
  SPMD team;
* the **DMA** (capacity = number of channels): injects transfers into the
  NoC; the serialisation on the cluster port is modelled by the per-channel
  service time.

The cluster also tracks its L1 occupancy so mappings that overflow the 1 MB
scratchpad are rejected (that constraint is what forces data tiling and the
residual spill decisions in the paper).

The DMA burst cost (configuration cycles plus bytes over bandwidth) is
:meth:`~repro.arch.cluster.ClusterSpec.dma_cycles`, the rule both
simulator lanes charge as well; the bursts queue on ``dma_channels`` FIFO
channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..arch.cluster import ClusterSpec
from .engine import Callback, Engine, Server, SimulationError
from .ima_model import IMAJob, IMATimingModel
from .tracer import Tracer


class L1OverflowError(SimulationError):
    """Raised when a cluster's L1 allocation exceeds its capacity."""


class ClusterModel:
    """Event-driven model of one cluster's shared resources."""

    def __init__(
        self,
        engine: Engine,
        cluster_id: int,
        spec: ClusterSpec,
        tracer: Optional[Tracer] = None,
    ):
        self.engine = engine
        self.cluster_id = cluster_id
        self.spec = spec
        self.tracer = tracer if tracer is not None else Tracer()
        self.ima_server = Server(engine, f"cluster[{cluster_id}].ima", capacity=1)
        self.core_server = Server(engine, f"cluster[{cluster_id}].cores", capacity=1)
        self.dma_server = Server(
            engine, f"cluster[{cluster_id}].dma", capacity=spec.dma_channels
        )
        self.timing = IMATimingModel(spec)
        self._l1_allocated = 0
        self._l1_peak = 0

    # ------------------------------------------------------------------ #
    # L1 management
    # ------------------------------------------------------------------ #
    @property
    def l1_allocated(self) -> int:
        """Bytes currently allocated in the cluster L1."""
        return self._l1_allocated

    @property
    def l1_peak(self) -> int:
        """Peak bytes ever allocated in the cluster L1."""
        return self._l1_peak

    @property
    def l1_free(self) -> int:
        """Bytes still available in the cluster L1."""
        return self.spec.l1_size_bytes - self._l1_allocated

    def allocate_l1(self, n_bytes: int, what: str = "buffer") -> None:
        """Reserve ``n_bytes`` of L1, raising :class:`L1OverflowError` if full."""
        if n_bytes < 0:
            raise ValueError("allocation size cannot be negative")
        if self._l1_allocated + n_bytes > self.spec.l1_size_bytes:
            raise L1OverflowError(
                f"cluster {self.cluster_id}: allocating {n_bytes} B for {what} "
                f"exceeds the {self.spec.l1_size_bytes} B L1 "
                f"({self._l1_allocated} B already in use)"
            )
        self._l1_allocated += n_bytes
        self._l1_peak = max(self._l1_peak, self._l1_allocated)

    def free_l1(self, n_bytes: int) -> None:
        """Release ``n_bytes`` of L1."""
        if n_bytes < 0:
            raise ValueError("free size cannot be negative")
        if n_bytes > self._l1_allocated:
            raise SimulationError(
                f"cluster {self.cluster_id}: freeing {n_bytes} B but only "
                f"{self._l1_allocated} B are allocated"
            )
        self._l1_allocated -= n_bytes

    # ------------------------------------------------------------------ #
    # Compute
    # ------------------------------------------------------------------ #
    def run_analog_job(self, job: IMAJob, on_done: Callback) -> int:
        """Submit an analog job to the IMA; returns its service duration."""
        duration = self.timing.job_cycles(job)
        start = self.engine.now

        def finished() -> None:
            self.tracer.record_cluster(
                self.cluster_id, "analog", duration, self.engine.now
            )
            self.tracer.record_job(self.cluster_id)
            on_done()

        self.ima_server.submit(duration, finished)
        return duration

    def run_digital_kernel(
        self, n_ops: int, on_done: Callback, reduction_operands: int = 0
    ) -> int:
        """Submit a digital kernel to the cores; returns its service duration.

        ``reduction_operands`` switches to the reduction cycle model (used
        for partial-sum accumulation), otherwise the element-wise streaming
        model is used.
        """
        cores = self.spec.cores
        if reduction_operands > 1:
            elements = max(1, n_ops // max(1, reduction_operands - 1))
            duration = cores.reduction_cycles(elements, reduction_operands)
        else:
            duration = cores.elementwise_cycles(n_ops)
        def finished() -> None:
            self.tracer.record_cluster(
                self.cluster_id, "digital", duration, self.engine.now
            )
            on_done()

        self.core_server.submit(duration, finished)
        return duration

    # ------------------------------------------------------------------ #
    # DMA
    # ------------------------------------------------------------------ #
    def dma_cycles(self, n_bytes: int) -> int:
        """Cycles the cluster DMA needs to push ``n_bytes`` through its port."""
        return self.spec.dma_cycles(n_bytes)

    def run_dma(self, n_bytes: int, on_done: Callback) -> int:
        """Occupy one DMA channel for the serialisation of ``n_bytes``."""
        duration = self.dma_cycles(n_bytes)
        start = self.engine.now

        def finished() -> None:
            self.tracer.record_cluster(
                self.cluster_id, "communication", duration, self.engine.now
            )
            on_done()

        self.dma_server.submit(duration, finished)
        return duration
