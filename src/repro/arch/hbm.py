"""High-Bandwidth Memory (HBM) specification.

The chip of Fig. 1B gathers its input data from a shared off-chip HBM through
an HBM controller hanging off the wrapper level of the interconnect.  Table I
gives a 1.5 GB capacity and a 100-cycle access latency for the HBM link; the
controller serialises bursts over a 64-byte wide channel.

The paper identifies HBM traffic as a first-order bottleneck: when residual
tensors are staged in HBM, contention on the controller limits the whole
pipeline (Sec. V.4), which is why the final mapping keeps residuals in spare
clusters' L1 instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class HBMSpec:
    """Static parameters of the shared HBM and its controller."""

    size_bytes: int = int(1.5 * (1 << 30))  # 1.5 GB
    access_latency_cycles: int = 100
    data_width_bytes: int = 64
    #: maximum DMA burst size towards the HBM controller: larger transfers
    #: are issued as multiple bursts and every burst pays the 100-cycle
    #: access latency (closed-page behaviour).  This is the knob that makes
    #: scattered residual traffic expensive, as observed in Sec. V.4.
    max_burst_bytes: int = 1024
    #: number of independent channels/pseudo-channels the controller exposes;
    #: transfers are serialised within a channel but different channels can
    #: proceed in parallel.  A burst books the earliest-free channel when it
    #: enters the NoC (``repro.sim.noc.book_hbm_channel``).  Table I exposes
    #: a single 64-byte HBM link through one controller (Fig. 1B), so the
    #: default is 1, and every shipped configuration uses one channel.
    n_channels: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("HBM size must be positive")
        if self.access_latency_cycles < 0:
            raise ValueError("access latency cannot be negative")
        if self.data_width_bytes <= 0:
            raise ValueError("data width must be positive")
        if self.n_channels <= 0:
            raise ValueError("HBM needs at least one channel")
        if self.max_burst_bytes <= 0:
            raise ValueError("max_burst_bytes must be positive")

    def serialization_cycles(self, n_bytes: int) -> int:
        """Cycles to serialise ``n_bytes`` over a single channel."""
        if n_bytes <= 0:
            return 0
        return math.ceil(n_bytes / self.data_width_bytes)

    def zero_load_cycles(self, n_bytes: int) -> int:
        """Zero-load latency of one burst: access latency plus serialisation."""
        return self.access_latency_cycles + self.serialization_cycles(n_bytes)

    def n_bursts(self, n_bytes: int) -> int:
        """Number of DMA bursts a transfer of ``n_bytes`` is split into."""
        if n_bytes <= 0:
            return 0
        return math.ceil(n_bytes / self.max_burst_bytes)

    def service_cycles(self, n_bytes: int) -> int:
        """Controller-channel occupancy of a transfer: one access latency per burst."""
        if n_bytes <= 0:
            return 0
        return self.n_bursts(n_bytes) * self.access_latency_cycles + self.serialization_cycles(
            n_bytes
        )

    def fits(self, n_bytes: int) -> bool:
        """Whether ``n_bytes`` of data fit in the HBM."""
        return 0 <= n_bytes <= self.size_bytes


DEFAULT_HBM_SPEC = HBMSpec()
"""The 1.5 GB, 100-cycle HBM used in Table I."""
