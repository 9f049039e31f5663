"""Contention-aware model of the hierarchical interconnect and the HBM.

The structural topology (which links exist, which route a transfer takes)
comes from :class:`repro.arch.interconnect.QuadrantTopology`; this module
books every transfer on the directed links of its route and on an HBM
channel so that concurrent transfers contend for them, which is the
mechanism behind the communication bottlenecks of Sec. V.4 and VI.

A transfer over a route:

1. waits until every link of the route has drained the bursts booked on
   it before (each link is a capacity-1 FIFO),
2. holds all of them for the serialisation time ``ceil(bytes / width)``,
3. lands one zero-load hop latency after the slowest link has drained it.

Transfers from/to HBM additionally occupy one HBM channel for the
serialisation time plus the 100-cycle access latency of Table I, and land
one hop latency after the later of the link drain and the channel finish.
A burst books the earliest-free channel when it enters the NoC
(:func:`book_hbm_channel`).  Links and channels are capacity-1 FIFOs with
durations fixed at submission, so a transfer's whole timing is known when
it enters the NoC, and its landing is queued then, as one event.

This is the object-kernel implementation (``engine="python"``).  The
default table lane keeps the same busy-until state in flat vectors in
:mod:`repro.sim.system_table` and books HBM channels through the same
:func:`book_hbm_channel`; the two are bit-identical by contract, so
timing changes here must be applied to both and re-validated through
``tests/test_sim_kernel_equivalence.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..arch.config import ArchConfig
from ..arch.interconnect import QuadrantTopology, Route
from .engine import Callback, Engine
from .tracer import Tracer


@dataclass(frozen=True)
class TransferRequest:
    """One DMA transfer through the system interconnect."""

    src_cluster: Optional[int]  # None when the source is the HBM
    dst_cluster: Optional[int]  # None when the destination is the HBM
    n_bytes: int

    def __post_init__(self) -> None:
        if self.n_bytes < 0:
            raise ValueError("transfer size cannot be negative")
        if self.src_cluster is None and self.dst_cluster is None:
            raise ValueError("a transfer needs at least one on-chip endpoint")

    @property
    def involves_hbm(self) -> bool:
        """Whether the transfer reads from or writes to the HBM."""
        return self.src_cluster is None or self.dst_cluster is None

    @property
    def is_local(self) -> bool:
        """Whether source and destination are the same cluster (L1-local copy)."""
        return (
            self.src_cluster is not None
            and self.dst_cluster is not None
            and self.src_cluster == self.dst_cluster
        )


def book_hbm_channel(free_at: List[int], now: int, service: int) -> int:
    """Book one burst of ``service`` cycles on the earliest-free HBM channel.

    ``free_at`` holds each channel's free-at cycle as a heap.  A channel is
    a capacity-1 FIFO whose durations are fixed at submission, so the burst
    finishes at ``max(now, free_at) + service``, known when it enters the
    NoC.  Channels are interchangeable, so only the earliest free-at cycle
    is observable.  Returns the finish cycle.  Both kernels call this.
    """
    earliest = free_at[0]
    finish = (earliest if earliest > now else now) + service
    heapq.heapreplace(free_at, finish)
    return finish


class NocModel:
    """Event-driven model of the quadrant NoC plus the HBM controller."""

    def __init__(
        self,
        engine: Engine,
        arch: ArchConfig,
        tracer: Optional[Tracer] = None,
        model_contention: bool = True,
    ):
        self.engine = engine
        self.arch = arch
        self.topology: QuadrantTopology = arch.topology()
        self.tracer = tracer if tracer is not None else Tracer()
        self.model_contention = model_contention
        #: per-channel free-at cycles of the HBM, kept as a heap.
        self._hbm_free_at: List[int] = [0] * arch.hbm.n_channels
        self._hbm_busy = 0
        #: per-link cycle at which the link drains its last booked burst.
        self._link_until: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def transfer(self, request: TransferRequest, on_done: Callback) -> None:
        """Perform a transfer, calling ``on_done`` when the data has landed."""
        self.transfer_bytes(
            request.src_cluster, request.dst_cluster, request.n_bytes, on_done
        )

    def transfer_bytes(
        self,
        src: Optional[int],
        dst: Optional[int],
        n_bytes: int,
        on_done: Callback,
    ) -> None:
        """:meth:`transfer` on raw endpoints (``None`` = HBM).

        The system simulator issues tens of thousands of transfers per run;
        taking the endpoints directly skips a :class:`TransferRequest`
        allocation per transfer on that hot path.
        """
        if n_bytes < 0:
            raise ValueError("transfer size cannot be negative")
        if n_bytes == 0 or src == dst:
            if src is None and dst is None:
                raise ValueError("a transfer needs at least one on-chip endpoint")
            # Local (same-cluster) handoffs do not touch the NoC; they are
            # plain L1-to-L1 copies accounted to the DMA by the caller.
            self.tracer.record_transfer(n_bytes, 0, local=True)
            self.engine.after(0, on_done)
            return
        topology = self.topology
        if src is None:
            route = topology.route_from_hbm(dst)
            involves_hbm = True
        elif dst is None:
            route = topology.route_to_hbm(src)
            involves_hbm = True
        else:
            route = topology.route(src, dst)
            involves_hbm = False
        serialization = -(-n_bytes // route.min_width_bytes)
        # HBM transfers occupy a controller channel for one access latency per
        # DMA burst plus the serialisation of the payload (closed-page model).
        hbm_extra = 0
        if involves_hbm:
            hbm_extra = self.arch.hbm.service_cycles(n_bytes) - serialization
        self.tracer.record_transfer(
            n_bytes,
            route.n_hops,
            to_hbm=involves_hbm,
            links=route.links,
            busy_cycles=serialization,
        )
        if not self.model_contention:
            total = route.hop_latency_cycles + serialization + hbm_extra
            self.engine.after(total, on_done)
            return
        self._acquire_links(route, involves_hbm, serialization, hbm_extra, on_done)

    def estimate_cycles(self, request: TransferRequest) -> int:
        """Zero-load latency estimate of a transfer (no contention)."""
        if request.n_bytes == 0 or request.is_local:
            return 0
        route = self._route_for(request)
        extra = 0
        if request.involves_hbm:
            extra = self.arch.hbm.service_cycles(request.n_bytes) - route.serialization_cycles(
                request.n_bytes
            )
        return route.zero_load_cycles(request.n_bytes) + max(0, extra)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _route_for(self, request: TransferRequest) -> Route:
        if request.src_cluster is None:
            return self.topology.route_from_hbm(request.dst_cluster)  # type: ignore[arg-type]
        if request.dst_cluster is None:
            return self.topology.route_to_hbm(request.src_cluster)
        return self.topology.route(request.src_cluster, request.dst_cluster)

    def _acquire_links(
        self,
        route: Route,
        involves_hbm: bool,
        serialization: int,
        hbm_extra: int,
        on_done: Callback,
    ) -> None:
        """Book the burst on every link of the route and on an HBM channel.

        The burst traverses the route in a cut-through fashion: every link
        is occupied for the serialisation time of the whole burst, the
        occupations proceed concurrently, and the transfer completes one
        hop-latency after the slowest link (and, for HBM transfers, the HBM
        channel) has drained it.  Contention therefore appears as queueing
        on shared upper-level links and on the HBM channels, which is the
        effect the paper's communication analysis cares about.

        A link is a capacity-1 FIFO whose durations are fixed at
        submission, so it drains a new burst at ``max(now, busy_until) +
        serialization``, and an HBM channel is one too
        (:func:`book_hbm_channel`): the landing is known at issue and is
        queued then, as one event.
        """
        engine = self.engine
        now = engine._now
        until = self._link_until
        drain = now
        for name in route.links:
            queued = until.get(name, 0)
            end = (queued if queued > now else now) + serialization
            until[name] = end
            if end > drain:
                drain = end
        if involves_hbm:
            service = serialization + hbm_extra
            self._hbm_busy += service
            finish = book_hbm_channel(self._hbm_free_at, now, service)
            if finish > drain:
                drain = finish
        engine.at(drain + route.hop_latency_cycles, on_done)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def hbm_busy_cycles(self) -> int:
        """Total busy cycles booked over all HBM channels."""
        return self._hbm_busy
