"""Contention-aware model of the hierarchical interconnect and the HBM.

The structural topology (which links exist, which route a transfer takes)
comes from :class:`repro.arch.interconnect.QuadrantTopology`; this module
books every transfer on the directed links of its route and on an HBM
channel (a :class:`repro.sim.engine.Server`) so that concurrent transfers
contend for them, which is the mechanism behind the communication
bottlenecks of Sec. V.4 and VI.

A transfer over a route:

1. waits until every link of the route has drained the bursts booked on
   it before (each link is a capacity-1 FIFO),
2. holds all of them for the serialisation time ``ceil(bytes / width)``,
3. completes after an additional zero-load hop latency.

Transfers from/to HBM additionally occupy one HBM channel (chosen by a
round-robin over the least-loaded channels) for the serialisation time plus
the 100-cycle access latency of Table I.

This is the object-kernel implementation (``engine="python"``).  The
default table lane keeps the same busy-until state in flat vectors in
:mod:`repro.sim.system_table`; the two are bit-identical by contract, so
timing changes here must be applied to both and re-validated through
``tests/test_sim_kernel_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..arch.config import ArchConfig
from ..arch.interconnect import QuadrantTopology, Route
from .engine import Barrier, Callback, Engine, Server
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
        self.hbm_channels = [
            Server(engine, f"hbm_channel[{i}]", capacity=1)
            for i in range(arch.hbm.n_channels)
        ]
        self._hbm_next_channel = 0
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
        """Book the burst on every link of the route, then on an HBM channel.

        The burst traverses the route in a cut-through fashion: every link
        is occupied for the serialisation time of the whole burst, the
        occupations proceed concurrently, and the transfer completes one
        hop-latency after the slowest link (and, for HBM transfers, the HBM
        channel) has drained it.  Contention therefore appears as queueing
        on shared upper-level links and on the HBM channels, which is the
        effect the paper's communication analysis cares about.

        A link is a capacity-1 FIFO whose durations are fixed at
        submission, so it drains a new burst at ``max(now, busy_until) +
        serialization``: the drain of the whole route is known at issue and
        is booked then, as one event at the drain cycle.  The HBM channel
        stays a :class:`Server`, because the round-robin pick reads channel
        state at issue time; the links and the channel join in a two-way
        barrier.
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
        hop = route.hop_latency_cycles

        def drained() -> None:
            engine.after(hop, on_done)

        if not involves_hbm:
            engine.at(drain, drained)
            return
        barrier = Barrier(2, drained)
        engine.at(drain, barrier.arrive)
        self._pick_hbm_channel().submit(serialization + hbm_extra, barrier.arrive)

    def _pick_hbm_channel(self) -> Server:
        """Round-robin over HBM channels, preferring idle ones."""
        channels = self.hbm_channels
        start = self._hbm_next_channel
        best = None
        for offset in range(len(channels)):
            candidate = channels[(start + offset) % len(channels)]
            if candidate.in_service == 0 and candidate.queue_length == 0:
                best = candidate
                self._hbm_next_channel = (start + offset + 1) % len(channels)
                break
        if best is None:
            best = min(channels, key=lambda ch: ch.queue_length + ch.in_service)
            self._hbm_next_channel = (start + 1) % len(channels)
        return best

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def hbm_busy_cycles(self) -> int:
        """Total busy cycles accumulated over all HBM channels."""
        return sum(channel.utilization_time for channel in self.hbm_channels)
