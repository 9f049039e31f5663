"""Contention-aware model of the hierarchical interconnect and the HBM.

The structural topology (which links exist, which route a transfer takes)
comes from :class:`repro.arch.interconnect.QuadrantTopology`; this module
attaches a :class:`repro.sim.engine.Server` to every directed link and to
every HBM channel so that concurrent transfers contend for them, which is
the mechanism behind the communication bottlenecks of Sec. V.4 and VI.

A transfer over a route:

1. waits until every link of the route is free (links are acquired in a
   canonical order to avoid deadlock),
2. holds all of them for the serialisation time ``ceil(bytes / width)``,
3. completes after an additional zero-load hop latency.

Transfers from/to HBM additionally occupy one HBM channel (chosen by a
round-robin over the least-loaded channels) for the serialisation time plus
the 100-cycle access latency of Table I.

This is the object-kernel implementation (``engine="python"``).  The
default table lane replaces the per-link servers with flat busy-until
vectors in :mod:`repro.sim.system_table`; the two are bit-identical by
contract, so timing changes here must be applied to both and re-validated
through ``tests/test_sim_kernel_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

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


class LinkPool:
    """Lazily-created :class:`Server` per directed link of the topology."""

    def __init__(self, engine: Engine):
        self._engine = engine
        self._links: Dict[str, Server] = {}

    def get(self, name: str) -> Server:
        """Return the server modelling one directed link."""
        if name not in self._links:
            self._links[name] = Server(self._engine, name, capacity=1)
        return self._links[name]

    def __len__(self) -> int:
        return len(self._links)

    def busy_cycles(self) -> Dict[str, int]:
        """Busy cycles accumulated on every instantiated link."""
        return {name: server.utilization_time for name, server in self._links.items()}


class _TransferGroup:
    """One uncontended transfer occupying every route resource at once.

    When every link of a route (and the HBM channel, if any) is idle, the
    transfer's behaviour is fully determined at submission time: all links
    drain together after the serialisation time and the transfer completes
    one hop-latency later.  Submitting one :class:`Server` job per link
    would schedule ``k`` identical events; this group occupies all ``k``
    slots directly and schedules *one* drain event for the links (plus one
    for the HBM channel, whose service time differs), which is where the
    bulk of the event-kernel speedup comes from.  Statistics and event
    ordering are identical to the per-link submission path.
    """

    __slots__ = ("engine", "servers", "channel", "hop_latency", "on_done", "_pending")

    def __init__(
        self,
        engine: Engine,
        servers: List[Server],
        channel: Optional[Server],
        serialization: int,
        hbm_extra: int,
        hop_latency: int,
        on_done: Callback,
    ):
        self.engine = engine
        self.servers = servers
        self.channel = channel
        self.hop_latency = hop_latency
        self.on_done = on_done
        self._pending = 1 if channel is None else 2
        for server in servers:
            server.occupy(serialization)
        engine.after(serialization, self._drain_links)
        if channel is not None:
            channel.occupy(serialization + hbm_extra)
            engine.after(serialization + hbm_extra, self._drain_channel)

    def _drain_links(self) -> None:
        for server in self.servers:
            server.vacate()
        self._complete()

    def _drain_channel(self) -> None:
        self.channel.vacate()
        self._complete()

    def _complete(self) -> None:
        self._pending -= 1
        if self._pending == 0:
            self.engine.after(self.hop_latency, self.on_done)


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
        self.links = LinkPool(engine)
        self.hbm_channels = [
            Server(engine, f"hbm_channel[{i}]", capacity=1)
            for i in range(arch.hbm.n_channels)
        ]
        self._hbm_next_channel = 0
        #: per-route list of link servers (routes are memoized by the
        #: topology, so object identity is a stable key).
        self._route_servers: Dict[int, List[Server]] = {}

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
        """Occupy every link of the route, then any HBM channel.

        The burst traverses the route in a cut-through fashion: every link
        is occupied for the serialisation time of the whole burst, the
        occupations proceed concurrently, and the transfer completes one
        hop-latency after the slowest link (and, for HBM transfers, the HBM
        channel) has drained it.  Contention therefore appears as queueing
        on shared upper-level links and on the HBM channels, which is the
        effect the paper's communication analysis cares about.

        When every resource along the route is idle — the common case —
        the per-link occupations are batched into one :class:`_TransferGroup`
        (one drain event instead of one per link); the timing, statistics
        and event ordering are identical to the per-link path below.
        """
        servers = self._route_servers.get(id(route))
        if servers is None:
            servers = [self.links.get(name) for name in route.links]
            self._route_servers[id(route)] = servers
        idle = True
        for server in servers:
            if server._in_service or server._waiting:
                idle = False
                break
        channel = None
        if involves_hbm:
            # always pick (even on the congested path) so the round-robin
            # pointer advances identically regardless of which path runs.
            channel = self._pick_hbm_channel()
            if channel._in_service or channel._waiting:
                idle = False
        if idle:
            _TransferGroup(
                self.engine,
                servers,
                channel,
                serialization,
                hbm_extra,
                route.hop_latency_cycles,
                on_done,
            )
            return

        n_resources = len(servers) + (1 if involves_hbm else 0)

        def all_drained() -> None:
            self.engine.after(route.hop_latency_cycles, on_done)

        barrier = Barrier(n_resources, all_drained)
        for server in servers:
            server.submit(serialization, barrier.arrive)
        if involves_hbm:
            channel.submit(serialization + hbm_extra, barrier.arrive)

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

    def link_busy_cycles(self) -> Dict[str, int]:
        """Busy cycles of every link that carried traffic."""
        return self.links.busy_cycles()
