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
it enters the NoC, and its landing is queued then, as one event.  With
contention off, a transfer lands as it would on idle links and an idle
channel.

This is the object-kernel implementation (``engine="python"``).  The
default table lane keeps the same busy-until state in flat vectors in
:mod:`repro.sim.system_table`; both kernels take a route from
:meth:`~repro.arch.interconnect.QuadrantTopology.route_between`, a
burst's timing from :func:`burst_timing` and an HBM channel from
:func:`book_hbm_channel`.  The two are bit-identical by contract, so
booking changes here must be applied to both and re-validated through
``tests/test_sim_kernel_equivalence.py``.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ..arch.config import ArchConfig
from ..arch.hbm import HBMSpec
from ..arch.interconnect import QuadrantTopology, Route
from .engine import Callback, Engine
from .tracer import Tracer


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


def burst_timing(
    route: Route, n_bytes: int, hbm: Optional[HBMSpec]
) -> Tuple[int, int, int]:
    """The fixed timing of one burst of ``n_bytes`` over ``route``.

    ``hbm`` is the HBM's spec when the burst goes to or from the HBM, else
    ``None``.  Returns ``(serialization, service, uncontended)``: the
    cycles the burst holds each link of the route, the cycles it holds an
    HBM channel (0 for an on-chip burst), and the cycles from NoC entry to
    landing on idle links and an idle channel, which is one hop latency
    after the later of the drain and the channel finish.  Both kernels
    call this.
    """
    serialization = route.serialization_cycles(n_bytes)
    # HBM bursts occupy a controller channel for one access latency per
    # DMA burst plus the serialisation of the payload (closed-page model).
    service = hbm.service_cycles(n_bytes) if hbm is not None else 0
    slowest = service if service > serialization else serialization
    return serialization, service, route.hop_latency_cycles + slowest


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
    def transfer_bytes(
        self,
        src: Optional[int],
        dst: Optional[int],
        n_bytes: int,
        on_done: Callback,
    ) -> None:
        """Move ``n_bytes`` from ``src`` to ``dst`` (cluster ids, ``None`` =
        HBM), calling ``on_done`` when the data has landed."""
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
        route = self.topology.route_between(src, dst)
        involves_hbm = src is None or dst is None
        serialization, service, uncontended = burst_timing(
            route, n_bytes, self.arch.hbm if involves_hbm else None
        )
        self.tracer.record_transfer(
            n_bytes,
            route.n_hops,
            to_hbm=involves_hbm,
            links=route.links,
            busy_cycles=serialization,
        )
        if not self.model_contention:
            self.engine.after(uncontended, on_done)
            return
        self._acquire_links(route, involves_hbm, serialization, service, on_done)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _acquire_links(
        self,
        route: Route,
        involves_hbm: bool,
        serialization: int,
        service: int,
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
