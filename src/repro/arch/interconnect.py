"""Hierarchical quadrant interconnect description.

The many-core system of the paper (Fig. 1B/1D) connects its clusters through
a hierarchical network of AXI nodes: Level-1 nodes connect ``N1`` clusters,
Level-2 nodes connect ``N2`` Level-1 quadrants, and so on, up to a *wrapper*
node that connects the whole chip to the HBM controller through an HBM link.

Table I gives the *quadrant factors* from the top of the hierarchy down:

``(HBM link, wrapper, L3, L2, L1) = (1, 8, 4, 4, 4)``

i.e. an L1 node groups 4 clusters, an L2 node groups 4 L1 quadrants, an L3
node groups 4 L2 quadrants, the wrapper groups 8 L3 quadrants (512 clusters
in total), and a single HBM link connects the wrapper to the HBM controller.
Every level uses 64-byte wide links; the per-hop latencies are
``(100, 4, 4, 4, 4)`` cycles.

This module provides a purely structural description — node identifiers,
parent/child relations and routes expressed as lists of directed links —
that :mod:`repro.sim.noc` turns into contention-aware router components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class LevelSpec:
    """Parameters of one level of the interconnect hierarchy."""

    name: str
    quadrant_factor: int
    data_width_bytes: int
    latency_cycles: int

    def __post_init__(self) -> None:
        if self.quadrant_factor <= 0:
            raise ValueError("quadrant factor must be positive")
        if self.data_width_bytes <= 0:
            raise ValueError("data width must be positive")
        if self.latency_cycles < 0:
            raise ValueError("latency cannot be negative")


@dataclass(frozen=True)
class InterconnectSpec:
    """Full interconnect description, top (HBM link) to bottom (L1 nodes).

    ``levels`` is ordered from the HBM link down to the L1 level, mirroring
    the order Table I uses for its tuples.  The product of the quadrant
    factors equals the number of clusters the topology can host.
    """

    levels: Tuple[LevelSpec, ...] = (
        LevelSpec("hbm_link", 1, 64, 100),
        LevelSpec("wrapper", 8, 64, 4),
        LevelSpec("l3", 4, 64, 4),
        LevelSpec("l2", 4, 64, 4),
        LevelSpec("l1", 4, 64, 4),
    )

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("the interconnect needs at least one level")

    # ------------------------------------------------------------------ #
    # Global shape
    # ------------------------------------------------------------------ #
    @property
    def max_clusters(self) -> int:
        """Number of clusters the full topology hosts."""
        total = 1
        for level in self.levels:
            total *= level.quadrant_factor
        return total

    @property
    def depth(self) -> int:
        """Number of interconnect levels (including the HBM link)."""
        return len(self.levels)

    def level(self, name: str) -> LevelSpec:
        """Return a level by name, raising ``KeyError`` if absent."""
        for lvl in self.levels:
            if lvl.name == name:
                return lvl
        raise KeyError(f"no interconnect level named {name!r}")

    @classmethod
    def from_factors(
        cls,
        factors: Sequence[int],
        data_widths: Sequence[int] | int = 64,
        latencies: Sequence[int] | None = None,
        names: Sequence[str] | None = None,
    ) -> "InterconnectSpec":
        """Build a spec from raw Table-I style tuples.

        ``factors`` is ordered top (HBM link) to bottom (L1).  ``data_widths``
        may be a single integer applied to all levels.  ``latencies`` defaults
        to 100 cycles for the top level and 4 cycles elsewhere (Table I).
        """
        n = len(factors)
        if n == 0:
            raise ValueError("at least one quadrant factor is required")
        if isinstance(data_widths, int):
            widths = [data_widths] * n
        else:
            widths = list(data_widths)
        if len(widths) != n:
            raise ValueError("data_widths length must match factors length")
        if latencies is None:
            lats = [100] + [4] * (n - 1)
        else:
            lats = list(latencies)
        if len(lats) != n:
            raise ValueError("latencies length must match factors length")
        if names is None:
            if n == 5:
                names = ["hbm_link", "wrapper", "l3", "l2", "l1"]
            else:
                names = [f"level{n - i - 1}" for i in range(n)]
        levels = tuple(
            LevelSpec(name, factor, width, lat)
            for name, factor, width, lat in zip(names, factors, widths, lats)
        )
        return cls(levels=levels)


@dataclass(frozen=True)
class Route:
    """A path through the interconnect.

    Attributes
    ----------
    links:
        Ordered directed link names traversed by the transfer.  Link names
        are stable identifiers used by the NoC simulator to attach
        contention state.
    hop_latency_cycles:
        Sum of the per-hop router latencies along the path (zero-load
        latency, excluding serialisation and contention).
    min_width_bytes:
        Narrowest link width along the path; serialisation time of a burst
        is ``ceil(bytes / min_width_bytes)`` cycles.
    """

    links: Tuple[str, ...]
    hop_latency_cycles: int
    min_width_bytes: int

    @property
    def n_hops(self) -> int:
        """Number of directed links traversed."""
        return len(self.links)

    def serialization_cycles(self, n_bytes: int) -> int:
        """Cycles to push ``n_bytes`` through the narrowest link of the path."""
        if n_bytes <= 0:
            return 0
        return -(-int(n_bytes) // self.min_width_bytes)

    def zero_load_cycles(self, n_bytes: int) -> int:
        """Zero-load latency of a burst: hop latency plus serialisation."""
        return self.hop_latency_cycles + self.serialization_cycles(n_bytes)


class QuadrantTopology:
    """Concrete instantiation of an :class:`InterconnectSpec`.

    The topology assigns every cluster an index in ``range(n_clusters)`` and
    provides routes between clusters and between a cluster and the HBM.
    Cluster indices are laid out depth-first, so clusters ``0..3`` share an
    L1 node, clusters ``0..15`` share an L2 node, and so on — the same
    locality the paper's mapping exploits when placing consecutive pipeline
    stages in neighbouring clusters.
    """

    HBM_NODE = "hbm"

    def __init__(self, spec: InterconnectSpec | None = None, n_clusters: int | None = None):
        self.spec = spec if spec is not None else InterconnectSpec()
        max_clusters = self.spec.max_clusters
        if n_clusters is None:
            n_clusters = max_clusters
        if not 0 < n_clusters <= max_clusters:
            raise ValueError(
                f"n_clusters must be in 1..{max_clusters}, got {n_clusters}"
            )
        self.n_clusters = n_clusters
        # Bottom-up list of levels (L1 first) is more convenient for routing.
        self._bottom_up: List[LevelSpec] = list(reversed(self.spec.levels))
        # Group sizes: how many clusters live under one node of each level.
        self._group_sizes: List[int] = []
        size = 1
        for level in self._bottom_up:
            size *= level.quadrant_factor
            self._group_sizes.append(size)
        # Routes are pure functions of the (immutable) topology, and the
        # event simulator asks for the same handful of routes tens of
        # thousands of times per run, so they are memoized.
        self._route_cache: Dict[Tuple[int, int], Route] = {}
        self._hbm_up_cache: Dict[int, Route] = {}
        self._hbm_down_cache: Dict[int, Route] = {}

    # ------------------------------------------------------------------ #
    # Node naming
    # ------------------------------------------------------------------ #
    def node_name(self, level_index: int, node_index: int) -> str:
        """Name of the ``node_index``-th node at bottom-up level ``level_index``."""
        level = self._bottom_up[level_index]
        return f"{level.name}[{node_index}]"

    def ancestor_index(self, cluster: int, level_index: int) -> int:
        """Index of the node at bottom-up level ``level_index`` above ``cluster``."""
        self._check_cluster(cluster)
        return cluster // self._group_sizes[level_index]

    def _check_cluster(self, cluster: int) -> None:
        if not 0 <= cluster < self.n_clusters:
            raise ValueError(
                f"cluster index {cluster} out of range 0..{self.n_clusters - 1}"
            )

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def common_level(self, src: int, dst: int) -> int:
        """Lowest bottom-up level whose node is shared by ``src`` and ``dst``."""
        self._check_cluster(src)
        self._check_cluster(dst)
        for i in range(len(self._bottom_up)):
            if self.ancestor_index(src, i) == self.ancestor_index(dst, i):
                return i
        # The top node is shared by construction, so this is unreachable.
        raise AssertionError("clusters share no ancestor")  # pragma: no cover

    def route(self, src: int, dst: int) -> Route:
        """Route from cluster ``src`` to cluster ``dst``.

        The route climbs from the source cluster to the lowest common
        quadrant node and descends to the destination cluster.  Every
        directed edge traversed contributes its level's router latency, and
        every edge is named so the NoC simulator can model contention on it.
        Routes are memoized: repeated calls return the same object.
        """
        cached = self._route_cache.get((src, dst))
        if cached is not None:
            return cached
        self._check_cluster(src)
        self._check_cluster(dst)
        route = self._build_route(src, dst)
        self._route_cache[(src, dst)] = route
        return route

    def _build_route(self, src: int, dst: int) -> Route:
        if src == dst:
            return Route(links=(), hop_latency_cycles=0, min_width_bytes=self._min_width())
        top = self.common_level(src, dst)
        links: List[str] = []
        latency = 0
        # Upward path: cluster -> L1 node -> ... -> common node.
        links.append(self._edge(f"cluster[{src}]", self._node_of(src, 0), "up"))
        latency += self._bottom_up[0].latency_cycles
        for i in range(top):
            links.append(self._edge(self._node_of(src, i), self._node_of(src, i + 1), "up"))
            latency += self._bottom_up[i + 1].latency_cycles
        # Downward path: common node -> ... -> destination cluster.
        for i in range(top, 0, -1):
            links.append(self._edge(self._node_of(dst, i), self._node_of(dst, i - 1), "down"))
            latency += self._bottom_up[i].latency_cycles
        links.append(self._edge(self._node_of(dst, 0), f"cluster[{dst}]", "down"))
        latency += self._bottom_up[0].latency_cycles
        return Route(
            links=tuple(links),
            hop_latency_cycles=latency,
            min_width_bytes=self._min_width(),
        )

    def route_to_hbm(self, cluster: int) -> Route:
        """Route from a cluster all the way up to the HBM controller."""
        cached = self._hbm_up_cache.get(cluster)
        if cached is not None:
            return cached
        self._check_cluster(cluster)
        links: List[str] = []
        latency = 0
        links.append(self._edge(f"cluster[{cluster}]", self._node_of(cluster, 0), "up"))
        latency += self._bottom_up[0].latency_cycles
        for i in range(len(self._bottom_up) - 1):
            links.append(
                self._edge(self._node_of(cluster, i), self._node_of(cluster, i + 1), "up")
            )
            latency += self._bottom_up[i + 1].latency_cycles
        top_index = len(self._bottom_up) - 1
        links.append(self._edge(self._node_of(cluster, top_index), self.HBM_NODE, "up"))
        # The top level in Table I order is the HBM link; bottom-up it is the
        # last element and its latency covers the hop into the controller.
        latency += self._bottom_up[top_index].latency_cycles
        route = Route(
            links=tuple(links),
            hop_latency_cycles=latency,
            min_width_bytes=self._min_width(),
        )
        self._hbm_up_cache[cluster] = route
        return route

    def route_from_hbm(self, cluster: int) -> Route:
        """Route from the HBM controller down to a cluster."""
        cached = self._hbm_down_cache.get(cluster)
        if cached is not None:
            return cached
        up = self.route_to_hbm(cluster)
        links = tuple(self._reverse_edge(link) for link in reversed(up.links))
        route = Route(
            links=links,
            hop_latency_cycles=up.hop_latency_cycles,
            min_width_bytes=up.min_width_bytes,
        )
        self._hbm_down_cache[cluster] = route
        return route

    def route_between(self, src: Optional[int], dst: Optional[int]) -> Route:
        """Route of a transfer from ``src`` to ``dst``, where ``None`` is the
        HBM: :meth:`route_from_hbm`, :meth:`route_to_hbm` or :meth:`route`."""
        if src is None:
            if dst is None:
                raise ValueError("a transfer needs at least one on-chip endpoint")
            return self.route_from_hbm(dst)
        if dst is None:
            return self.route_to_hbm(src)
        return self.route(src, dst)

    def hop_distance(self, src: int, dst: int) -> int:
        """Number of directed links between two clusters (0 when equal)."""
        return self.route(src, dst).n_hops

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _node_of(self, cluster: int, level_index: int) -> str:
        return self.node_name(level_index, self.ancestor_index(cluster, level_index))

    def _min_width(self) -> int:
        return min(level.data_width_bytes for level in self.spec.levels)

    @staticmethod
    def _edge(src: str, dst: str, direction: str) -> str:
        return f"{src}->{dst}"

    @staticmethod
    def _reverse_edge(link: str) -> str:
        src, __, dst = link.partition("->")
        return f"{dst}->{src}"


DEFAULT_INTERCONNECT_SPEC = InterconnectSpec()
"""Table I interconnect: quadrant factors (1, 8, 4, 4, 4), 64 B links."""
