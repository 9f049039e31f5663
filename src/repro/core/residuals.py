"""Residual tensor management (Sec. V.4 of the paper).

In an ideal pipelined data flow, data is exchanged only between consecutive
pipeline stages.  Residual connections break that assumption: the skip
tensor produced by an early stage is consumed several stages later, so it
must be parked somewhere for the duration of its lifetime.  ResNet-18 needs
about 1.6 MB of simultaneous residual storage — more than one cluster's L1.

Two placements are modelled, matching the paper's comparison:

* ``hbm`` (baseline): residual tiles are written to the off-chip HBM at
  production time and read back just before consumption.  This doubles the
  HBM traffic and, because the HBM link is shared by the whole chip, it
  becomes the pipeline bottleneck.
* ``spare_l1`` (final mapping): residual tiles are parked in the L1 of
  clusters not used for computation (2 extra clusters suffice), keeping the
  traffic on-chip and improving end-to-end performance by roughly 1.9x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..dnn.graph import Graph
from .allocator import ClusterAllocator
from .tiling import TilingPlan


@dataclass(frozen=True)
class ResidualEdge:
    """One skip connection that needs temporary storage."""

    producer: int
    consumer: int
    tensor_bytes: int
    tile_bytes: int
    #: unique label pairing the write and read flows in the simulator.
    label: str

    def __post_init__(self) -> None:
        if self.tensor_bytes < 0 or self.tile_bytes < 0:
            raise ValueError("residual sizes cannot be negative")


@dataclass
class ResidualPlan:
    """Placement decision for every residual edge of a graph."""

    MODE_HBM = "hbm"
    MODE_SPARE_L1 = "spare_l1"

    mode: str
    edges: Tuple[ResidualEdge, ...]
    #: clusters whose L1 is used as residual storage (empty in HBM mode).
    storage_clusters: Tuple[int, ...] = ()
    #: per-edge storage cluster (only in spare-L1 mode).
    assignment: Dict[str, int] = field(default_factory=dict)
    #: double-buffering factor applied when sizing the storage requirement.
    buffering: int = 2

    def __post_init__(self) -> None:
        if self.mode not in (self.MODE_HBM, self.MODE_SPARE_L1):
            raise ValueError(f"unknown residual mode {self.mode!r}")

    # ------------------------------------------------------------------ #

    @property
    def total_storage_bytes(self) -> int:
        """Bytes of simultaneous residual storage the network needs."""
        return self.buffering * sum(edge.tensor_bytes for edge in self.edges)

    @property
    def uses_hbm(self) -> bool:
        """Whether residual traffic goes through the HBM."""
        return self.mode == self.MODE_HBM

    def storage_cluster_for(self, label: str) -> Optional[int]:
        """Storage cluster of one residual edge (``None`` in HBM mode)."""
        return self.assignment.get(label)

    # ------------------------------------------------------------------ #
    @classmethod
    def find_edges(cls, graph: Graph, tiling: TilingPlan) -> Tuple[ResidualEdge, ...]:
        """Identify the skip connections of a graph.

        An edge ``u -> v`` is a residual edge when ``v`` consumes ``u``'s
        output but ``u`` is not the node immediately preceding ``v`` in
        pipeline (topological) order — i.e. the data's lifetime spans more
        than one pipeline stage and it cannot ride the regular
        producer-to-consumer stream.
        """
        graph.ensure_shapes()
        order = {node.node_id: index for index, node in enumerate(graph.topological_order())}
        edges: List[ResidualEdge] = []
        for node in graph.topological_order():
            for producer_id in node.inputs:
                if order[node.node_id] - order[producer_id] <= 1:
                    continue
                producer = graph.node(producer_id)
                shape = producer.output_shape
                if shape is None:
                    continue
                tile_width = math.ceil(shape.width / tiling.tiles_per_image)
                tile_bytes = shape.channels * shape.height * tile_width
                edges.append(
                    ResidualEdge(
                        producer=producer_id,
                        consumer=node.node_id,
                        tensor_bytes=shape.n_bytes(tiling.bytes_per_element),
                        tile_bytes=tile_bytes * tiling.bytes_per_element,
                        label=f"residual_{producer_id}_to_{node.node_id}",
                    )
                )
        return tuple(edges)

    @classmethod
    def build(
        cls,
        graph: Graph,
        tiling: TilingPlan,
        mode: str = MODE_HBM,
        allocator: Optional[ClusterAllocator] = None,
        l1_size_bytes: int = 1 << 20,
        buffering: int = 2,
    ) -> "ResidualPlan":
        """Build the plan, allocating storage clusters in spare-L1 mode."""
        edges = cls.find_edges(graph, tiling)
        if mode == cls.MODE_HBM or not edges:
            return cls(mode=mode, edges=edges, buffering=buffering)
        total = buffering * sum(edge.tensor_bytes for edge in edges)
        n_storage = max(1, math.ceil(total / l1_size_bytes))
        if allocator is not None:
            storage = allocator.allocate(n_storage, "residual.storage")
        else:
            storage = tuple(range(n_storage))
        assignment: Dict[str, int] = {}
        # Round-robin edges over storage clusters, heaviest edges first so
        # the per-cluster footprint stays balanced.
        ranked = sorted(edges, key=lambda edge: edge.tensor_bytes, reverse=True)
        for index, edge in enumerate(ranked):
            assignment[edge.label] = storage[index % len(storage)]
        return cls(
            mode=mode,
            edges=edges,
            storage_clusters=tuple(storage),
            assignment=assignment,
            buffering=buffering,
        )
