"""Data tiling along the feature-map width (Sec. IV.4 of the paper).

Whole feature maps of a 256x256 ResNet-18 do not fit the 1 MB cluster L1
(the first post-stem IFM alone is exactly 1 MB), so every IFM/OFM is cut
into vertical slices ("tiles") along the ``W`` dimension.  One tile of one
image is the unit of work of the pipeline — a *job* in the simulator's
vocabulary — and ``W`` tiling implicitly defines the batching dimension.

The tiling is static and common to the whole pipeline: the number of tiles
per image is chosen as the smallest power of two such that every layer's
per-tile working set (input tile + output tile, double-buffered) fits in
the cluster L1 with a safety margin for the runtime's own buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..arch.cluster import ClusterSpec
from ..dnn.graph import Graph, Node


@dataclass(frozen=True)
class TilingPlan:
    """Static W-tiling decision shared by every pipeline stage."""

    tiles_per_image: int
    batch_size: int
    #: bytes per activation element (8-bit activations).
    bytes_per_element: int = 1
    #: fraction of the L1 available for tile buffers (the rest is reserved
    #: for the runtime, partial sums and residual staging).
    l1_budget_fraction: float = 0.75

    def __post_init__(self) -> None:
        if self.tiles_per_image <= 0:
            raise ValueError("tiles_per_image must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0 < self.l1_budget_fraction <= 1:
            raise ValueError("l1_budget_fraction must be in (0, 1]")

    @property
    def n_jobs(self) -> int:
        """Total pipeline jobs for one batch (tiles x images)."""
        return self.tiles_per_image * self.batch_size

    # ------------------------------------------------------------------ #
    # Per-node tile sizes
    # ------------------------------------------------------------------ #
    def input_tile_bytes(self, node: Node) -> int:
        """Bytes of one input tile of ``node`` (first input for multi-input)."""
        if not node.input_shapes:
            return 0
        shape = node.input_shapes[0]
        width = math.ceil(shape.width / self.tiles_per_image)
        return shape.channels * shape.height * width * self.bytes_per_element

    def output_tile_bytes(self, node: Node) -> int:
        """Bytes of one output tile of ``node``."""
        shape = node.output_shape
        if shape is None:
            return 0
        width = math.ceil(shape.width / self.tiles_per_image)
        return shape.channels * shape.height * width * self.bytes_per_element

    def output_tile_columns(self, node: Node) -> int:
        """Output-feature-map columns produced per job by ``node``."""
        shape = node.output_shape
        if shape is None:
            return 0
        return math.ceil(shape.width / self.tiles_per_image)

    def working_set_bytes(self, node: Node) -> int:
        """Double-buffered input + output tile footprint of ``node``."""
        return 2 * (self.input_tile_bytes(node) + self.output_tile_bytes(node))

    def fits(self, graph: Graph, cluster: ClusterSpec) -> bool:
        """Whether every node's working set fits the L1 budget."""
        budget = int(cluster.l1_size_bytes * self.l1_budget_fraction)
        graph.ensure_shapes()
        return all(self.working_set_bytes(node) <= budget for node in graph.nodes)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def choose(
        cls,
        graph: Graph,
        cluster: ClusterSpec,
        batch_size: int,
        bytes_per_element: int = 1,
        l1_budget_fraction: float = 0.75,
        max_tiles: int = 256,
    ) -> "TilingPlan":
        """Pick the smallest power-of-two tile count that fits the L1 budget."""
        graph.ensure_shapes()
        tiles = 1
        while tiles <= max_tiles:
            plan = cls(
                tiles_per_image=tiles,
                batch_size=batch_size,
                bytes_per_element=bytes_per_element,
                l1_budget_fraction=l1_budget_fraction,
            )
            if plan.fits(graph, cluster):
                return plan
            tiles *= 2
        raise ValueError(
            "no feasible W-tiling found: some layer's tile working set exceeds "
            f"the L1 budget even with {max_tiles} tiles per image"
        )

    def describe(self, graph: Graph) -> Dict[str, int]:
        """Summary of the tiling decision (diagnostics)."""
        graph.ensure_shapes()
        worst = max(graph.nodes, key=self.working_set_bytes)
        return {
            "tiles_per_image": self.tiles_per_image,
            "batch_size": self.batch_size,
            "n_jobs": self.n_jobs,
            "worst_node": worst.node_id,
            "worst_working_set_bytes": self.working_set_bytes(worst),
        }
