"""Static layer mapping (Sec. IV.1 and V of the paper).

Every DNN layer is statically mapped to a set of clusters:

* analog layers occupy ``n_row_splits x n_col_splits`` clusters per replica
  (one crossbar per cluster), times their data-replication factor, plus the
  dedicated reduction clusters their fan-in requires;
* digital layers (pooling, residual additions) occupy the clusters of their
  parallelisation factor;
* residual tensors occupy either the HBM or the L1 of dedicated *storage*
  clusters (Sec. V.4).

:func:`build_mapping` performs the allocation for a given set of mapping
decisions (replication/parallelisation factors and residual mode) and
returns a :class:`NetworkMapping`, which the lowering pass turns into a
simulator workload and the analysis layer mines for utilisation statistics.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ..arch.config import ArchConfig
from ..dnn.graph import Graph, Node
from ..dnn.tensor import TensorShape
from .allocator import AllocationError, ClusterAllocator
from .costs import analog_job_cost, digital_job_cycles, reduction_job_cycles
from .reduction import ReductionLevel, ReductionPlan
from .residuals import ResidualEdge, ResidualPlan
from .splits import LayerSplit
from .tiling import TilingPlan

#: schema version of :meth:`NetworkMapping.to_payload`.  The payload freezes
#: the *outputs* of the mapping algorithms, while content keys hash only
#: their *inputs* — so a persisted payload can go stale when either the
#: payload structure or the algorithms behind it change.  Bump this on any
#: such change; loaders reject mismatched payloads and rebuild.
#:
#: v2: added the ``policy`` provenance field (the mapping-policy label that
#: produced the mapping) to the payload and to :class:`MappingRecord`.
MAPPING_PAYLOAD_VERSION = 2


@dataclass(frozen=True)
class MappingOptions:
    """Mapping decisions that distinguish naive / replicated / final mappings."""

    batch_size: int = 16
    #: per-node data-replication factor for analog layers (default 1).
    replication: Dict[int, int] = field(default_factory=dict)
    #: per-node parallelisation factor for digital layers (default 1).
    parallelization: Dict[int, int] = field(default_factory=dict)
    #: where residual tensors live between production and consumption.
    residual_mode: str = ResidualPlan.MODE_HBM
    #: label for reports.
    name: str = "naive"

    def replication_of(self, node_id: int) -> int:
        """Replication factor of a node (1 when not specified)."""
        return max(1, self.replication.get(node_id, 1))

    def parallelization_of(self, node_id: int) -> int:
        """Parallelisation factor of a node (1 when not specified)."""
        return max(1, self.parallelization.get(node_id, 1))


@dataclass
class LayerMapping:
    """Placement and sizing of one graph node on the many-core system."""

    node_id: int
    name: str
    kind: str
    is_analog: bool
    group: int
    split: Optional[LayerSplit] = None
    reduction: Optional[ReductionPlan] = None
    replication: int = 1
    parallel_clusters: int = 1
    #: one tuple of clusters per replica (analog layers).
    analog_replicas: Tuple[Tuple[int, ...], ...] = ()
    #: dedicated reduction clusters (empty when reduction runs on producers).
    reduce_clusters: Tuple[int, ...] = ()
    #: clusters running the digital work of digital layers.
    digital_clusters: Tuple[int, ...] = ()
    params: int = 0
    macs: int = 0

    # ------------------------------------------------------------------ #
    @property
    def clusters(self) -> Tuple[int, ...]:
        """All clusters used by this layer (sorted, deduplicated)."""
        members = {c for replica in self.analog_replicas for c in replica}
        members.update(self.reduce_clusters)
        members.update(self.digital_clusters)
        return tuple(sorted(members))

    @property
    def n_clusters(self) -> int:
        """Number of clusters used by this layer."""
        return len(self.clusters)

    @property
    def n_crossbars(self) -> int:
        """Crossbars programmed for this layer (splits x replication)."""
        if self.split is None:
            return 0
        return self.split.n_crossbars * self.replication

    @property
    def stored_params(self) -> int:
        """Parameters stored in non-volatile memory, counting replication."""
        return self.params * self.replication if self.is_analog else 0

    def crossbar_cell_utilization(self) -> float:
        """Average cell utilisation of this layer's crossbars (0 for digital)."""
        if self.split is None:
            return 0.0
        return self.split.cell_utilization


@dataclass(frozen=True)
class MappingRecord:
    """Lightweight, picklable summary of a :class:`NetworkMapping`.

    Sweep orchestration (``repro.scenarios``) ships results between worker
    processes; the full mapping carries the graph and every per-layer
    placement, which the sweep tables never need.  This record keeps the
    aggregate statistics the paper reports (Sec. VI efficiency factors).
    """

    name: str
    batch_size: int
    n_used_clusters: int
    total_clusters: int
    global_mapping_efficiency: float
    local_mapping_efficiency: float
    total_crossbars: int
    total_stored_params: int
    #: label of the mapping policy that produced the mapping ("" for
    #: mappings built directly from :func:`build_mapping`).
    policy: str = ""

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary (JSON-safe) rendering of the declared fields."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "MappingRecord":
        """Inverse of :meth:`as_dict`."""
        return cls(**payload)


@dataclass
class NetworkMapping:
    """Complete mapping of a DNN graph onto an architecture."""

    graph: Graph
    arch: ArchConfig
    options: MappingOptions
    tiling: TilingPlan
    layers: Dict[int, LayerMapping]
    residuals: ResidualPlan
    groups: Dict[int, int]
    #: label of the :class:`~repro.core.policies.MappingPolicy` that built
    #: this mapping (provenance only — never part of content keys; "" for
    #: mappings built directly from :func:`build_mapping`).
    policy: str = ""

    # ------------------------------------------------------------------ #
    # Aggregate statistics (feed the Fig. 6 waterfall and Fig. 7 grouping)
    # ------------------------------------------------------------------ #
    @cached_property
    def used_clusters(self) -> Tuple[int, ...]:
        """All clusters used for compute, reduction or residual storage.

        Counted once per mapping, which is never mutated after it is built.
        """
        members = {c for layer in self.layers.values() for c in layer.clusters}
        members.update(self.residuals.storage_clusters)
        return tuple(sorted(members))

    @property
    def n_used_clusters(self) -> int:
        """Number of clusters used by the mapping."""
        return len(self.used_clusters)

    @property
    def global_mapping_efficiency(self) -> float:
        """Fraction of the system's clusters used at all (Sec. VI, first factor)."""
        return self._global_mapping_efficiency(self.n_used_clusters)

    def _global_mapping_efficiency(self, used: int) -> float:
        """:attr:`global_mapping_efficiency` given the used-cluster count."""
        return used / self.arch.n_clusters

    @property
    def local_mapping_efficiency(self) -> float:
        """Average crossbar-cell utilisation over the *used* clusters.

        Analog clusters contribute the cell utilisation of the crossbar they
        host; reduction, digital and storage clusters contribute zero (their
        IMA is idle), which is exactly the "array is not used at all" case
        the paper describes as the second source of inefficiency.
        """
        return self._local_mapping_efficiency(self.n_used_clusters)

    def _local_mapping_efficiency(self, used: int) -> float:
        """:attr:`local_mapping_efficiency` given the used-cluster count."""
        if used == 0:
            return 0.0
        total = 0.0
        for layer in self.layers.values():
            if layer.split is None:
                continue
            per_cluster = layer.split.cell_utilization
            total += per_cluster * layer.split.n_crossbars * layer.replication
        return total / used

    @property
    def total_crossbars(self) -> int:
        """Crossbars programmed across the whole mapping."""
        return sum(layer.n_crossbars for layer in self.layers.values())

    @property
    def total_stored_params(self) -> int:
        """Parameters stored in non-volatile memory (counting replication)."""
        return sum(layer.stored_params for layer in self.layers.values())

    def clusters_per_group(self) -> Dict[int, int]:
        """Number of clusters used by each IFM-shape group (Fig. 5B labels)."""
        counts: Dict[int, int] = {}
        for layer in self.layers.values():
            counts[layer.group] = counts.get(layer.group, 0) + layer.n_clusters
        return dict(sorted(counts.items()))

    def group_shapes(self) -> Dict[int, TensorShape]:
        """Representative IFM shape of each group (Fig. 7 legend)."""
        shapes: Dict[int, TensorShape] = {}
        for node in self.graph.nodes:
            if not node.input_shapes:
                continue
            group = self.groups.get(node.node_id, -1)
            if group >= 0 and group not in shapes:
                shapes[group] = node.input_shapes[0]
        return dict(sorted(shapes.items()))

    def layer(self, node_id: int) -> LayerMapping:
        """Mapping of one node."""
        return self.layers[node_id]

    # ------------------------------------------------------------------ #
    # Compact serialisation (the on-disk artifact store)
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, object]:
        """Compact, version-stamped, plain-data serialisation.

        The graph and the architecture are deliberately excluded: the
        content key addressing this payload is a pure function of both, so
        every consumer (notably the on-disk
        :class:`~repro.scenarios.store.ArtifactStore`) necessarily holds
        them already and :meth:`from_payload` re-attaches them.  What
        remains — options, tiling, per-layer placements, residual plan and
        groups — is plain data (dicts, lists, tuples, scalars) with no
        live object references.
        """
        return {
            "version": MAPPING_PAYLOAD_VERSION,
            "options": dataclasses.asdict(self.options),
            "tiling": dataclasses.asdict(self.tiling),
            "layers": {
                node_id: _layer_payload(layer)
                for node_id, layer in self.layers.items()
            },
            "residuals": dataclasses.asdict(self.residuals),
            "groups": dict(self.groups),
            "policy": self.policy,
        }

    @classmethod
    def from_payload(
        cls, payload: Dict[str, object], graph: Graph, arch: ArchConfig
    ) -> "NetworkMapping":
        """Inverse of :meth:`to_payload`, given the graph and architecture.

        Raises :class:`ValueError` on a payload produced under a different
        :data:`MAPPING_PAYLOAD_VERSION`; callers serving cached payloads
        treat that as a miss and rebuild.
        """
        version = payload.get("version")
        if version != MAPPING_PAYLOAD_VERSION:
            raise ValueError(
                f"mapping payload version {version!r} does not match "
                f"{MAPPING_PAYLOAD_VERSION} (stale artifact)"
            )
        graph.ensure_shapes()  # consumers rely on annotated shapes
        layers = {
            node_id: _layer_from_payload(fields)
            for node_id, fields in payload["layers"].items()
        }
        residuals = payload["residuals"]
        return cls(
            graph=graph,
            arch=arch,
            options=MappingOptions(**payload["options"]),
            tiling=TilingPlan(**payload["tiling"]),
            layers=layers,
            residuals=ResidualPlan(
                mode=residuals["mode"],
                edges=tuple(
                    ResidualEdge(**edge) for edge in residuals["edges"]
                ),
                storage_clusters=tuple(residuals["storage_clusters"]),
                assignment=dict(residuals["assignment"]),
                buffering=residuals["buffering"],
            ),
            groups=dict(payload["groups"]),
            policy=payload["policy"],
        )

    def record(self) -> MappingRecord:
        """The lightweight, serialisable summary of this mapping."""
        used = self.n_used_clusters
        return MappingRecord(
            name=self.options.name,
            batch_size=self.options.batch_size,
            n_used_clusters=used,
            total_clusters=self.arch.n_clusters,
            global_mapping_efficiency=self._global_mapping_efficiency(used),
            local_mapping_efficiency=self._local_mapping_efficiency(used),
            total_crossbars=self.total_crossbars,
            total_stored_params=self.total_stored_params,
            policy=self.policy,
        )

    def summary(self) -> str:
        """Human-readable per-layer mapping table."""
        lines = [
            f"Mapping {self.options.name!r} of {self.graph.name} on "
            f"{self.arch.n_clusters} clusters: {self.n_used_clusters} used "
            f"({self.global_mapping_efficiency:.1%}), "
            f"{self.total_crossbars} crossbars, "
            f"{self.total_stored_params / 1e6:.2f} M stored params",
            f"{'node':>5} {'kind':<10} {'grp':>3} {'splits':>8} {'repl':>4} "
            f"{'par':>4} {'clusters':>8} {'cell%':>6}",
        ]
        for node_id in sorted(self.layers):
            layer = self.layers[node_id]
            splits = (
                f"{layer.split.n_row_splits}x{layer.split.n_col_splits}"
                if layer.split
                else "-"
            )
            lines.append(
                f"{node_id:>5} {layer.kind:<10} {layer.group:>3} {splits:>8} "
                f"{layer.replication:>4} {layer.parallel_clusters:>4} "
                f"{layer.n_clusters:>8} {layer.crossbar_cell_utilization():>6.1%}"
            )
        return "\n".join(lines)


#: field names of :class:`LayerMapping`, :class:`LayerSplit` and
#: :class:`ReductionLevel`, in declaration order.
_LAYER_FIELDS = tuple(f.name for f in dataclasses.fields(LayerMapping))
_SPLIT_FIELDS = tuple(f.name for f in dataclasses.fields(LayerSplit))
_LEVEL_FIELDS = tuple(f.name for f in dataclasses.fields(ReductionLevel))


def _layer_payload(layer: LayerMapping) -> Dict[str, object]:
    """The ``dataclasses.asdict`` form of one :class:`LayerMapping`, built
    shallowly: the tuples of cluster ids are shared rather than deep-copied,
    and ``split`` and ``reduction`` are rendered field by field."""
    fields = {name: getattr(layer, name) for name in _LAYER_FIELDS}
    split = layer.split
    if split is not None:
        fields["split"] = {name: getattr(split, name) for name in _SPLIT_FIELDS}
    reduction = layer.reduction
    if reduction is not None:
        fields["reduction"] = {
            "n_partials": reduction.n_partials,
            "dedicated": reduction.dedicated,
            "levels": tuple(
                {name: getattr(level, name) for name in _LEVEL_FIELDS}
                for level in reduction.levels
            ),
        }
    return fields


def _layer_from_payload(fields: Dict[str, object]) -> LayerMapping:
    """Rebuild one :class:`LayerMapping` from its ``dataclasses.asdict`` form.

    ``asdict`` preserves container types (tuples stay tuples) but flattens
    nested dataclasses to dicts, so only ``split`` and ``reduction`` need
    their classes restoring, on the new layer itself: the payload's dict
    is read, never copied.
    """
    layer = LayerMapping(**fields)
    split = layer.split
    if split is not None:
        layer.split = LayerSplit(**split)
    reduction = layer.reduction
    if reduction is not None:
        layer.reduction = ReductionPlan(
            n_partials=reduction["n_partials"],
            dedicated=reduction["dedicated"],
            levels=tuple(ReductionLevel(**level) for level in reduction["levels"]),
        )
    return layer


# --------------------------------------------------------------------------- #
# Group assignment
# --------------------------------------------------------------------------- #
def assign_groups(graph: Graph) -> Dict[int, int]:
    """Group nodes by the shape of their (first) input feature map.

    This reproduces the layer grouping of Fig. 2/7: groups appear in
    topological order of their first occurrence, and the input node itself
    belongs to no group (-1).
    """
    graph.ensure_shapes()
    groups: Dict[int, int] = {}
    shape_to_group: Dict[TensorShape, int] = {}
    next_group = 0
    for node in graph.topological_order():
        if not node.input_shapes:
            groups[node.node_id] = -1
            continue
        shape = node.input_shapes[0]
        if shape not in shape_to_group:
            shape_to_group[shape] = next_group
            next_group += 1
        groups[node.node_id] = shape_to_group[shape]
    return groups


# --------------------------------------------------------------------------- #
# Mapping construction
# --------------------------------------------------------------------------- #
def build_mapping(
    graph: Graph,
    arch: ArchConfig,
    options: Optional[MappingOptions] = None,
    tiling: Optional[TilingPlan] = None,
) -> NetworkMapping:
    """Allocate clusters for every layer according to ``options``.

    Raises :class:`repro.core.allocator.AllocationError` when the requested
    replication/parallelisation factors do not fit the system.
    """
    options = options if options is not None else MappingOptions()
    graph.ensure_shapes()
    if tiling is None:
        tiling = TilingPlan.choose(graph, arch.cluster, options.batch_size)
    groups = assign_groups(graph)
    allocator = ClusterAllocator(arch.n_clusters)
    layers: Dict[int, LayerMapping] = {}

    for node in graph.topological_order():
        if not node.inputs:  # the Input node occupies no cluster
            continue
        group = groups[node.node_id]
        if node.is_analog:
            layers[node.node_id] = _map_analog_layer(
                node, group, arch, options, allocator
            )
        else:
            layers[node.node_id] = _map_digital_layer(
                node, group, options, allocator
            )

    residuals = ResidualPlan.build(
        graph,
        tiling,
        mode=options.residual_mode,
        allocator=allocator,
        l1_size_bytes=arch.cluster.l1_size_bytes,
    )
    return NetworkMapping(
        graph=graph,
        arch=arch,
        options=options,
        tiling=tiling,
        layers=layers,
        residuals=residuals,
        groups=groups,
    )


def _map_analog_layer(
    node: Node,
    group: int,
    arch: ArchConfig,
    options: MappingOptions,
    allocator: ClusterAllocator,
) -> LayerMapping:
    split = LayerSplit.for_node(node, arch.ima)
    assert split is not None  # analog nodes always have a weight matrix
    replication = options.replication_of(node.node_id)
    reduction = ReductionPlan.plan(split.n_row_splits)
    replicas: List[Tuple[int, ...]] = []
    for index in range(replication):
        replicas.append(
            allocator.allocate(split.n_crossbars, f"node{node.node_id}.replica{index}")
        )
    reduce_clusters: Tuple[int, ...] = ()
    digital_clusters: Tuple[int, ...]
    if reduction.dedicated:
        reduce_clusters = allocator.allocate(
            reduction.n_clusters, f"node{node.node_id}.reduce"
        )
        digital_clusters = reduce_clusters
    elif reduction.needs_reduction:
        # Small fan-in: the cores of the first replica handle the reduction.
        digital_clusters = replicas[0][: max(1, split.n_row_splits)]
    else:
        digital_clusters = ()
    return LayerMapping(
        node_id=node.node_id,
        name=node.name,
        kind=node.kind,
        is_analog=True,
        group=group,
        split=split,
        reduction=reduction,
        replication=replication,
        analog_replicas=tuple(replicas),
        reduce_clusters=reduce_clusters,
        digital_clusters=tuple(digital_clusters),
        params=node.param_count,
        macs=node.macs,
    )


def _map_digital_layer(
    node: Node,
    group: int,
    options: MappingOptions,
    allocator: ClusterAllocator,
) -> LayerMapping:
    parallel = options.parallelization_of(node.node_id)
    clusters = allocator.allocate(parallel, f"node{node.node_id}.digital")
    return LayerMapping(
        node_id=node.node_id,
        name=node.name,
        kind=node.kind,
        is_analog=False,
        group=group,
        replication=1,
        parallel_clusters=parallel,
        digital_clusters=clusters,
        params=node.param_count,
        macs=node.macs,
    )
