"""Directed acyclic graph (DAG) representation of a DNN.

The graph mirrors Fig. 2A of the paper: every node is one layer, edges carry
feature maps from producers to consumers, and residual connections make the
graph a general DAG rather than a chain.  Shape inference annotates every
node with its input/output shapes, parameter counts and MAC counts, which is
all the mapping engine (:mod:`repro.core`) needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .layers import Input, Layer, LayerError
from .tensor import TensorShape


class GraphError(ValueError):
    """Raised on structural problems (cycles, missing nodes, bad arity)."""


@dataclass
class Node:
    """One node of the DNN graph.

    Attributes
    ----------
    node_id:
        Dense integer identifier; also the paper's "Layer N" numbering when
        the graph is built in topological order (as the model builders do).
    layer:
        The layer payload (:class:`repro.dnn.layers.Layer`).
    inputs:
        Identifiers of the producer nodes, in argument order.
    """

    node_id: int
    layer: Layer
    inputs: Tuple[int, ...] = ()

    # Filled in by Graph.infer_shapes().
    input_shapes: Tuple[TensorShape, ...] = ()
    output_shape: Optional[TensorShape] = None

    @property
    def name(self) -> str:
        """Layer instance name, falling back to ``kind_id``."""
        return self.layer.name or f"{self.layer.kind}_{self.node_id}"

    @property
    def kind(self) -> str:
        """Layer kind (``conv2d``, ``add``, ...)."""
        return self.layer.kind

    @property
    def is_analog(self) -> bool:
        """Whether this node is executed on the IMA."""
        return self.layer.is_analog

    # -- annotated cost helpers (valid after shape inference) -------------- #
    def _require_shapes(self) -> None:
        if self.output_shape is None:
            raise GraphError(
                f"node {self.node_id} ({self.name}) has no inferred shapes; "
                "call Graph.infer_shapes() first"
            )

    @property
    def param_count(self) -> int:
        """Number of parameters held by this node."""
        self._require_shapes()
        return self.layer.param_count(self.input_shapes)

    @property
    def macs(self) -> int:
        """Multiply-accumulate operations for one inference of this node."""
        self._require_shapes()
        return self.layer.macs(self.input_shapes)

    @property
    def digital_ops(self) -> int:
        """Digital (core-executed) operations for one inference of this node."""
        self._require_shapes()
        return self.layer.digital_ops(self.input_shapes)

    @property
    def weight_matrix_shape(self) -> Optional[Tuple[int, int]]:
        """Unrolled weight matrix shape ``(rows, cols)`` for analog nodes."""
        self._require_shapes()
        return self.layer.weight_matrix_shape(self.input_shapes)


class Graph:
    """A DNN expressed as a DAG of :class:`Node` objects."""

    #: the memoised topological order, ``None`` until taken after an edit.
    _order: Optional[Tuple[Node, ...]] = None

    def __init__(self, name: str = "network"):
        self.name = name
        self._nodes: Dict[int, Node] = {}
        self._consumers: Dict[int, List[int]] = {}
        self._next_id = 0
        self._shapes_valid = False
        #: bumped on every structural edit; lets content-addressed callers
        #: (e.g. the scenario fingerprint cache) detect staleness cheaply.
        self.structure_version = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add(self, layer: Layer, inputs: Sequence[int] = ()) -> int:
        """Add a node and return its identifier.

        ``inputs`` must reference existing nodes; arity is checked against
        the layer's ``n_inputs``.
        """
        inputs = tuple(inputs)
        if len(inputs) != layer.n_inputs:
            raise GraphError(
                f"layer {layer.name or layer.kind!r} expects {layer.n_inputs} "
                f"input(s), got {len(inputs)}"
            )
        for src in inputs:
            if src not in self._nodes:
                raise GraphError(f"input node {src} does not exist")
        node_id = self._next_id
        self._next_id += 1
        self._nodes[node_id] = Node(node_id=node_id, layer=layer, inputs=inputs)
        self._consumers[node_id] = []
        for src in inputs:
            self._consumers[src].append(node_id)
        self._shapes_valid = False
        self._order = None
        self.structure_version += 1
        return node_id

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.topological_order())

    def node(self, node_id: int) -> Node:
        """Return a node by identifier."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"no node with id {node_id}") from None

    @property
    def nodes(self) -> List[Node]:
        """All nodes, in insertion (identifier) order."""
        return [self._nodes[i] for i in sorted(self._nodes)]

    def consumers(self, node_id: int) -> List[int]:
        """Identifiers of the nodes consuming ``node_id``'s output."""
        self.node(node_id)
        return list(self._consumers[node_id])

    def producers(self, node_id: int) -> List[int]:
        """Identifiers of the nodes feeding ``node_id``."""
        return list(self.node(node_id).inputs)

    @property
    def input_nodes(self) -> List[Node]:
        """Nodes with no inputs (graph entry points)."""
        return [n for n in self.nodes if not n.inputs]

    @property
    def output_nodes(self) -> List[Node]:
        """Nodes whose output is not consumed by any other node."""
        return [n for n in self.nodes if not self._consumers[n.node_id]]

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #
    def topological_order(self) -> Tuple[Node, ...]:
        """Nodes in a topological order (raises on cycles).

        Computed once per structure: :meth:`add` drops the memo.  It is a
        tuple, so a caller cannot reorder it for the next one.
        """
        if self._order is not None:
            return self._order
        in_degree = {nid: len(node.inputs) for nid, node in self._nodes.items()}
        ready = sorted(nid for nid, deg in in_degree.items() if deg == 0)
        order: List[Node] = []
        while ready:
            nid = ready.pop(0)
            order.append(self._nodes[nid])
            for consumer in self._consumers[nid]:
                in_degree[consumer] -= 1
                if in_degree[consumer] == 0:
                    ready.append(consumer)
            ready.sort()
        if len(order) != len(self._nodes):
            raise GraphError("graph contains a cycle")
        self._order = tuple(order)
        return self._order

    def validate(self) -> None:
        """Check structural invariants: acyclic, single component entry."""
        order = self.topological_order()
        if not order:
            raise GraphError("graph is empty")
        if not self.input_nodes:
            raise GraphError("graph has no input node")
        for node in order:
            if not isinstance(node.layer, Input) and not node.inputs:
                raise GraphError(
                    f"node {node.node_id} ({node.name}) has no inputs but is "
                    "not an Input layer"
                )

    # ------------------------------------------------------------------ #
    # Shape inference
    # ------------------------------------------------------------------ #
    def infer_shapes(self) -> None:
        """Annotate every node with its input and output shapes."""
        self.validate()
        for node in self.topological_order():
            input_shapes = tuple(
                self._require_shape(self._nodes[src]) for src in node.inputs
            )
            try:
                output = node.layer.output_shape(input_shapes)
            except LayerError as exc:
                raise GraphError(
                    f"shape inference failed at node {node.node_id} "
                    f"({node.name}): {exc}"
                ) from exc
            node.input_shapes = input_shapes
            node.output_shape = output
        self._shapes_valid = True

    @staticmethod
    def _require_shape(node: Node) -> TensorShape:
        if node.output_shape is None:
            raise GraphError(
                f"producer node {node.node_id} has no shape; inference order broken"
            )
        return node.output_shape

    @property
    def shapes_inferred(self) -> bool:
        """Whether :meth:`infer_shapes` has been run since the last edit."""
        return self._shapes_valid

    # ------------------------------------------------------------------ #
    # Whole-network statistics
    # ------------------------------------------------------------------ #
    def total_params(self) -> int:
        """Total parameter count of the network."""
        self.ensure_shapes()
        return sum(node.param_count for node in self.nodes)

    def total_macs(self) -> int:
        """Total MAC count for one inference."""
        self.ensure_shapes()
        return sum(node.macs for node in self.nodes)

    def total_ops(self) -> int:
        """Total operations (1 MAC = 2 ops, plus digital element-wise ops)."""
        self.ensure_shapes()
        return sum(2 * node.macs + node.digital_ops for node in self.nodes)

    def analog_nodes(self) -> List[Node]:
        """Nodes executed on the IMA."""
        return [n for n in self.nodes if n.is_analog]

    def digital_nodes(self) -> List[Node]:
        """Nodes executed on the RISC-V cores."""
        return [n for n in self.nodes if not n.is_analog and n.inputs]

    def ensure_shapes(self) -> None:
        """Run :meth:`infer_shapes` unless the shapes are already inferred."""
        if not self._shapes_valid:
            self.infer_shapes()

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """Human-readable per-node table (id, kind, shapes, params, MACs)."""
        self.ensure_shapes()
        lines = [
            f"Graph {self.name!r}: {len(self)} nodes, "
            f"{self.total_params() / 1e6:.2f} M params, "
            f"{self.total_macs() / 1e9:.2f} GMAC",
            f"{'id':>4} {'kind':<10} {'name':<18} {'input':<14} {'output':<14} "
            f"{'params':>10} {'MMAC':>9}",
        ]
        for node in self.nodes:
            ifm = str(node.input_shapes[0]) if node.input_shapes else "-"
            ofm = str(node.output_shape) if node.output_shape else "-"
            lines.append(
                f"{node.node_id:>4} {node.kind:<10} {node.name:<18} {ifm:<14} "
                f"{ofm:<14} {node.param_count:>10} {node.macs / 1e6:>9.1f}"
            )
        return "\n".join(lines)
