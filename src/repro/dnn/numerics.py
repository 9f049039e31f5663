"""Reference (digital, floating-point) execution of DNN graphs with numpy.

This module serves two purposes:

* it provides golden outputs against which the analog (crossbar-based)
  functional execution of :mod:`repro.aimc` is compared, and
* it hosts the ``im2col`` transformation that defines how a convolution is
  unrolled into the matrix-vector multiplications executed by the IMA
  (``rows = Cin * Kx * Ky``, one MVM per output pixel), which is exactly the
  unrolling the mapping engine assumes.

Weights are generated deterministically from a seed so tests are repeatable
without shipping trained checkpoints (the paper's evaluation is about
performance, not accuracy, so random weights preserve everything relevant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from .graph import Graph, GraphError, Node
from .layers import Add, AvgPool2D, Conv2D, Flatten, Input, Linear, MaxPool2D, ReLU
from .tensor import TensorShape


# --------------------------------------------------------------------------- #
# Low-level kernels
# --------------------------------------------------------------------------- #
def im2col(
    ifm: np.ndarray, kernel_size: int, stride: int, padding: int
) -> np.ndarray:
    """Unroll an IFM into the column matrix consumed by a crossbar MVM.

    Parameters
    ----------
    ifm:
        Input feature map of shape ``(C, H, W)``.
    kernel_size, stride, padding:
        Convolution geometry.

    Returns
    -------
    numpy.ndarray
        Matrix of shape ``(out_h * out_w, C * kernel_size * kernel_size)``;
        each row is the input vector of one analog MVM.
    """
    if ifm.ndim != 3:
        raise ValueError(f"expected a (C, H, W) tensor, got shape {ifm.shape}")
    channels, height, width = ifm.shape
    padded = np.pad(
        ifm, ((0, 0), (padding, padding), (padding, padding)), mode="constant"
    )
    out_h = (height + 2 * padding - kernel_size) // stride + 1
    out_w = (width + 2 * padding - kernel_size) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("convolution geometry produces an empty output")
    # (C, H', W', K, K) strided view of every kernel window, then subsampled
    # by the stride — no Python loop over output pixels.
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (kernel_size, kernel_size), axis=(1, 2)
    )[:, ::stride, ::stride]
    columns = windows[:, :out_h, :out_w].transpose(1, 2, 0, 3, 4)
    return columns.reshape(out_h * out_w, channels * kernel_size * kernel_size)


def conv2d_reference(
    ifm: np.ndarray, weights: np.ndarray, bias: Optional[np.ndarray], layer: Conv2D
) -> np.ndarray:
    """Reference convolution via im2col + matrix multiplication.

    ``weights`` has shape ``(out_channels, in_channels_per_group, K, K)``.
    Grouped (depthwise) convolutions are executed group by group.
    """
    channels, __, __ = ifm.shape
    out_shape = layer.output_shape([TensorShape(*ifm.shape)])
    groups = layer.groups
    cin_per_group = channels // groups
    cout_per_group = layer.out_channels // groups
    output = np.empty((layer.out_channels, out_shape.height, out_shape.width))
    for group in range(groups):
        ifm_group = ifm[group * cin_per_group : (group + 1) * cin_per_group]
        cols = im2col(ifm_group, layer.kernel_size, layer.stride, layer.padding)
        w_group = weights[group * cout_per_group : (group + 1) * cout_per_group]
        w_matrix = w_group.reshape(cout_per_group, -1)  # (Cout_g, Cin_g*K*K)
        result = cols @ w_matrix.T  # (out_h*out_w, Cout_g)
        result = result.T.reshape(cout_per_group, out_shape.height, out_shape.width)
        output[group * cout_per_group : (group + 1) * cout_per_group] = result
    if bias is not None:
        output += bias[:, None, None]
    if layer.fused_relu:
        output = np.maximum(output, 0.0)
    return output


def maxpool2d_reference(ifm: np.ndarray, layer: MaxPool2D) -> np.ndarray:
    """Reference max pooling.

    Folds one ``np.maximum`` per kernel offset over the whole output: the
    offset ``(dy, dx)`` contributes the strided view holding element
    ``(dy, dx)`` of every window.  A maximum does not depend on the order
    it visits a window in, so this is exactly the per-window reduction
    (unlike a windowed mean, whose summation order would change —
    :func:`avgpool2d_reference` keeps its loop).  A reduction over a
    ``sliding_window_view`` is exact too, but no faster than the
    per-window loop: its innermost axes are only ``kernel_size`` long.
    """
    out_shape = layer.output_shape([TensorShape(*ifm.shape)])
    stride = layer.effective_stride
    padding = layer.padding
    padded = np.pad(
        ifm,
        ((0, 0), (padding, padding), (padding, padding)),
        mode="constant",
        constant_values=-np.inf,
    )
    row_span = stride * (out_shape.height - 1) + 1
    col_span = stride * (out_shape.width - 1) + 1
    output = np.full((ifm.shape[0], out_shape.height, out_shape.width), -np.inf)
    for dy in range(layer.kernel_size):
        for dx in range(layer.kernel_size):
            offset = padded[:, dy : dy + row_span : stride, dx : dx + col_span : stride]
            np.maximum(output, offset, out=output)
    return output


def avgpool2d_reference(ifm: np.ndarray, layer: AvgPool2D) -> np.ndarray:
    """Reference average pooling (global or windowed)."""
    if layer.global_pool:
        return ifm.mean(axis=(1, 2), keepdims=True)
    stride = layer.stride if layer.stride is not None else layer.kernel_size
    out_shape = layer.output_shape([TensorShape(*ifm.shape)])
    output = np.empty((ifm.shape[0], out_shape.height, out_shape.width))
    for row in range(out_shape.height):
        for col in range(out_shape.width):
            r0 = row * stride
            c0 = col * stride
            window = ifm[:, r0 : r0 + layer.kernel_size, c0 : c0 + layer.kernel_size]
            output[:, row, col] = window.reshape(ifm.shape[0], -1).mean(axis=1)
    return output


def linear_reference(
    ifm: np.ndarray, weights: np.ndarray, bias: Optional[np.ndarray], layer: Linear
) -> np.ndarray:
    """Reference fully-connected layer (input flattened)."""
    flat = ifm.reshape(-1)
    output = weights @ flat
    if bias is not None:
        output = output + bias
    if layer.fused_relu:
        output = np.maximum(output, 0.0)
    return output.reshape(layer.out_features, 1, 1)


# --------------------------------------------------------------------------- #
# Parameter initialisation
# --------------------------------------------------------------------------- #
@dataclass
class LayerParameters:
    """Weights and bias of one analog node."""

    weights: np.ndarray
    bias: Optional[np.ndarray]

    @property
    def weight_matrix(self) -> np.ndarray:
        """Weights reshaped to the ``(rows, cols)`` crossbar layout."""
        if self.weights.ndim == 4:  # convolution (Cout, Cin, K, K)
            cout = self.weights.shape[0]
            return self.weights.reshape(cout, -1).T
        return self.weights.T  # linear (out, in) -> (in, out)


def draw_parameters(graph: Graph, seed: int = 0) -> Iterator[Tuple[int, LayerParameters]]:
    """Draw every analog node's parameters, one node at a time.

    Yields ``(node_id, LayerParameters)`` in ``graph.analog_nodes()``
    order, all from the one ``np.random.default_rng(seed)``: a layer's
    draws follow the previous layer's in that generator's stream, so a
    consumer may act on each layer as it arrives (the analog executor
    programs it) while the bytes stay those of one sequential draw.
    """
    graph.ensure_shapes()
    rng = np.random.default_rng(seed)
    for node in graph.analog_nodes():
        layer = node.layer
        if isinstance(layer, Conv2D):
            cin_per_group = node.input_shapes[0].channels // layer.groups
            fan_in = cin_per_group * layer.kernel_size ** 2
            weights = rng.normal(
                0.0,
                np.sqrt(2.0 / fan_in),
                size=(layer.out_channels, cin_per_group, layer.kernel_size, layer.kernel_size),
            )
            bias = rng.normal(0.0, 0.01, size=layer.out_channels) if layer.bias else None
        elif isinstance(layer, Linear):
            fan_in = node.input_shapes[0].n_elements
            weights = rng.normal(
                0.0, np.sqrt(2.0 / fan_in), size=(layer.out_features, fan_in)
            )
            bias = rng.normal(0.0, 0.01, size=layer.out_features) if layer.bias else None
        else:  # pragma: no cover - no other analog layer kinds exist
            continue
        yield node.node_id, LayerParameters(weights=weights, bias=bias)


def initialize_parameters(graph: Graph, seed: int = 0) -> Dict[int, LayerParameters]:
    """Generate deterministic random parameters for every analog node: the
    dict of :func:`draw_parameters`, keyed by node id in graph order."""
    return dict(draw_parameters(graph, seed))


# --------------------------------------------------------------------------- #
# Graph executor
# --------------------------------------------------------------------------- #
class ReferenceExecutor:
    """Executes a graph in floating point with numpy.

    An optional ``mvm_hook`` replaces the matrix multiplication of analog
    layers; :mod:`repro.aimc.crossbar` uses it to run the same graph through
    the analog crossbar model and compare against the digital reference.

    Hook contract: ``mvm_hook(node, inputs, weight_matrix)`` receives the
    **whole layer batch** in one call — every im2col row of a convolution
    (shape ``(out_h * out_w, rows)``) or the single flattened vector of a
    linear layer (shape ``(1, rows)``) — and must return the matching
    ``(batch, cols)`` result.  The vectorized analog backend relies on this
    one-call-per-layer batching to amortise DAC/ADC conversion and the
    einsum dispatch; hooks must not assume one call per output pixel.
    """

    def __init__(
        self,
        graph: Graph,
        parameters: Optional[Dict[int, LayerParameters]] = None,
        seed: int = 0,
        mvm_hook: Optional[Callable[[Node, np.ndarray, np.ndarray], np.ndarray]] = None,
    ):
        graph.ensure_shapes()
        self.graph = graph
        self.parameters = parameters if parameters is not None else initialize_parameters(graph, seed)
        self.mvm_hook = mvm_hook

    def run(self, input_tensor: np.ndarray) -> Dict[int, np.ndarray]:
        """Run the whole graph; returns every node's output keyed by node id."""
        outputs: Dict[int, np.ndarray] = {}
        for node in self.graph.topological_order():
            outputs[node.node_id] = self._run_node(node, outputs, input_tensor)
        return outputs

    def run_output(self, input_tensor: np.ndarray) -> np.ndarray:
        """Run the graph and return the (single) output node's tensor.

        A graph without exactly one output is rejected before any node
        runs.  Each intermediate tensor is dropped after its last reader,
        so the forward holds only the tensors still to be read.
        """
        output_nodes = self.graph.output_nodes
        if len(output_nodes) != 1:
            raise GraphError("run_output requires a graph with exactly one output")
        order = self.graph.topological_order()
        last_reader = {src: node.node_id for node in order for src in node.inputs}
        outputs: Dict[int, np.ndarray] = {}
        for node in order:
            outputs[node.node_id] = self._run_node(node, outputs, input_tensor)
            for src in set(node.inputs):
                if last_reader[src] == node.node_id:
                    del outputs[src]
        return outputs[output_nodes[0].node_id]

    # ------------------------------------------------------------------ #
    def _run_node(
        self, node: Node, outputs: Dict[int, np.ndarray], input_tensor: np.ndarray
    ) -> np.ndarray:
        layer = node.layer
        inputs = [outputs[src] for src in node.inputs]
        if isinstance(layer, Input):
            expected = layer.shape.chw
            if tuple(input_tensor.shape) != expected:
                raise ValueError(
                    f"input tensor shape {input_tensor.shape} does not match "
                    f"graph input {expected}"
                )
            return np.asarray(input_tensor, dtype=float)
        if isinstance(layer, Conv2D):
            params = self.parameters[node.node_id]
            if self.mvm_hook is not None and layer.groups == 1:
                return self._conv_via_hook(node, inputs[0], params)
            return conv2d_reference(inputs[0], params.weights, params.bias, layer)
        if isinstance(layer, Linear):
            params = self.parameters[node.node_id]
            if self.mvm_hook is not None:
                return self._linear_via_hook(node, inputs[0], params)
            return linear_reference(inputs[0], params.weights, params.bias, layer)
        if isinstance(layer, MaxPool2D):
            return maxpool2d_reference(inputs[0], layer)
        if isinstance(layer, AvgPool2D):
            return avgpool2d_reference(inputs[0], layer)
        if isinstance(layer, Add):
            result = inputs[0] + inputs[1]
            return np.maximum(result, 0.0) if layer.fused_relu else result
        if isinstance(layer, ReLU):
            return np.maximum(inputs[0], 0.0)
        if isinstance(layer, Flatten):
            return inputs[0].reshape(-1, 1, 1)
        raise GraphError(f"unsupported layer kind {layer.kind!r}")

    def _conv_via_hook(
        self, node: Node, ifm: np.ndarray, params: LayerParameters
    ) -> np.ndarray:
        layer: Conv2D = node.layer  # type: ignore[assignment]
        cols = im2col(ifm, layer.kernel_size, layer.stride, layer.padding)
        w_matrix = params.weight_matrix  # (rows, cols) = (Cin*K*K, Cout)
        result = self.mvm_hook(node, cols, w_matrix)  # (n_pixels, Cout)
        out_shape = node.output_shape
        output = result.T.reshape(layer.out_channels, out_shape.height, out_shape.width)
        if params.bias is not None:
            output = output + params.bias[:, None, None]
        if layer.fused_relu:
            output = np.maximum(output, 0.0)
        return output

    def _linear_via_hook(
        self, node: Node, ifm: np.ndarray, params: LayerParameters
    ) -> np.ndarray:
        layer: Linear = node.layer  # type: ignore[assignment]
        flat = ifm.reshape(1, -1)
        result = self.mvm_hook(node, flat, params.weight_matrix)  # (1, out)
        output = result.reshape(-1)
        if params.bias is not None:
            output = output + params.bias
        if layer.fused_relu:
            output = np.maximum(output, 0.0)
        return output.reshape(layer.out_features, 1, 1)


def random_input(graph: Graph, seed: int = 0) -> np.ndarray:
    """Generate a deterministic random input tensor matching the graph input."""
    graph.ensure_shapes()
    inputs = graph.input_nodes
    if len(inputs) != 1:
        raise GraphError("random_input requires a graph with exactly one input")
    shape = inputs[0].output_shape
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, size=shape.chw)
