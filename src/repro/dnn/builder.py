"""Fluent builder for DNN graphs.

:class:`GraphBuilder` keeps track of a "current" node so that sequential
networks can be described as a chain of method calls, while still exposing
explicit node identifiers for residual connections:

.. code-block:: python

    b = GraphBuilder("tiny", input_shape=(3, 32, 32))
    b.conv2d(16, kernel_size=3)
    skip = b.current
    b.conv2d(16, kernel_size=3)
    b.add(skip)
    b.global_avg_pool()
    b.linear(10)
    graph = b.build()
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

from .graph import Graph
from .layers import (
    Add,
    AvgPool2D,
    Conv2D,
    Flatten,
    Input,
    Linear,
    MaxPool2D,
    ReLU,
)
from .tensor import TensorShape

ShapeLike = Union[TensorShape, Tuple[int, int, int], Iterable[int]]


def _as_shape(shape: ShapeLike) -> TensorShape:
    if isinstance(shape, TensorShape):
        return shape
    return TensorShape.from_chw(tuple(shape))


class GraphBuilder:
    """Builds a :class:`repro.dnn.graph.Graph` layer by layer."""

    def __init__(self, name: str, input_shape: ShapeLike):
        self.graph = Graph(name=name)
        self._counter = 0
        shape = _as_shape(input_shape)
        self.current = self.graph.add(Input(name="input", shape=shape))

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _auto_name(self, prefix: str, name: Optional[str]) -> str:
        if name is not None:
            return name
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _append(self, layer, inputs: Optional[Sequence[int]] = None) -> int:
        if inputs is None:
            inputs = (self.current,)
        node_id = self.graph.add(layer, inputs)
        self.current = node_id
        return node_id

    # ------------------------------------------------------------------ #
    # Layer helpers
    # ------------------------------------------------------------------ #
    def conv2d(
        self,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: Optional[int] = None,
        groups: int = 1,
        relu: bool = True,
        batchnorm: bool = True,
        name: Optional[str] = None,
        inputs: Optional[Sequence[int]] = None,
    ) -> int:
        """Append a 2D convolution ("same" padding by default)."""
        if padding is None:
            padding = kernel_size // 2
        layer = Conv2D(
            name=self._auto_name("conv", name),
            out_channels=out_channels,
            kernel_size=kernel_size,
            stride=stride,
            padding=padding,
            groups=groups,
            fused_relu=relu,
            fused_batchnorm=batchnorm,
        )
        return self._append(layer, inputs)

    def max_pool(
        self,
        kernel_size: int = 2,
        stride: Optional[int] = None,
        padding: int = 0,
        name: Optional[str] = None,
        inputs: Optional[Sequence[int]] = None,
    ) -> int:
        """Append a max-pooling layer."""
        layer = MaxPool2D(
            name=self._auto_name("pool", name),
            kernel_size=kernel_size,
            stride=stride,
            padding=padding,
        )
        return self._append(layer, inputs)

    def global_avg_pool(
        self, name: Optional[str] = None, inputs: Optional[Sequence[int]] = None
    ) -> int:
        """Append a global average-pooling layer (collapses H and W)."""
        layer = AvgPool2D(
            name=self._auto_name("gap", name), kernel_size=1, global_pool=True
        )
        return self._append(layer, inputs)

    def add(
        self,
        other: int,
        relu: bool = True,
        name: Optional[str] = None,
        first: Optional[int] = None,
    ) -> int:
        """Append a residual addition between ``first`` (default: current) and ``other``."""
        a = self.current if first is None else first
        layer = Add(name=self._auto_name("res", name), fused_relu=relu)
        return self._append(layer, (a, other))

    def relu(self, name: Optional[str] = None, inputs: Optional[Sequence[int]] = None) -> int:
        """Append a stand-alone ReLU."""
        return self._append(ReLU(name=self._auto_name("relu", name)), inputs)

    def flatten(self, name: Optional[str] = None, inputs: Optional[Sequence[int]] = None) -> int:
        """Append a flatten layer."""
        return self._append(Flatten(name=self._auto_name("flatten", name)), inputs)

    def linear(
        self,
        out_features: int,
        relu: bool = False,
        name: Optional[str] = None,
        inputs: Optional[Sequence[int]] = None,
    ) -> int:
        """Append a fully-connected layer."""
        layer = Linear(
            name=self._auto_name("fc", name),
            out_features=out_features,
            fused_relu=relu,
        )
        return self._append(layer, inputs)

    # ------------------------------------------------------------------ #
    # Finalisation
    # ------------------------------------------------------------------ #
    def build(self) -> Graph:
        """Infer any missing shapes and return the finished graph."""
        self.graph.ensure_shapes()
        return self.graph
