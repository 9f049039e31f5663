"""Layer definitions of the DNN graph IR.

Each layer type knows how to infer its output shape, how many parameters it
carries, how many multiply-accumulate operations it performs, and — for the
analog-amenable layers — the shape of the weight matrix it unrolls to when
mapped onto a crossbar (``rows = Cin * Kx * Ky``, ``cols = Cout``), which is
the quantity the multi-cluster mapping of Sec. V.1 reasons about.

Layers are split in two families, mirroring the paper's execution model:

* *analog-amenable* layers (2D convolutions and fully-connected layers) are
  executed as MVMs on the IMA;
* *digital* layers (pooling, residual additions, activation-only nodes,
  partial-sum reductions) run on the RISC-V cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from .tensor import TensorShape


class LayerError(ValueError):
    """Raised when a layer receives incompatible input shapes."""


@dataclass(frozen=True)
class Layer:
    """Base class for every node payload in the DNN graph."""

    #: human-readable instance name (set by the graph builder).
    name: str = ""

    # -- classification ------------------------------------------------- #
    @property
    def kind(self) -> str:
        """Short lower-case identifier of the layer type."""
        return type(self).__name__.lower()

    @property
    def is_analog(self) -> bool:
        """Whether the layer is executed on the IMA (as analog MVMs)."""
        return False

    @property
    def n_inputs(self) -> int:
        """Number of input tensors the layer consumes."""
        return 1

    # -- shape inference -------------------------------------------------- #
    def output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        """Infer the output shape given the input shapes."""
        raise NotImplementedError

    def _single_input(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if len(input_shapes) != self.n_inputs:
            raise LayerError(
                f"{self.kind} layer {self.name!r} expects {self.n_inputs} "
                f"input(s), got {len(input_shapes)}"
            )
        return input_shapes[0]

    # -- cost model -------------------------------------------------------- #
    def param_count(self, input_shapes: Sequence[TensorShape]) -> int:
        """Number of trainable parameters (weights + biases)."""
        return 0

    def macs(self, input_shapes: Sequence[TensorShape]) -> int:
        """Multiply-accumulate operations needed for one inference."""
        return 0

    def digital_ops(self, input_shapes: Sequence[TensorShape]) -> int:
        """Element-wise operations executed on the digital cores."""
        return 0

    def weight_matrix_shape(
        self, input_shapes: Sequence[TensorShape]
    ) -> Optional[Tuple[int, int]]:
        """``(rows, cols)`` of the unrolled weight matrix, if analog."""
        return None


# --------------------------------------------------------------------------- #
# Structural layers
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Input(Layer):
    """Graph entry point carrying the network input shape."""

    shape: TensorShape = field(default_factory=lambda: TensorShape(3, 224, 224))

    @property
    def n_inputs(self) -> int:
        return 0

    def output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if input_shapes:
            raise LayerError("Input layers take no inputs")
        return self.shape


# --------------------------------------------------------------------------- #
# Analog-amenable layers
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Conv2D(Layer):
    """2D convolution, optionally fused with bias, batch-norm and ReLU.

    The fused batch-norm and activation do not change the mapping (they are
    absorbed into the weights / applied during the digital stream-out), so
    they only appear as flags here.
    """

    out_channels: int = 64
    kernel_size: int = 3
    stride: int = 1
    padding: int = 1
    groups: int = 1
    bias: bool = True
    fused_relu: bool = True
    fused_batchnorm: bool = False

    def __post_init__(self) -> None:
        if self.out_channels <= 0:
            raise LayerError("out_channels must be positive")
        if self.kernel_size <= 0:
            raise LayerError("kernel_size must be positive")
        if self.stride <= 0:
            raise LayerError("stride must be positive")
        if self.padding < 0:
            raise LayerError("padding cannot be negative")
        if self.groups <= 0:
            raise LayerError("groups must be positive")

    @property
    def is_analog(self) -> bool:
        return True

    @property
    def is_depthwise(self) -> bool:
        """Depthwise convolutions (groups == Cin == Cout) map poorly to IMAs."""
        return self.groups > 1

    def output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        ifm = self._single_input(input_shapes)
        if ifm.channels % self.groups != 0 or self.out_channels % self.groups != 0:
            raise LayerError(
                f"channels ({ifm.channels}->{self.out_channels}) not divisible "
                f"by groups ({self.groups})"
            )
        out_h = (ifm.height + 2 * self.padding - self.kernel_size) // self.stride + 1
        out_w = (ifm.width + 2 * self.padding - self.kernel_size) // self.stride + 1
        if out_h <= 0 or out_w <= 0:
            raise LayerError(
                f"convolution {self.name!r} produces an empty output from {ifm}"
            )
        return TensorShape(self.out_channels, out_h, out_w)

    def param_count(self, input_shapes: Sequence[TensorShape]) -> int:
        ifm = self._single_input(input_shapes)
        cin_per_group = ifm.channels // self.groups
        weights = self.out_channels * cin_per_group * self.kernel_size * self.kernel_size
        biases = self.out_channels if self.bias else 0
        return weights + biases

    def macs(self, input_shapes: Sequence[TensorShape]) -> int:
        ifm = self._single_input(input_shapes)
        ofm = self.output_shape(input_shapes)
        cin_per_group = ifm.channels // self.groups
        return (
            ofm.height
            * ofm.width
            * self.out_channels
            * cin_per_group
            * self.kernel_size
            * self.kernel_size
        )

    def digital_ops(self, input_shapes: Sequence[TensorShape]) -> int:
        # Bias add plus the fused activation, applied per output element by
        # the cores while draining the IMA output buffer.
        ofm = self.output_shape(input_shapes)
        per_element = (1 if self.bias else 0) + (1 if self.fused_relu else 0)
        return ofm.n_elements * per_element

    def weight_matrix_shape(
        self, input_shapes: Sequence[TensorShape]
    ) -> Optional[Tuple[int, int]]:
        ifm = self._single_input(input_shapes)
        cin_per_group = ifm.channels // self.groups
        rows = cin_per_group * self.kernel_size * self.kernel_size
        cols = self.out_channels // self.groups
        return rows, cols


@dataclass(frozen=True)
class Linear(Layer):
    """Fully-connected layer.  The input feature map is flattened."""

    out_features: int = 1000
    bias: bool = True
    fused_relu: bool = False

    def __post_init__(self) -> None:
        if self.out_features <= 0:
            raise LayerError("out_features must be positive")

    @property
    def is_analog(self) -> bool:
        return True

    def output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        self._single_input(input_shapes)
        return TensorShape(self.out_features, 1, 1)

    def param_count(self, input_shapes: Sequence[TensorShape]) -> int:
        ifm = self._single_input(input_shapes)
        weights = ifm.n_elements * self.out_features
        biases = self.out_features if self.bias else 0
        return weights + biases

    def macs(self, input_shapes: Sequence[TensorShape]) -> int:
        ifm = self._single_input(input_shapes)
        return ifm.n_elements * self.out_features

    def digital_ops(self, input_shapes: Sequence[TensorShape]) -> int:
        per_element = (1 if self.bias else 0) + (1 if self.fused_relu else 0)
        return self.out_features * per_element

    def weight_matrix_shape(
        self, input_shapes: Sequence[TensorShape]
    ) -> Optional[Tuple[int, int]]:
        ifm = self._single_input(input_shapes)
        return ifm.n_elements, self.out_features


# --------------------------------------------------------------------------- #
# Digital layers
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MaxPool2D(Layer):
    """Max pooling, executed on the RISC-V cores."""

    kernel_size: int = 2
    stride: Optional[int] = None
    padding: int = 0

    def __post_init__(self) -> None:
        if self.kernel_size <= 0:
            raise LayerError("kernel_size must be positive")
        if self.stride is not None and self.stride <= 0:
            raise LayerError("stride must be positive")
        if self.padding < 0:
            raise LayerError("padding cannot be negative")

    @property
    def effective_stride(self) -> int:
        """Stride used for shape inference (defaults to the kernel size)."""
        return self.stride if self.stride is not None else self.kernel_size

    def output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        ifm = self._single_input(input_shapes)
        stride = self.effective_stride
        out_h = (ifm.height + 2 * self.padding - self.kernel_size) // stride + 1
        out_w = (ifm.width + 2 * self.padding - self.kernel_size) // stride + 1
        if out_h <= 0 or out_w <= 0:
            raise LayerError(f"pooling {self.name!r} produces an empty output from {ifm}")
        return TensorShape(ifm.channels, out_h, out_w)

    def digital_ops(self, input_shapes: Sequence[TensorShape]) -> int:
        ofm = self.output_shape(input_shapes)
        return ofm.n_elements * self.kernel_size * self.kernel_size


@dataclass(frozen=True)
class AvgPool2D(Layer):
    """Average pooling (``global=True`` collapses H and W entirely)."""

    kernel_size: int = 2
    stride: Optional[int] = None
    global_pool: bool = False

    def __post_init__(self) -> None:
        if not self.global_pool and self.kernel_size <= 0:
            raise LayerError("kernel_size must be positive")
        if self.stride is not None and self.stride <= 0:
            raise LayerError("stride must be positive")

    def output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        ifm = self._single_input(input_shapes)
        if self.global_pool:
            return TensorShape(ifm.channels, 1, 1)
        stride = self.stride if self.stride is not None else self.kernel_size
        out_h = (ifm.height - self.kernel_size) // stride + 1
        out_w = (ifm.width - self.kernel_size) // stride + 1
        if out_h <= 0 or out_w <= 0:
            raise LayerError(f"pooling {self.name!r} produces an empty output from {ifm}")
        return TensorShape(ifm.channels, out_h, out_w)

    def digital_ops(self, input_shapes: Sequence[TensorShape]) -> int:
        ifm = self._single_input(input_shapes)
        # Every input element is accumulated once, plus one divide per output.
        return ifm.n_elements + self.output_shape(input_shapes).n_elements


@dataclass(frozen=True)
class Add(Layer):
    """Element-wise tensor addition (the residual layer of ResNet)."""

    fused_relu: bool = True

    @property
    def n_inputs(self) -> int:
        return 2

    def output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if len(input_shapes) != 2:
            raise LayerError(f"add layer {self.name!r} expects 2 inputs")
        a, b = input_shapes
        if a != b:
            raise LayerError(
                f"add layer {self.name!r} received mismatched shapes {a} and {b}"
            )
        return a

    def digital_ops(self, input_shapes: Sequence[TensorShape]) -> int:
        ofm = self.output_shape(input_shapes)
        return ofm.n_elements * (2 if self.fused_relu else 1)


@dataclass(frozen=True)
class ReLU(Layer):
    """Stand-alone ReLU activation (usually fused into the producer)."""

    def output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        return self._single_input(input_shapes)

    def digital_ops(self, input_shapes: Sequence[TensorShape]) -> int:
        return self._single_input(input_shapes).n_elements


@dataclass(frozen=True)
class Flatten(Layer):
    """Flatten a feature map to a vector (no computation)."""

    def output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        ifm = self._single_input(input_shapes)
        return TensorShape(ifm.n_elements, 1, 1)
