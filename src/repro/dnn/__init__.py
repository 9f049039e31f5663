"""DNN frontend: graph IR, model zoo and reference numerics."""

from . import models
from .builder import GraphBuilder
from .graph import Graph, GraphError, Node
from .layers import (
    Add,
    AvgPool2D,
    Conv2D,
    Flatten,
    Input,
    Layer,
    LayerError,
    Linear,
    MaxPool2D,
    ReLU,
)
from .numerics import (
    LayerParameters,
    ReferenceExecutor,
    conv2d_reference,
    im2col,
    initialize_parameters,
    random_input,
)
from .tensor import TensorShape

__all__ = [
    "Add",
    "AvgPool2D",
    "Conv2D",
    "Flatten",
    "Graph",
    "GraphBuilder",
    "GraphError",
    "Input",
    "Layer",
    "LayerError",
    "LayerParameters",
    "Linear",
    "MaxPool2D",
    "Node",
    "ReLU",
    "ReferenceExecutor",
    "TensorShape",
    "conv2d_reference",
    "im2col",
    "initialize_parameters",
    "models",
    "random_input",
]
