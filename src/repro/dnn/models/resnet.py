"""ResNet model builders.

``resnet18`` reproduces the network the paper maps onto the 512-cluster
system: a 7x7 stride-2 stem convolution, a 3x3 stride-2 max pool, four
stages of basic blocks (two blocks each, 64/128/256/512 channels), a global
average pool and a 1000-way fully-connected classifier, evaluated on
256x256 inputs.

The paper's DAG (Fig. 2A) has 28 nodes — it does not show the 1x1 projection
convolutions on the residual shortcut of the down-sampling blocks.  By
default (``paper_dag=True``) we reproduce exactly that 28-node topology by
pairing the residual addition with the output of the previous residual
stage at the *reduced* resolution (i.e. the projection is folded away).
With ``paper_dag=False`` the standard torchvision-style projection shortcuts
are emitted instead; both variants are useful for the mapping experiments.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..builder import GraphBuilder, ShapeLike
from ..graph import Graph


def _basic_block(
    builder: GraphBuilder,
    in_channels: int,
    channels: int,
    stride: int,
    paper_dag: bool,
) -> int:
    """Append one ResNet basic block (two 3x3 convolutions + residual add).

    ``in_channels`` is the channel count of the block's input, which the
    builder loop knows, so the shortcut needs no shape inference of the
    partial graph.
    """
    block_input = builder.current
    builder.conv2d(channels, kernel_size=3, stride=stride, relu=True)
    builder.conv2d(channels, kernel_size=3, stride=1, relu=False)
    main_branch = builder.current
    if stride == 1 and in_channels == channels:
        shortcut = block_input
    elif paper_dag:
        # The paper's DAG omits projection convolutions; the shortcut is the
        # main branch's producer resolution, so we connect the residual to
        # the first convolution of the block (which already applied the
        # stride and channel change).  This keeps the 28-node structure and
        # the data-lifetime pattern (residuals crossing two pipeline
        # stages) the paper's residual-management study relies on.
        shortcut = builder.graph.node(main_branch).inputs[0]
    else:
        shortcut = builder.conv2d(
            channels,
            kernel_size=1,
            stride=stride,
            padding=0,
            relu=False,
            inputs=(block_input,),
            name=None,
        )
    return builder.add(shortcut, relu=True, first=main_branch)


def _resnet(
    name: str,
    blocks_per_stage: Sequence[int],
    input_shape: ShapeLike,
    num_classes: int,
    paper_dag: bool,
) -> Graph:
    builder = GraphBuilder(name, input_shape=input_shape)
    builder.conv2d(64, kernel_size=7, stride=2, padding=3, relu=True, name="conv1")
    builder.max_pool(kernel_size=3, stride=2, padding=1, name="maxpool")
    in_channels = channels = 64
    for stage_index, n_blocks in enumerate(blocks_per_stage):
        for block_index in range(n_blocks):
            stride = 2 if stage_index > 0 and block_index == 0 else 1
            _basic_block(builder, in_channels, channels, stride, paper_dag)
            in_channels = channels
        channels *= 2
    builder.global_avg_pool(name="avgpool")
    builder.linear(num_classes, name="fc")
    return builder.build()


def resnet18(
    input_shape: ShapeLike = (3, 256, 256),
    num_classes: int = 1000,
    paper_dag: bool = True,
) -> Graph:
    """ResNet-18 on 256x256 inputs, the paper's evaluation workload."""
    return _resnet("resnet18", (2, 2, 2, 2), input_shape, num_classes, paper_dag)


def resnet34(
    input_shape: ShapeLike = (3, 256, 256),
    num_classes: int = 1000,
    paper_dag: bool = True,
) -> Graph:
    """ResNet-34 (3/4/6/3 basic blocks), for scaling studies."""
    return _resnet("resnet34", (3, 4, 6, 3), input_shape, num_classes, paper_dag)


def resnet_cifar(
    depth: int = 20,
    input_shape: ShapeLike = (3, 32, 32),
    num_classes: int = 10,
) -> Graph:
    """CIFAR-style ResNet (6n+2 layers), the workload of Dazzi et al. [11].

    Useful as a comparison point: prior multi-AIMC work mapped this much
    smaller network, while the paper targets full ResNet-18.
    """
    if (depth - 2) % 6 != 0:
        raise ValueError("CIFAR ResNet depth must be 6n+2 (20, 32, 44, ...)")
    n = (depth - 2) // 6
    builder = GraphBuilder(f"resnet{depth}-cifar", input_shape=input_shape)
    builder.conv2d(16, kernel_size=3, stride=1, relu=True, name="conv1")
    in_channels = channels = 16
    for stage_index in range(3):
        for block_index in range(n):
            stride = 2 if stage_index > 0 and block_index == 0 else 1
            _basic_block(builder, in_channels, channels, stride, paper_dag=True)
            in_channels = channels
        channels *= 2
    builder.global_avg_pool(name="avgpool")
    builder.linear(num_classes, name="fc")
    return builder.build()
