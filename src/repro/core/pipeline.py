"""Lowering of a :class:`~repro.core.mapping.NetworkMapping` to a workload.

Every mapped graph node becomes one pipeline stage of the simulator's
workload IR: the stage carries the per-job analog/digital cycle costs, the
intra-stage traffic (input broadcast across column splits, partial-sum
shipping towards the reduction), and the inter-stage data flows, including
the residual write/read pair through HBM or spare-cluster storage.

The lowering also supports a *communication-free* variant (all byte counts
forced to zero) used by the analysis layer to separate pipeline-unbalance
losses from communication losses in the Fig. 6 waterfall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dnn.graph import Graph, Node
from ..sim.workload import (
    DataFlow,
    ENDPOINT_HBM,
    ENDPOINT_STAGE,
    ENDPOINT_STORAGE,
    StageCost,
    StageDescriptor,
    Workload,
)
from .costs import (
    analog_job_cost,
    broadcast_bytes_per_job,
    digital_job_cycles,
    digital_job_ops,
    partial_sum_bytes_per_job,
    reduction_job_cycles,
    reduction_job_ops,
)
from .mapping import LayerMapping, NetworkMapping

#: buffer depth used for residual flows: storage decouples producer and
#: consumer, so the flow is less tightly double-buffered than direct
#: stage-to-stage streams.
RESIDUAL_BUFFER_DEPTH = 8

#: label of the network input stream fetched from HBM.
NETWORK_INPUT_LABEL = "network_input"

#: label of the network output stream written back to HBM.
NETWORK_OUTPUT_LABEL = "network_output"

#: version of the lowering rules behind :func:`lower_to_workload`.  The
#: persisted workload is the bare :class:`~repro.sim.workload.Workload`,
#: which no loader checks, so this version (with
#: :data:`~repro.core.mapping.MAPPING_PAYLOAD_VERSION`) is hashed into the
#: workload's cache key instead.  Bump it on any change to the lowering or
#: the cost model, and on any change to the fields or the canonical
#: rendering of :class:`~repro.sim.workload.Workload` and the classes it is
#: built from (``StageDescriptor``, ``StageCost``, ``DataFlow``): a stored
#: workload carries the content digest computed when it was lowered, so a
#: store must never serve it to code that would digest the same workload
#: differently.  Warm stores then lower every workload again.
#: Version 2: ``StageDescriptor`` lost its digital-slot count (every
#: lowered stage had one slot, so a stage now runs one digital job at a
#: time) and its graph-node and IFM-group fields, which nothing read.  Its
#: canonical rendering changed while every simulated value stayed the
#: same, so every workload digest, and with it every simulation key, moved.
WORKLOAD_PAYLOAD_VERSION = 2


def lower_to_workload(
    mapping: NetworkMapping,
    zero_communication: bool = False,
) -> Workload:
    """Convert a network mapping into a simulator workload."""
    graph = mapping.graph
    graph.ensure_shapes()
    tiling = mapping.tiling
    arch = mapping.arch
    residuals = mapping.residuals
    residual_by_pair = {(edge.producer, edge.consumer): edge for edge in residuals.edges}

    stages: List[StageDescriptor] = []
    total_macs = 0
    total_digital_ops = 0

    for node in graph.topological_order():
        if node.node_id not in mapping.layers:
            continue
        layer = mapping.layers[node.node_id]
        cost, node_macs, node_ops = _stage_cost(node, layer, mapping)
        total_macs += node_macs * tiling.n_jobs
        total_digital_ops += node_ops * tiling.n_jobs

        inputs = _input_flows(node, layer, mapping, residual_by_pair)
        outputs = _output_flows(node, layer, mapping, residual_by_pair)
        if zero_communication:
            cost = StageCost(
                analog_cycles_per_job=cost.analog_cycles_per_job,
                digital_cycles_per_job=cost.digital_cycles_per_job,
                analog_macs_per_job=cost.analog_macs_per_job,
                digital_ops_per_job=cost.digital_ops_per_job,
                intra_stage_bytes_per_job=0,
            )
            inputs = tuple(_zero_flow(flow) for flow in inputs)
            outputs = tuple(_zero_flow(flow) for flow in outputs)

        stages.append(
            StageDescriptor(
                stage_id=node.node_id,
                name=layer.name,
                analog_replicas=layer.analog_replicas,
                digital_clusters=layer.digital_clusters,
                cost=cost,
                inputs=inputs,
                outputs=outputs,
            )
        )

    return Workload(
        name=f"{graph.name}-{mapping.options.name}",
        stages=stages,
        n_jobs=tiling.n_jobs,
        batch_size=tiling.batch_size,
        tiles_per_image=tiling.tiles_per_image,
        total_macs=total_macs,
        total_digital_ops=total_digital_ops,
        storage_clusters=residuals.storage_clusters,
    )


# --------------------------------------------------------------------------- #
# Costs
# --------------------------------------------------------------------------- #
def _stage_cost(
    node: Node, layer: LayerMapping, mapping: NetworkMapping
) -> Tuple[StageCost, int, int]:
    tiling = mapping.tiling
    cluster = mapping.arch.cluster
    if layer.is_analog:
        assert layer.split is not None and layer.reduction is not None
        analog = analog_job_cost(node, layer.split, tiling, cluster)
        reduce_cycles = reduction_job_cycles(
            node, layer.split, layer.reduction, tiling, cluster
        )
        reduce_ops = reduction_job_ops(node, layer.reduction, tiling)
        # Bias/activation applied while draining the IMA outputs.
        epilogue_ops = max(0, node.digital_ops // tiling.tiles_per_image)
        digital_cycles = reduce_cycles
        intra = broadcast_bytes_per_job(node, layer.split, tiling) + partial_sum_bytes_per_job(
            node, layer.split, tiling
        )
        cost = StageCost(
            analog_cycles_per_job=analog.cycles,
            digital_cycles_per_job=digital_cycles,
            analog_macs_per_job=analog.macs,
            digital_ops_per_job=reduce_ops + epilogue_ops,
            intra_stage_bytes_per_job=intra,
        )
        return cost, analog.macs, reduce_ops + epilogue_ops
    ops = digital_job_ops(node, tiling)
    cycles = digital_job_cycles(node, tiling, cluster, layer.parallel_clusters)
    cost = StageCost(
        analog_cycles_per_job=0,
        digital_cycles_per_job=cycles,
        analog_macs_per_job=0,
        digital_ops_per_job=ops,
        intra_stage_bytes_per_job=0,
    )
    return cost, 0, ops


# --------------------------------------------------------------------------- #
# Data flows
# --------------------------------------------------------------------------- #
def _tile_bytes(node: Node, tiling) -> int:
    shape = node.output_shape
    width = math.ceil(shape.width / tiling.tiles_per_image)
    return shape.channels * shape.height * width * tiling.bytes_per_element


def _residual_chunks(producer: Node, tiling) -> int:
    """Number of transfers one residual job is split into.

    Residual tensors are staged one feature-map column at a time (the
    ``Cout * Hout`` granularity of Sec. V.4), so a job carries as many
    transfers as its tile has columns and each pays the access latency of
    the storage target — cheap for a neighbouring cluster's L1, expensive
    through the 100-cycle HBM controller.
    """
    shape = producer.output_shape
    return max(1, math.ceil(shape.width / tiling.tiles_per_image))


def _input_flows(
    node: Node,
    layer: LayerMapping,
    mapping: NetworkMapping,
    residual_by_pair: Dict[Tuple[int, int], "ResidualEdge"],
) -> Tuple[DataFlow, ...]:
    graph = mapping.graph
    tiling = mapping.tiling
    residuals = mapping.residuals
    flows: List[DataFlow] = []
    for producer_id in node.inputs:
        producer = graph.node(producer_id)
        edge = residual_by_pair.get((producer_id, node.node_id))
        if edge is not None:
            flows.append(
                DataFlow(
                    kind=ENDPOINT_STORAGE if not residuals.uses_hbm else ENDPOINT_HBM,
                    bytes_per_job=edge.tile_bytes,
                    storage_cluster=residuals.storage_cluster_for(edge.label),
                    label=edge.label,
                    buffer_depth=RESIDUAL_BUFFER_DEPTH,
                    transfers_per_job=_residual_chunks(graph.node(producer_id), tiling),
                )
            )
        elif not producer.inputs:
            # The producer is the graph Input node: fetch the IFM from HBM.
            flows.append(
                DataFlow(
                    kind=ENDPOINT_HBM,
                    bytes_per_job=_tile_bytes(producer, tiling),
                    label=NETWORK_INPUT_LABEL,
                )
            )
        else:
            flows.append(
                DataFlow(
                    kind=ENDPOINT_STAGE,
                    bytes_per_job=_tile_bytes(producer, tiling),
                    stage_id=producer_id,
                    label=f"ifm_{producer_id}_to_{node.node_id}",
                )
            )
    return tuple(flows)


def _output_flows(
    node: Node,
    layer: LayerMapping,
    mapping: NetworkMapping,
    residual_by_pair: Dict[Tuple[int, int], "ResidualEdge"],
) -> Tuple[DataFlow, ...]:
    graph = mapping.graph
    tiling = mapping.tiling
    residuals = mapping.residuals
    flows: List[DataFlow] = []
    consumers = graph.consumers(node.node_id)
    for consumer_id in consumers:
        edge = residual_by_pair.get((node.node_id, consumer_id))
        if edge is not None:
            flows.append(
                DataFlow(
                    kind=ENDPOINT_STORAGE if not residuals.uses_hbm else ENDPOINT_HBM,
                    bytes_per_job=edge.tile_bytes,
                    storage_cluster=residuals.storage_cluster_for(edge.label),
                    label=edge.label,
                    buffer_depth=RESIDUAL_BUFFER_DEPTH,
                    transfers_per_job=_residual_chunks(node, tiling),
                )
            )
        else:
            flows.append(
                DataFlow(
                    kind=ENDPOINT_STAGE,
                    bytes_per_job=_tile_bytes(node, tiling),
                    stage_id=consumer_id,
                    label=f"ifm_{node.node_id}_to_{consumer_id}",
                )
            )
    if not consumers:
        flows.append(
            DataFlow(
                kind=ENDPOINT_HBM,
                bytes_per_job=_tile_bytes(node, tiling),
                label=NETWORK_OUTPUT_LABEL,
            )
        )
    return tuple(flows)


def _zero_flow(flow: DataFlow) -> DataFlow:
    return DataFlow(
        kind=flow.kind,
        bytes_per_job=0,
        stage_id=flow.stage_id,
        storage_cluster=flow.storage_cluster,
        label=flow.label,
        buffer_depth=flow.buffer_depth,
    )
