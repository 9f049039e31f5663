"""Pipeline balancing: data-replication and parallelisation (Sec. V.2).

In a pipelined execution the throughput is set by the slowest stage, so the
mapping must spend its spare clusters where they help most:

* *data-replication* copies an analog layer's parameters onto additional
  groups of IMAs so several tiles are processed concurrently — the speed-up
  is (up to overheads) the replication factor, at the cost of area;
* *parallelisation* spreads a digital layer (pooling, residual additions)
  over the cores of several clusters.

:func:`balance_pipeline` implements the greedy balancing used to derive the
paper's optimised mapping: starting from the naive mapping it repeatedly
accelerates the current bottleneck stage until the cluster budget runs out
or no further improvement is possible.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..arch.config import ArchConfig
from ..dnn.graph import Graph, Node
from .costs import analog_job_cost, digital_job_cycles, reduction_job_cycles
from .reduction import ReductionPlan
from .splits import LayerSplit
from .tiling import TilingPlan


@dataclass
class _Candidate:
    """Mutable balancing state of one layer."""

    node_id: int
    is_analog: bool
    #: clusters added when the factor is incremented by one.
    increment_cost: int
    factor: int = 1
    base_cycles: int = 0
    #: lower bound the stage cannot go below (e.g. its reduction cost).
    floor_cycles: int = 0
    max_factor: int = 64

    @property
    def effective_cycles(self) -> int:
        scaled = math.ceil(self.base_cycles / self.factor)
        return max(scaled, self.floor_cycles)

    @property
    def next_cycles(self) -> int:
        scaled = math.ceil(self.base_cycles / (self.factor + 1))
        return max(scaled, self.floor_cycles)

    @property
    def can_improve(self) -> bool:
        return self.factor < self.max_factor and self.next_cycles < self.effective_cycles


@dataclass(frozen=True)
class BalanceResult:
    """Outcome of the pipeline balancing pass."""

    replication: Dict[int, int]
    parallelization: Dict[int, int]
    #: clusters consumed by the extra replicas / parallel workers.
    extra_clusters: int
    #: steady-state bottleneck (cycles per job) before and after balancing.
    bottleneck_before: int
    bottleneck_after: int

    @property
    def speedup(self) -> float:
        """Predicted throughput gain of the balanced mapping."""
        if self.bottleneck_after == 0:
            return 1.0
        return self.bottleneck_before / self.bottleneck_after


def naive_cluster_count(graph: Graph, arch: ArchConfig) -> int:
    """Clusters needed by the naive mapping (replication/parallelisation = 1)."""
    graph.ensure_shapes()
    total = 0
    for node in graph.topological_order():
        if not node.inputs:
            continue
        if node.is_analog:
            split = LayerSplit.for_node(node, arch.ima)
            reduction = ReductionPlan.plan(split.n_row_splits)
            total += split.n_crossbars + reduction.n_clusters
        else:
            total += 1
    return total


def _candidates(
    graph: Graph, arch: ArchConfig, tiling: TilingPlan, max_replication: int
) -> Dict[int, _Candidate]:
    """The naive balancing state of every layer, in topological order."""
    candidates: Dict[int, _Candidate] = {}
    for node in graph.topological_order():
        if not node.inputs:
            continue
        if node.is_analog:
            split = LayerSplit.for_node(node, arch.ima)
            reduction = ReductionPlan.plan(split.n_row_splits)
            cost = analog_job_cost(node, split, tiling, arch.cluster)
            floor = reduction_job_cycles(node, split, reduction, tiling, arch.cluster)
            candidates[node.node_id] = _Candidate(
                node_id=node.node_id,
                is_analog=True,
                increment_cost=split.n_crossbars,
                base_cycles=cost.cycles,
                floor_cycles=floor,
                max_factor=max_replication,
            )
        else:
            base = digital_job_cycles(node, tiling, arch.cluster, parallel_clusters=1)
            candidates[node.node_id] = _Candidate(
                node_id=node.node_id,
                is_analog=False,
                increment_cost=1,
                base_cycles=base,
                floor_cycles=arch.cores.kernel_overhead_cycles,
                max_factor=max_replication,
            )
    return candidates


def balance_pipeline(
    graph: Graph,
    arch: ArchConfig,
    tiling: TilingPlan,
    cluster_budget: Optional[int] = None,
    reserve_clusters: int = 4,
    max_replication: int = 64,
) -> BalanceResult:
    """Assign replication / parallelisation factors to balance the pipeline.

    ``cluster_budget`` defaults to the clusters left over by the naive
    mapping minus a small reserve kept for residual storage.
    """
    graph.ensure_shapes()
    if cluster_budget is None:
        cluster_budget = arch.n_clusters - naive_cluster_count(graph, arch) - reserve_clusters
    cluster_budget = max(0, cluster_budget)
    candidates = _candidates(graph, arch, tiling, max_replication)

    bottleneck_before = max(
        (candidate.effective_cycles for candidate in candidates.values()), default=0
    )

    # Greedy: accelerate the first improvable candidate, in topological
    # order, with the most effective cycles.  Only that candidate changes
    # per step, so the improvable ones sit in a heap keyed by (-cycles,
    # topological index), and the rest contribute a running maximum.
    improvable = []
    stuck = 0  # largest effective cycles of a candidate that cannot improve
    for index, candidate in enumerate(candidates.values()):
        if candidate.can_improve:
            improvable.append((-candidate.effective_cycles, index, candidate))
        else:
            stuck = max(stuck, candidate.effective_cycles)
    heapq.heapify(improvable)
    spent = 0
    while improvable:
        neg_cycles, index, bottleneck = improvable[0]
        if -neg_cycles < stuck:
            # The true bottleneck cannot be improved further (e.g. it is
            # reduction-bound); spending clusters elsewhere does not help.
            break
        if spent + bottleneck.increment_cost > cluster_budget:
            break
        bottleneck.factor += 1
        spent += bottleneck.increment_cost
        if bottleneck.can_improve:
            heapq.heapreplace(improvable, (-bottleneck.effective_cycles, index, bottleneck))
        else:
            heapq.heappop(improvable)
            stuck = max(stuck, bottleneck.effective_cycles)

    bottleneck_after = max(
        (candidate.effective_cycles for candidate in candidates.values()), default=0
    )
    replication = {
        c.node_id: c.factor for c in candidates.values() if c.is_analog and c.factor > 1
    }
    parallelization = {
        c.node_id: c.factor for c in candidates.values() if not c.is_analog and c.factor > 1
    }
    return BalanceResult(
        replication=replication,
        parallelization=parallelization,
        extra_clusters=spent,
        bottleneck_before=bottleneck_before,
        bottleneck_after=bottleneck_after,
    )
