"""Mapping optimisation levels (the three design points of Fig. 5).

The paper evaluates three successive mappings of ResNet-18:

* **naive** — every layer mapped with the multi-cluster technique needed to
  fit its parameters, but no replication, no parallelisation, residuals
  staged in HBM (Fig. 5B);
* **replicated** — data-replication of the analog bottleneck layers and
  parallelisation of the digital ones, which balances the pipeline at the
  cost of extra clusters but moves the bottleneck to HBM communication
  (Fig. 5C);
* **final** — the replicated mapping with residual tensors parked in the L1
  of spare clusters instead of HBM, removing the communication bottleneck
  (Fig. 5D).

:class:`MappingOptimizer` produces the ladder mappings for any network, and
is the main entry point used by the runner, the examples and the
benchmarks.  The ladder itself — and every other mapping strategy — now
lives in the policy registry (:mod:`repro.core.policies`); the enum and the
``options_for``/``build`` methods below delegate to the registered ladder
policies and are kept as the stable, paper-facing spelling.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from ..arch.config import ArchConfig
from ..dnn.graph import Graph
from .mapping import MappingOptions, NetworkMapping
from .replication import BalanceResult, balance_pipeline
from .tiling import TilingPlan


class OptimizationLevel(enum.Enum):
    """The mapping design points of the paper's optimisation ladder.

    ``NAIVE``, ``REPLICATED`` and ``FINAL`` are the three ResNet-18 design
    points of Fig. 5; ``PIPELINED`` is the intermediate step between naive
    and replicated (digital-layer parallelisation without analog
    replication).  Each member names the registered mapping policy that
    implements it.
    """

    NAIVE = "naive"
    PIPELINED = "pipelined"
    REPLICATED = "replicated"
    FINAL = "final"

    @classmethod
    def all(cls) -> tuple:
        """The three Fig. 5 design points, in the order the paper presents them."""
        return (cls.NAIVE, cls.REPLICATED, cls.FINAL)

    @classmethod
    def ladder(cls) -> tuple:
        """The full four-step ladder, naive through final."""
        return (cls.NAIVE, cls.PIPELINED, cls.REPLICATED, cls.FINAL)


@dataclass
class MappingOptimizer:
    """Builds naive / replicated / final mappings for a network."""

    graph: Graph
    arch: ArchConfig
    batch_size: int = 16
    reserve_clusters: int = 4
    max_replication: int = 64

    def __post_init__(self) -> None:
        self.graph.ensure_shapes()
        self._tiling = TilingPlan.choose(self.graph, self.arch.cluster, self.batch_size)
        self._balance: Optional[BalanceResult] = None

    # ------------------------------------------------------------------ #
    @property
    def tiling(self) -> TilingPlan:
        """The W-tiling shared by every mapping level."""
        return self._tiling

    def balance(self) -> BalanceResult:
        """Replication/parallelisation factors of the balanced mapping (cached)."""
        if self._balance is None:
            self._balance = balance_pipeline(
                self.graph,
                self.arch,
                self._tiling,
                reserve_clusters=self.reserve_clusters,
                max_replication=self.max_replication,
            )
        return self._balance

    # ------------------------------------------------------------------ #
    def options_for(self, level: Any) -> MappingOptions:
        """Mapping options implementing one optimisation level (or policy).

        ``level`` accepts everything
        :func:`~repro.core.policies.resolve_policy` does: an
        :class:`OptimizationLevel` member, a registered policy name, an
        inline ``{"policy": ...}`` mapping or a policy instance.
        """
        from .policies import resolve_policy

        return resolve_policy(level).options(self)

    def build(self, level: Any) -> NetworkMapping:
        """Build the mapping for one optimisation level (or policy)."""
        from .policies import resolve_policy

        return resolve_policy(level).build(self)
