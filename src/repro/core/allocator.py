"""Cluster allocation.

Pipeline stages are placed on consecutive cluster indices in pipeline
(topological) order.  Because the quadrant topology numbers clusters
depth-first, consecutive indices share the lowest interconnect levels, so
producer-consumer traffic mostly stays inside an L1/L2 quadrant — the same
locality argument the paper's mapping relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


class AllocationError(RuntimeError):
    """Raised when the mapping needs more clusters than the system has."""


@dataclass
class ClusterAllocator:
    """Hands out cluster indices sequentially and tracks who owns what."""

    n_clusters: int
    _next: int = 0
    _owners: Dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_clusters <= 0:
            raise ValueError("n_clusters must be positive")

    # ------------------------------------------------------------------ #
    @property
    def allocated(self) -> int:
        """Number of clusters handed out so far."""
        return self._next

    @property
    def remaining(self) -> int:
        """Number of clusters still free."""
        return self.n_clusters - self._next

    def can_allocate(self, count: int) -> bool:
        """Whether ``count`` more clusters are available."""
        return count <= self.remaining

    def allocate(self, count: int, owner: str) -> Tuple[int, ...]:
        """Allocate ``count`` consecutive clusters to ``owner``."""
        if count < 0:
            raise ValueError("count cannot be negative")
        if count == 0:
            return ()
        if not self.can_allocate(count):
            raise AllocationError(
                f"cannot allocate {count} clusters to {owner!r}: only "
                f"{self.remaining} of {self.n_clusters} remain"
            )
        ids = tuple(range(self._next, self._next + count))
        self._next += count
        for cluster in ids:
            self._owners[cluster] = owner
        return ids

    def owner_of(self, cluster: int) -> Optional[str]:
        """Owner label of a cluster, or ``None`` if unallocated."""
        return self._owners.get(cluster)

    def utilization(self) -> float:
        """Fraction of the system's clusters that have been allocated."""
        return self.allocated / self.n_clusters
