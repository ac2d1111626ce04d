"""Result objects returned by the CDRW algorithm.

Detection results keep, per seed, the full trace of the largest mixing set
across walk lengths (useful for diagnostics and for the growth-rate ablation
benchmark) alongside the community finally reported.  Detected communities
are kept exactly as Algorithm 1 emits them — they may overlap slightly,
because each detection runs on the whole graph while only the *seed pool*
shrinks — and :meth:`DetectionResult.to_partition` resolves overlaps by
first claim when a disjoint partition is required (e.g. for NMI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..graphs.partition import Partition
from .mixing_set import LargestMixingSet

__all__ = ["CommunityResult", "DetectionResult"]


@dataclass(frozen=True)
class CommunityResult:
    """The community detected around a single seed vertex.

    Attributes
    ----------
    seed:
        The seed vertex ``s`` the detection started from.
    community:
        The detected community ``C_s``.
    walk_length:
        The walk length at which detection stopped.
    history:
        The largest mixing set found at every walk length, in order.
    stop_reason:
        Why detection stopped (growth rule, budget exhausted, ...).
    delta:
        The stopping parameter δ actually used.
    """

    seed: int
    community: frozenset[int]
    walk_length: int
    history: tuple[LargestMixingSet, ...]
    stop_reason: str
    delta: float

    @property
    def size(self) -> int:
        """Number of vertices in the detected community."""
        return len(self.community)

    def size_trace(self) -> list[int]:
        """Return the mixing-set size per walk length (for growth diagnostics)."""
        return [entry.size for entry in self.history]

    def sizes_examined(self) -> int:
        """Total candidate sizes the paper's schedule charges across all walk lengths.

        The sum of :attr:`LargestMixingSet.sizes_examined`: the cost of the
        ascending scan, not the (usually smaller) number of sizes the kernel
        evaluated.
        """
        return sum(entry.sizes_examined for entry in self.history)


@dataclass(frozen=True)
class DetectionResult:
    """The full output of CDRW over a graph: one :class:`CommunityResult` per seed.

    Attributes
    ----------
    num_vertices:
        Number of vertices of the input graph.
    communities:
        The per-seed results, in detection order.
    """

    num_vertices: int
    communities: tuple[CommunityResult, ...]

    def __iter__(self) -> Iterator[CommunityResult]:
        return iter(self.communities)

    def __len__(self) -> int:
        return len(self.communities)

    @property
    def num_communities(self) -> int:
        """Number of detected communities (one per seed processed)."""
        return len(self.communities)

    def detected_sets(self) -> list[frozenset[int]]:
        """Return the detected communities as plain vertex sets (possibly overlapping)."""
        return [result.community for result in self.communities]

    def seeds(self) -> list[int]:
        """Return the seed vertices in detection order."""
        return [result.seed for result in self.communities]

    def covered_vertices(self) -> frozenset[int]:
        """Return the union of all detected communities."""
        covered: set[int] = set()
        for result in self.communities:
            covered.update(result.community)
        return frozenset(covered)

    def coverage(self) -> float:
        """Fraction of vertices covered by at least one detected community."""
        if self.num_vertices == 0:
            return 0.0
        return len(self.covered_vertices()) / self.num_vertices

    def to_partition(self, min_size: int = 1) -> Partition:
        """Resolve the detected communities into a disjoint :class:`Partition`.

        Overlaps are resolved by first claim (detection order); communities
        that end up with fewer than ``min_size`` vertices after resolution are
        dropped (their vertices become unassigned).
        """
        claimed: dict[int, int] = {}
        resolved: list[list[int]] = []
        for result in self.communities:
            members = [v for v in sorted(result.community) if v not in claimed]
            if len(members) < min_size:
                continue
            community_id = len(resolved)
            for vertex in members:
                claimed[vertex] = community_id
            resolved.append(members)
        return Partition.from_communities(resolved, self.num_vertices)

    def total_walk_steps(self) -> int:
        """Total number of random-walk steps taken across all seeds."""
        return sum(result.walk_length for result in self.communities)
