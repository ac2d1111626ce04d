"""Graph traversal primitives: BFS, balls, connectivity and hop distance.

The CDRW analysis (Lemma 1) reasons about the ball ``B_ℓ`` of radius ``ℓ``
around the seed vertex — the set of vertices within hop distance ``ℓ`` — and
the distributed algorithm builds a BFS tree of depth ``O(log n)`` rooted at
the seed (Algorithm 1, line 5).  These are the shared-memory counterparts of
the distributed BFS in :mod:`repro.congest.bfs`; integration tests assert
that both produce the same depth labelling.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..exceptions import GraphError
from .graph import Graph

__all__ = [
    "BFSResult",
    "bfs_tree",
    "ball",
    "is_connected",
    "shortest_path_length",
]

UNREACHED = -1


@dataclass(frozen=True)
class BFSResult:
    """The outcome of a breadth-first search from a root vertex.

    Attributes
    ----------
    root:
        The BFS root.
    distances:
        Hop distance from the root per vertex (``-1`` for unreachable vertices).
    parents:
        BFS-tree parent per vertex (``-1`` for the root and unreachable vertices).
    max_depth:
        Depth cap the search was run with (``None`` = unbounded).
    """

    root: int
    distances: np.ndarray
    parents: np.ndarray
    max_depth: int | None

    def reached(self) -> np.ndarray:
        """Return the sorted array of vertices reached by the search."""
        return np.flatnonzero(self.distances != UNREACHED)

    def depth(self) -> int:
        """Return the depth of the BFS tree (0 when only the root was reached)."""
        reached = self.distances[self.distances != UNREACHED]
        return int(reached.max()) if len(reached) else 0

    def children(self) -> dict[int, list[int]]:
        """Return the tree as a parent -> children adjacency dictionary."""
        tree: dict[int, list[int]] = {}
        for vertex, parent in enumerate(self.parents.tolist()):
            if parent != UNREACHED:
                tree.setdefault(parent, []).append(vertex)
        return tree

    @cached_property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        """The reached vertices grouped by depth (level 0 = the root), ids ascending.

        A broadcast proceeds down these levels and a convergecast up them.
        Built once per tree: a CONGEST detection runs hundreds of
        aggregations over the same tree.
        """
        reached = self.reached()
        depths = self.distances[reached]
        ordered = reached[np.argsort(depths, kind="stable")].tolist()
        bounds = np.cumsum(np.bincount(depths, minlength=self.depth() + 1)).tolist()
        return tuple(
            tuple(ordered[start:stop]) for start, stop in zip([0] + bounds[:-1], bounds)
        )

    @cached_property
    def fold_levels(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``(vertices, their parents)`` per level below the root, deepest first.

        The int arrays a convergecast folds up the tree, one level at a
        time; built once per tree.
        """
        folds = []
        for level in reversed(self.levels[1:]):
            vertices = np.array(level, dtype=np.int64)
            folds.append((vertices, self.parents[vertices]))
        return tuple(folds)

    def subtree_order(self) -> list[int]:
        """Return the reached vertices in non-decreasing distance order.

        This is the order in which a convergecast proceeds bottom-up (reversed)
        and a broadcast proceeds top-down.
        """
        return [vertex for level in self.levels for vertex in level]


def bfs_tree(graph: Graph, root: int, max_depth: int | None = None) -> BFSResult:
    """Run a breadth-first search from ``root``.

    Parameters
    ----------
    graph:
        The graph to traverse.
    root:
        Starting vertex.
    max_depth:
        Optional depth cap.  Algorithm 1 builds a BFS tree of depth
        ``O(log n)`` from the seed; pass that cap here to mirror it.
    """
    if root not in graph:
        raise GraphError(f"root {root} is not a vertex of {graph!r}")
    if max_depth is not None and max_depth < 0:
        raise GraphError(f"max_depth must be non-negative, got {max_depth}")

    n = graph.num_vertices
    distances = np.full(n, UNREACHED, dtype=np.int64)
    parents = np.full(n, UNREACHED, dtype=np.int64)
    distances[root] = 0
    queue: deque[int] = deque([root])
    while queue:
        current = queue.popleft()
        current_distance = int(distances[current])
        if max_depth is not None and current_distance >= max_depth:
            continue
        for neighbor in graph.neighbors(current):
            neighbor = int(neighbor)
            if distances[neighbor] == UNREACHED:
                distances[neighbor] = current_distance + 1
                parents[neighbor] = current
                queue.append(neighbor)
    return BFSResult(root=root, distances=distances, parents=parents, max_depth=max_depth)


def ball(graph: Graph, center: int, radius: int) -> frozenset[int]:
    """Return the ball ``B_radius(center)`` — vertices within hop distance ``radius``.

    Lemma 1 of the paper shows that, before mixing, the largest local mixing
    set of an ``ℓ``-step walk on ``G(n, p)`` is the ball ``B_{⌊ℓ/2⌋}``.
    """
    if radius < 0:
        raise GraphError(f"radius must be non-negative, got {radius}")
    result = bfs_tree(graph, center, max_depth=radius)
    return frozenset(int(v) for v in result.reached())


def is_connected(graph: Graph) -> bool:
    """Return ``True`` when the graph is connected (the empty graph is connected)."""
    if graph.num_vertices <= 1:
        return True
    result = bfs_tree(graph, 0)
    return len(result.reached()) == graph.num_vertices


def shortest_path_length(graph: Graph, source: int, target: int) -> int:
    """Return the hop distance between two vertices (-1 if unreachable)."""
    result = bfs_tree(graph, source)
    if target not in graph:
        raise GraphError(f"target {target} is not a vertex of {graph!r}")
    return int(result.distances[target])
