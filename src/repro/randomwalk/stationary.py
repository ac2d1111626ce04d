"""The stationary distribution of the simple random walk.

For a connected undirected graph the stationary distribution of the simple
random walk is ``π(v) = d(v) / 2m`` (Section I-C).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import RandomWalkError
from ..graphs.graph import Graph

__all__ = ["stationary_distribution"]


def stationary_distribution(graph: Graph) -> np.ndarray:
    """Return ``π`` with ``π(v) = d(v)/2m``.

    Raises :class:`RandomWalkError` for graphs with no edges, for which the
    stationary distribution is undefined.
    """
    if graph.num_edges == 0:
        raise RandomWalkError("the stationary distribution requires at least one edge")
    return graph.degrees().astype(np.float64) / graph.volume
