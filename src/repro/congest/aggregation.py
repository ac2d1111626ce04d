"""Tree-based aggregation primitives: broadcast, convergecast and k-smallest selection.

Algorithm 1 relies on three communication patterns over the BFS tree rooted
at the seed (Section III, "Algorithm in Detail"):

* **broadcast** — the root pushes a value down the tree (e.g. the current
  binary-search pivot ``x_mid`` or the final "you are in the mixing set"
  indicator); ``depth`` rounds, one message per tree edge;
* **convergecast** — an aggregate (sum, min, max, count) of per-vertex values
  is folded up the tree towards the root; ``depth`` rounds, one message per
  tree edge;
* **k-smallest selection** — the root needs the sum of the ``|S|`` smallest
  ``x_u`` values (and the identity of the vertices attaining them).  A direct
  upcast of all values would congest the tree (Ω(n) rounds), so the paper
  binary searches over the value range: each iteration broadcasts a pivot and
  convergecasts the count of vertices below it, homing in on the ``|S|``-th
  smallest value in ``O(log n)`` iterations.

Every primitive can run in two modes: *message-level* (every hop is a real
:class:`~repro.congest.message.Message`, bandwidth-checked by the network) or
*count-only* (identical schedule and identical round/message charges, no
per-message objects).  The results are identical; tests assert it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import SimulationError
from ..graphs.traversal import BFSResult
from ..utils import ceil_log2
from .network import CongestNetwork

__all__ = [
    "tree_edge_count",
    "broadcast",
    "convergecast",
    "select_k_smallest",
]


def tree_edge_count(tree: BFSResult) -> int:
    """Return the number of edges of the BFS tree (reached vertices minus one)."""
    return max(0, len(tree.reached()) - 1)


def broadcast(
    network: CongestNetwork,
    tree: BFSResult,
    payload,
    kind: str = "broadcast",
    count_only: bool = True,
) -> None:
    """Push ``payload`` from the root to every vertex of the BFS tree.

    Takes ``tree.depth()`` rounds and one message per tree edge.
    """
    levels = tree.levels
    if count_only:
        network.charge_rounds(max(0, len(levels) - 1))
        network.charge_messages(kind, tree_edge_count(tree))
        return
    children = tree.children()
    for level in levels[:-1]:
        network.begin_round()
        for vertex in level:
            for child in children.get(vertex, []):
                network.send(vertex, child, kind, payload=payload)
        network.end_round()


def convergecast(
    network: CongestNetwork,
    tree: BFSResult,
    values: Sequence[float] | np.ndarray,
    combine: np.ufunc,
    kind: str = "convergecast",
    count_only: bool = True,
) -> float:
    """Fold per-vertex ``values`` up the tree and return the aggregate at the root.

    ``combine`` is a binary NumPy ufunc (``np.add``, ``np.minimum``,
    ``np.maximum``).  Takes ``tree.depth()`` rounds and one message per tree
    edge.  From the deepest level up, each parent folds its children's
    partial aggregates into its own value in ascending child id,
    ``combine(combine(x, c₁), c₂)`` for children ``c₁ < c₂``.  Count-only
    mode folds a whole level with one ``combine.at``, which applies its
    updates in index order; the message-level mode folds each delivered
    payload in send order.  The two agree bit for bit.

    ``np.minimum`` / ``np.maximum`` propagate a NaN where Python's ``min`` /
    ``max`` would depend on the argument order; every value the CONGEST
    backend aggregates is finite.
    """
    if not isinstance(combine, np.ufunc) or combine.nin != 2:
        raise SimulationError(f"combine must be a binary numpy ufunc, got {combine!r}")
    # A copy: the fold writes each parent's partial aggregate in place.
    partial = np.array(values, dtype=np.float64)
    if partial.shape != (network.graph.num_vertices,):
        raise SimulationError(
            f"values has shape {partial.shape}, expected ({network.graph.num_vertices},)"
        )
    folds = tree.fold_levels

    if count_only:
        network.charge_rounds(len(folds))
        network.charge_messages(kind, tree_edge_count(tree))
        for vertices, parents in folds:
            combine.at(partial, parents, partial[vertices])
        return float(partial[tree.root])

    for vertices, parents in folds:
        network.begin_round()
        for vertex, parent in zip(vertices.tolist(), parents.tolist()):
            network.send(vertex, parent, kind, payload=float(partial[vertex]))
        delivered = network.end_round()
        for receiver, messages in delivered.items():
            for message in messages:
                partial[receiver] = combine(partial[receiver], message.payload)
    return float(partial[tree.root])


def select_k_smallest(
    network: CongestNetwork,
    tree: BFSResult,
    values: Sequence[float] | np.ndarray,
    k: int,
    kind: str = "select",
    count_only: bool = True,
    max_iterations: int = 64,
) -> tuple[np.ndarray, float, int]:
    """Find the ``k`` vertices of the tree with the smallest ``values``.

    Implements the paper's binary-search protocol: the root learns
    ``x_min``/``x_max`` by convergecast, then repeatedly broadcasts a pivot
    and convergecasts the count of vertices at or below it until exactly
    ``k`` qualify.  Ties are broken by vertex id (the paper perturbs equal
    values by a vanishing amount, which has the same effect).

    Returns ``(selected_vertices, selected_sum, iterations)`` where
    ``iterations`` is the number of binary-search rounds actually used —
    the caller can convert it into rounds/messages with the costs already
    charged to ``network``.
    """
    if k < 1:
        raise SimulationError(f"k must be >= 1, got {k}")
    values = np.asarray(values, dtype=np.float64)
    reached = tree.reached()
    if k > len(reached):
        raise SimulationError(
            f"cannot select {k} vertices from a tree that reaches only {len(reached)}"
        )

    reached_values = values[reached]
    # Tie-break by vertex id: the k smallest by (value, id) are every value
    # below the k-th smallest value τ, then the lowest ids equal to τ
    # (``reached`` is ascending, so mask order is id order; NaN sorts last,
    # so a NaN τ has every number below it).  The distributed protocol
    # achieves the same by adding a distinct vanishing perturbation per
    # vertex, which makes all values distinct so the binary search over
    # them terminates in O(log n) iterations.
    tau = np.partition(reached_values, k - 1)[k - 1]
    if np.isnan(tau):
        tied = np.isnan(reached_values)
        below = ~tied
    else:
        tied = reached_values == tau
        below = reached_values < tau
    fill = k - np.count_nonzero(below)
    selected = reached[below | (tied & (np.cumsum(tied) <= fill))]
    selected_sum = float(values[selected].sum())

    depth = tree.depth()
    edges = tree_edge_count(tree)

    if count_only:
        # Binary search over the (perturbed, hence distinct) values takes at
        # most ceil(log2 |reached|) iterations; each iteration is one pivot
        # broadcast plus one count convergecast.  ceil_log2 keeps the round
        # charge in integer arithmetic.
        iterations = max(1, ceil_log2(max(len(reached), 2)))
        # Initial min/max convergecast.
        network.charge_rounds(depth)
        network.charge_messages(kind, edges)
        # Pivot iterations.
        network.charge_rounds(2 * depth * iterations)
        network.charge_messages(kind, 2 * edges * iterations)
        # Final qualification broadcast + sum convergecast.
        network.charge_rounds(2 * depth)
        network.charge_messages(kind, 2 * edges)
        return selected, selected_sum, iterations

    # Message-level execution of the actual protocol.  Equal values are
    # perturbed by a vertex-specific vanishing amount, as in the paper.
    spread = float(reached_values.max() - reached_values.min())
    perturbation = np.zeros(network.graph.num_vertices, dtype=np.float64)
    perturbation[reached] = np.argsort(np.argsort(reached)) + 1.0
    scale = (spread if spread > 0 else 1.0) * 1e-9 / max(len(reached), 1)
    perturbed = values + perturbation * scale

    convergecast(network, tree, perturbed, combine=np.minimum, kind=kind, count_only=False)
    convergecast(network, tree, perturbed, combine=np.maximum, kind=kind, count_only=False)
    low = float(perturbed[reached].min())
    high = float(perturbed[reached].max())
    iterations = 0
    count = len(reached)
    while iterations < max_iterations and low < high:
        iterations += 1
        pivot = (low + high) / 2.0
        broadcast(network, tree, payload=pivot, kind=kind, count_only=False)
        below = np.where(perturbed <= pivot, 1.0, 0.0)
        count = int(convergecast(network, tree, below, combine=np.add, kind=kind, count_only=False))
        if count == k:
            break
        if count < k:
            low = pivot
        else:
            high = pivot
    # Qualification broadcast + selected-sum convergecast.
    broadcast(network, tree, payload=high, kind=kind, count_only=False)
    indicator = np.zeros(network.graph.num_vertices, dtype=np.float64)
    indicator[selected] = values[selected]
    convergecast(network, tree, indicator, combine=np.add, kind=kind, count_only=False)
    return selected, selected_sum, max(1, iterations)
