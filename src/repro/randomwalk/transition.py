"""Random-walk transition operators.

A simple random walk on an undirected graph moves from the current vertex
``u`` to a uniformly random neighbour, i.e. with probability ``1/d(u)`` per
incident edge (Section I-C of the paper).  This module exposes the transition
matrix in the orientation used by the paper's flooding computation: the
distribution after one step is ``p_{ℓ} = Aᵀ p_{ℓ-1}`` where ``A`` is the
transpose of the row-stochastic transition matrix — equivalently each node
``u`` sends ``p_{ℓ-1}(u)/d(u)`` along every incident edge and sums what it
receives (Algorithm 1, lines 10-11).

A lazy variant (stay put with probability 1/2) is provided for completeness;
laziness removes periodicity issues on bipartite structures and is the
standard fix when the plain walk does not converge.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..exceptions import RandomWalkError
from ..graphs.graph import Graph

__all__ = [
    "transition_matrix",
    "reverse_transition_matrix",
    "lazy_transition_matrix",
]


def transition_matrix(graph: Graph) -> sp.csr_matrix:
    """Return the row-stochastic transition matrix ``P`` with ``P[u, v] = 1/d(u)``.

    Rows of isolated vertices are all-zero (the walk cannot move from them);
    callers that need a proper stochastic matrix should ensure the graph has
    no isolated vertices, which holds with high probability for the random
    graphs the paper studies.
    """
    degrees = graph.degrees().astype(np.float64)
    adjacency = graph.adjacency_matrix()
    with np.errstate(divide="ignore"):
        inverse_degrees = np.where(degrees > 0, 1.0 / degrees, 0.0)
    return sp.diags(inverse_degrees) @ adjacency


def reverse_transition_matrix(graph: Graph) -> sp.csr_matrix:
    """Return ``Pᵀ`` — the operator that advances a probability column vector.

    ``p_ℓ = Pᵀ p_{ℓ-1}`` is exactly the local flooding rule of Algorithm 1:
    each vertex ``u`` spreads ``p_{ℓ-1}(u)/d(u)`` to each neighbour.

    Because the adjacency matrix is symmetric, ``Pᵀ = A·D⁻¹`` shares the
    graph's CSR structure with entry ``(v, u) = 1/d(u)`` — so the operator is
    assembled with a single degree gather over the adjacency structure
    instead of materializing ``P`` and transposing it.  The values are
    bit-identical to ``transition_matrix(graph).T`` (asserted in tests).
    """
    adjacency = graph.adjacency_matrix()
    degrees = graph.degrees().astype(np.float64)
    with np.errstate(divide="ignore"):
        inverse_degrees = np.where(degrees > 0, 1.0 / degrees, 0.0)
    # Copy the structure arrays: sharing them with the cached adjacency would
    # let in-place mutation of one matrix silently corrupt the other.
    operator = sp.csr_matrix(
        (
            inverse_degrees[adjacency.indices],
            adjacency.indices.copy(),
            adjacency.indptr.copy(),
        ),
        shape=adjacency.shape,
        copy=False,
    )
    operator.has_sorted_indices = True
    return operator


def lazy_transition_matrix(graph: Graph, laziness: float = 0.5) -> sp.csr_matrix:
    """Return the lazy transition matrix ``(1-α) I + α P`` with ``α = 1 - laziness``.

    ``laziness`` is the probability of staying put each step.
    """
    if not (0.0 <= laziness < 1.0):
        raise RandomWalkError(f"laziness must be in [0, 1), got {laziness}")
    plain = transition_matrix(graph)
    identity = sp.identity(graph.num_vertices, format="csr")
    return (laziness * identity + (1.0 - laziness) * plain).tocsr()
