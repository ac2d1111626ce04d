"""Structural graph properties used in the paper's definitions and analysis.

This module implements the quantities from Section I-C of the paper:

* volume ``µ(S) = Σ_{v∈S} d(v)``,
* conductance ``φ(S) = |E(S, V\\S)| / min(µ(S), µ(V\\S))`` and the graph
  conductance ``Φ_G = min_S φ(S)`` (we provide the analytic PPM value and a
  spectral/sweep estimator since the exact minimisation is NP-hard),
* the average-volume approximation ``µ'(S) = (2m/n)·|S|`` that Algorithm 1
  uses so nodes can evaluate the mixing condition locally,
* expected edge-count formulas for PPM graphs that the experiment
  section quotes (e.g. "a partition has in expectation e_in = C(n/r, 2)·p
  intra and e_out = (n/r)(n − n/r)·q inter community edges").
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from ..exceptions import GraphError
from ..utils import safe_ratio
from .graph import Graph

__all__ = [
    "subset_volume",
    "average_volume",
    "conductance",
    "graph_conductance_estimate",
    "ppm_expected_conductance",
    "ppm_expected_intra_edges",
    "ppm_expected_inter_edges",
    "mixing_parameter",
]


def subset_volume(graph: Graph, subset: Iterable[int]) -> int:
    """Return ``µ(S)``, the sum of degrees of the vertices in ``subset``."""
    return graph.subset_volume(subset)


def average_volume(graph: Graph, subset_size: int) -> float:
    """Return the paper's localized volume proxy ``µ'(S) = (2m/n)·|S|``.

    Algorithm 1 replaces the true volume ``µ(S)`` (which a node cannot know
    without learning the whole set) with this average-degree approximation so
    each node can compute its ``x_u`` value locally from ``|S|`` alone.
    """
    if subset_size < 0:
        raise GraphError(f"subset size must be non-negative, got {subset_size}")
    if graph.num_vertices == 0:
        return 0.0
    return graph.volume / graph.num_vertices * subset_size


def conductance(graph: Graph, subset: Iterable[int]) -> float:
    """Return the conductance ``φ(S)`` of a vertex subset.

    ``φ(S) = |E(S, V\\S)| / min(µ(S), µ(V\\S))``.  By convention the
    conductance of the empty set and of the full vertex set is 0.
    """
    subset = list(subset)
    if not subset:
        return 0.0
    cut = graph.cut_size(subset)
    volume_inside = graph.subset_volume(subset)
    volume_outside = graph.volume - volume_inside
    denominator = min(volume_inside, volume_outside)
    return safe_ratio(cut, denominator, default=0.0)


def graph_conductance_estimate(graph: Graph, num_eigenvalues: int = 2) -> float:
    """Estimate ``Φ_G`` with a Fiedler-vector sweep cut.

    Computing the exact conductance is NP-hard; the classical sweep-cut over
    the second eigenvector of the normalised Laplacian gives a set whose
    conductance is within the Cheeger bound of ``Φ_G``.  The paper assumes
    ``Φ_G`` is given or computed by a separate distributed algorithm [28];
    this estimator plays that role when the analytic value is unavailable.
    """
    n = graph.num_vertices
    if n < 3 or graph.num_edges == 0:
        return 0.0
    degrees = graph.degrees().astype(np.float64)
    if np.any(degrees == 0):
        # Isolated vertices give conductance 0 trivially.
        return 0.0
    adjacency = graph.adjacency_matrix()
    inv_sqrt_degree = 1.0 / np.sqrt(degrees)
    # Normalized adjacency D^{-1/2} A D^{-1/2}; its second eigenvector is the
    # Fiedler direction of the normalised Laplacian.
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    d_inv_sqrt = sp.diags(inv_sqrt_degree)
    normalized = d_inv_sqrt @ adjacency @ d_inv_sqrt
    k = min(max(2, num_eigenvalues), n - 1)
    try:
        _, vectors = spla.eigsh(normalized, k=k, which="LA")
    except (spla.ArpackNoConvergence, ValueError):
        dense = normalized.toarray()
        _, dense_vectors = np.linalg.eigh(dense)
        vectors = dense_vectors[:, -k:]
    fiedler = vectors[:, -2] * inv_sqrt_degree
    return _sweep_cut_conductance(graph, np.argsort(fiedler))


def _sweep_cut_conductance(graph: Graph, order: np.ndarray) -> float:
    """The smallest conductance over the proper prefixes of a vertex order.

    An edge whose endpoints sit at sweep ranks ``a < b`` is cut exactly by
    the prefixes ``a … b−1``, so every prefix's cut size is one ``cumsum``
    over a difference array; the prefix volumes are a ``cumsum`` of degrees
    in sweep order.  Cuts and volumes are exact integers and each quotient
    is one correctly rounded division, so the value equals a vertex-by-vertex
    sweep's bit for bit.  Capped at 1.0.
    """
    n = graph.num_vertices
    indptr, indices, degrees = graph.csr_arrays()
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    source_rank = np.repeat(rank, np.diff(indptr))
    target_rank = rank[indices]
    # Each undirected edge appears twice in the CSR arrays; keep the copy
    # that points up the order.
    upward = source_rank < target_rank
    opened = np.bincount(source_rank[upward], minlength=n)
    closed = np.bincount(target_rank[upward], minlength=n)
    cuts = np.cumsum(opened - closed)[:-1]
    volumes = np.cumsum(degrees[order].astype(np.int64))[:-1]
    denominators = np.minimum(volumes, int(graph.volume) - volumes)
    proper = denominators > 0
    if not proper.any():
        return 1.0
    return float(min(1.0, (cuts[proper] / denominators[proper]).min()))


# ----------------------------------------------------------------------
# Analytic PPM quantities quoted in the paper
# ----------------------------------------------------------------------
def ppm_expected_intra_edges(n: int, num_blocks: int, p: float) -> float:
    """Expected intra-community edges of one block: ``C(n/r, 2)·p``."""
    _validate_ppm(n, num_blocks, p, 0.0)
    block_size = n / num_blocks
    return block_size * (block_size - 1) / 2.0 * p


def ppm_expected_inter_edges(n: int, num_blocks: int, q: float) -> float:
    """Expected inter-community edges incident to one block: ``(n/r)(n − n/r)·q``."""
    _validate_ppm(n, num_blocks, 0.0, q)
    block_size = n / num_blocks
    return block_size * (n - block_size) * q


def ppm_expected_conductance(n: int, num_blocks: int, p: float, q: float) -> float:
    """Expected conductance of one PPM block.

    ``φ(C) ≈ q(n − n/r) / (p(n/r) + q(n − n/r))`` — the fraction of a block
    vertex's edges that leave the block.  The paper sets the stopping
    parameter ``δ = Φ_G`` to exactly this quantity (Section III-A, analysis on
    Gnpq graphs).  For a single block (``r = 1``) the conductance is 0.
    """
    _validate_ppm(n, num_blocks, p, q)
    if num_blocks == 1:
        return 0.0
    block_size = n / num_blocks
    outgoing = q * (n - block_size)
    total = p * block_size + outgoing
    return safe_ratio(outgoing, total, default=0.0)


def mixing_parameter(n: int, num_blocks: int, p: float, q: float) -> float:
    """Return the per-step escape probability ``q(r−1) / (p + q(r−1))``.

    Lemma 3 of the paper: the probability that a single random-walk step
    leaves the current block.  Useful for checking the theoretical regime
    ``q = o(p / (r log(n/r)))``.
    """
    _validate_ppm(n, num_blocks, p, q)
    if num_blocks == 1:
        return 0.0
    numerator = q * (num_blocks - 1)
    return safe_ratio(numerator, p + numerator, default=0.0)


def _validate_ppm(n: int, num_blocks: int, p: float, q: float) -> None:
    if n < 1:
        raise GraphError(f"n must be >= 1, got {n}")
    if num_blocks < 1:
        raise GraphError(f"number of blocks must be >= 1, got {num_blocks}")
    if n % num_blocks != 0:
        raise GraphError(f"n={n} must be divisible by r={num_blocks}")
    for name, value in (("p", p), ("q", q)):
        if not (0.0 <= value <= 1.0):
            raise GraphError(f"{name} must be in [0, 1], got {value}")
