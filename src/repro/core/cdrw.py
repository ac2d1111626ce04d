"""CDRW — Community Detection by Random Walks (Algorithm 1 of the paper).

Two entry points are provided:

* :func:`detect_community` finds the community containing one seed vertex
  (the inner body of Algorithm 1, lines 5-20), and
* :func:`detect_communities` runs the full pool loop: repeatedly pick a random
  seed from the pool of not-yet-assigned vertices, detect its community, and
  remove the detected vertices from the pool (lines 1-4 and 21-23).

This module is the *centralized executor*: it performs exactly the arithmetic
the CONGEST node programs perform (the distribution update of lines 9-11, the
``x_u`` ranking of lines 12-17 and the growth test of line 18) without paying
the cost of simulating individual messages, which keeps the accuracy
experiments of Figures 2-4 fast.  The message-level implementations live in
:mod:`repro.congest.cdrw_congest` and :mod:`repro.kmachine.cdrw_kmachine`;
equivalence on small graphs is covered by integration tests.

For many seeds at once, :mod:`repro.core.batched` runs several detections on
one shared batched walk (one sparse matrix–matrix product per step) and
produces results identical to the entry points here.

Both public functions are thin shims over the ``"scalar"`` backend of the
unified detection engine (:mod:`repro.api`); the implementations live in the
module-private ``_impl`` functions the registry calls.  The shims' outputs
are identical to the pre-registry behaviour — same RNG draw sequence, same
communities (asserted by ``tests/test_api.py``).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import AlgorithmError
from ..graphs.graph import Graph
from ..randomwalk.distribution import WalkDistribution
from ..utils import as_rng
from .mixing_set import BatchedMixingSetSearch, LargestMixingSet
from .parameters import CDRWParameters
from .result import CommunityResult, DetectionResult
from .stopping import GrowthStoppingRule

__all__ = ["detect_community", "detect_communities"]


def detect_community(
    graph: Graph,
    seed_vertex: int,
    parameters: CDRWParameters | None = None,
    delta_hint: float | None = None,
) -> CommunityResult:
    """Detect the community containing ``seed_vertex``.

    Routes through the ``"scalar"`` backend of :mod:`repro.api` with an
    explicit one-seed list; the output is identical to the pre-registry
    implementation.

    Parameters
    ----------
    graph:
        The input graph.
    seed_vertex:
        The seed ``s`` whose community is to be found.
    parameters:
        Algorithm parameters; defaults to the paper's values.
    delta_hint:
        Optional externally-known conductance ``Φ_G`` used for the stopping
        parameter δ when ``parameters.delta`` is not set.  The paper assumes
        ``Φ_G`` is given as input or computed by a separate distributed
        algorithm; experiments pass the analytic PPM conductance here.

    Returns
    -------
    CommunityResult
        The detected community together with the per-step trace.
    """
    from ..api import RunConfig, detect

    report = detect(
        graph,
        backend="scalar",
        params=parameters,
        delta_hint=delta_hint,
        config=RunConfig(seeds=(seed_vertex,)),
    )
    return report.detection.communities[0]


def _detect_community_impl(
    graph: Graph,
    seed_vertex: int,
    parameters: CDRWParameters | None = None,
    delta_hint: float | None = None,
    *,
    capture_history: bool = True,
) -> CommunityResult:
    """The single-seed detection the ``"scalar"`` backend executes.

    ``capture_history=False`` skips accumulating the per-step
    :class:`LargestMixingSet` trace entirely (the result's ``history`` is
    empty); the detected community, walk length, stop reason and δ are
    unchanged — the stopping rule consumes each step's mixing set directly,
    never the accumulated list.
    """
    if seed_vertex not in graph:
        raise AlgorithmError(f"seed vertex {seed_vertex} is not a vertex of {graph!r}")
    if graph.num_edges == 0:
        # An isolated seed trivially forms its own community.
        return CommunityResult(
            seed=seed_vertex,
            community=frozenset({seed_vertex}),
            walk_length=0,
            history=(),
            stop_reason="graph has no edges",
            delta=0.0,
        )
    parameters = parameters or CDRWParameters()

    delta = parameters.resolve_delta(graph, delta_hint)
    initial_size = parameters.resolve_initial_size(graph)
    max_walk_length = parameters.resolve_max_walk_length(graph)

    search = BatchedMixingSetSearch.from_parameters(graph, parameters, initial_size)
    stopping = GrowthStoppingRule(delta=delta)
    walk = WalkDistribution(graph, seed_vertex, lazy=parameters.lazy_walk)

    history: list[LargestMixingSet] = []
    last_found: LargestMixingSet | None = None
    stop_reason = "walk length budget exhausted"
    stopped_at = max_walk_length

    for length in range(1, max_walk_length + 1):
        walk.step()
        current = search.largest_mixing_sets(walk.probabilities()[:, None], length)[0]
        if capture_history:
            history.append(current)
        if current.found:
            last_found = current
        decision = stopping.observe(current)
        if decision.should_stop and decision.community is not None:
            community_set = decision.community
            stop_reason = decision.reason
            stopped_at = length
            return CommunityResult(
                seed=seed_vertex,
                community=_ensure_seed(community_set.members, seed_vertex),
                walk_length=stopped_at,
                history=tuple(history),
                stop_reason=stop_reason,
                delta=delta,
            )

    # Budget exhausted without triggering the growth rule (e.g. very small
    # graphs or overly tight budgets): report the last mixing set found, or
    # the seed alone if none was ever found.
    if last_found is not None:
        members = _ensure_seed(last_found.members, seed_vertex)
    else:
        members = frozenset({seed_vertex})
        stop_reason = "no mixing set found within the walk budget"
    return CommunityResult(
        seed=seed_vertex,
        community=members,
        walk_length=stopped_at,
        history=tuple(history),
        stop_reason=stop_reason,
        delta=delta,
    )


def detect_communities(
    graph: Graph,
    parameters: CDRWParameters | None = None,
    delta_hint: float | None = None,
    seed: int | np.random.Generator | None = None,
    max_seeds: int | None = None,
) -> DetectionResult:
    """Detect all communities of ``graph`` with the pool loop of Algorithm 1.

    Routes through the ``"scalar"`` backend of :mod:`repro.api`; the RNG
    draw sequence and every detected community are identical to the
    pre-registry implementation.

    Parameters
    ----------
    seed:
        Random seed (or generator) controlling the order in which seed
        vertices are drawn from the pool.
    max_seeds:
        Optional cap on the number of seeds processed, useful when only the
        dominant communities are of interest; ``None`` runs until the pool is
        empty (the paper's behaviour).

    Returns
    -------
    DetectionResult
        One :class:`CommunityResult` per processed seed.  Detected communities
        may overlap (each detection sees the whole graph); only the seed pool
        shrinks, exactly as in Algorithm 1.
    """
    from ..api import RunConfig, detect

    report = detect(
        graph,
        backend="scalar",
        params=parameters,
        delta_hint=delta_hint,
        config=RunConfig(seed=seed, max_seeds=max_seeds),
    )
    return report.detection


def _detect_communities_impl(
    graph: Graph,
    parameters: CDRWParameters | None = None,
    delta_hint: float | None = None,
    seed: int | np.random.Generator | None = None,
    max_seeds: int | None = None,
    *,
    capture_history: bool = True,
) -> DetectionResult:
    """The pool loop the ``"scalar"`` backend executes."""
    parameters = parameters or CDRWParameters()
    rng = as_rng(seed)

    # The pool of not-yet-assigned vertices is a boolean membership array:
    # drawing a seed is one O(n) flatnonzero instead of the former
    # O(n log n) `sorted(set)` per draw.  `np.flatnonzero` yields candidates
    # in ascending order, exactly like `sorted(pool)` did, so the RNG draw
    # sequence (and therefore every detected community) is unchanged — this
    # is regression-tested against a recorded seed order.
    pool = np.ones(graph.num_vertices, dtype=bool)
    remaining = graph.num_vertices
    results: list[CommunityResult] = []
    while remaining > 0:
        if max_seeds is not None and len(results) >= max_seeds:
            break
        seed_vertex = int(rng.choice(np.flatnonzero(pool)))
        result = _detect_community_impl(
            graph,
            seed_vertex,
            parameters,
            delta_hint=delta_hint,
            capture_history=capture_history,
        )
        results.append(result)
        remaining -= _remove_detected(pool, result)
    return DetectionResult(num_vertices=graph.num_vertices, communities=tuple(results))


def _remove_detected(pool: np.ndarray, result: CommunityResult) -> int:
    """Clear a detected community (and always its seed) from the pool mask.

    Returns the number of vertices actually removed.  Shared by the
    sequential and batched pool drivers so their bookkeeping cannot diverge —
    the batch_size=1 output-identity guarantee depends on it.
    """
    detected = result.community if result.community else frozenset({result.seed})
    removal = np.fromiter(detected, dtype=np.int64, count=len(detected))
    removed = int(pool[removal].sum())
    pool[removal] = False
    if pool[result.seed]:
        pool[result.seed] = False
        removed += 1
    return removed


def _ensure_seed(members: frozenset[int], seed_vertex: int) -> frozenset[int]:
    """Return ``members`` with the seed vertex included.

    The localized ranking can, in degenerate cases, exclude the seed itself
    (its probability stays above the per-vertex target while mass has spread);
    the detected community must still contain the seed by definition.
    """
    if seed_vertex in members:
        return members
    return frozenset(members | {seed_vertex})
