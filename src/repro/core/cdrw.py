"""CDRW — Community Detection by Random Walks (Algorithm 1 of the paper).

This module holds the two halves of Algorithm 1 that every CDRW backend of
:func:`repro.api.detect` shares:

* :func:`_detect_community_impl` finds the community containing one seed
  vertex (the inner body, lines 5-20) on one scalar walk; it is what the
  ``"scalar"`` backend runs per seed and the reference the identity suites
  compare every other path against;
* :func:`_pool_loop` is the pool loop (lines 1-4 and 21-23): repeatedly draw
  seeds from the pool of not-yet-assigned vertices, detect their
  communities, and remove the detected vertices from the pool.  The
  ``"scalar"``, ``"congest"`` and ``"kmachine"`` backends run it at width 1;
  the ``"batched"`` backend and the process tier run it at ``batch_size``.

This is the *centralized executor*: it performs exactly the arithmetic the
CONGEST node programs perform (the distribution update of lines 9-11, the
``x_u`` ranking of lines 12-17 and the growth test of line 18) without paying
the cost of simulating individual messages, which keeps the accuracy
experiments of Figures 2-4 fast.  The message-level implementations live in
:mod:`repro.congest.cdrw_congest` and :mod:`repro.kmachine.cdrw_kmachine`;
equivalence on small graphs is covered by integration tests.

For many seeds at once, :mod:`repro.core.batched` runs several detections on
one shared batched walk (one sparse matrix–matrix product per step) and
produces results identical to :func:`_detect_community_impl`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..exceptions import AlgorithmError
from ..graphs.graph import Graph
from ..randomwalk.distribution import WalkDistribution
from .mixing_set import BatchedMixingSetSearch, LargestMixingSet
from .parameters import CDRWParameters
from .result import CommunityResult
from .stopping import GrowthStoppingRule

__all__: list[str] = []


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
        return _edgeless_community(seed_vertex)
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


def _pool_loop(
    graph: Graph,
    rng: np.random.Generator,
    batch_size: int,
    max_seeds: int | None,
    run_batch: Callable[[list[int]], list[CommunityResult]],
) -> list[CommunityResult]:
    """Algorithm 1's pool loop: draw up to ``batch_size`` seeds per round.

    ``run_batch(round_seeds)`` executes one round and returns its
    :class:`CommunityResult` list in seed order.  This single definition
    serves every backend — the scalar, CONGEST and k-machine backends run
    it at width 1, the batched backend runs each round in-process, the
    process tier (:mod:`repro.execution_process`) shards it across the
    worker pool — so the drawn seed sequence (and with it the cross-backend
    identity guarantee) cannot diverge between them.

    The pool is a boolean membership array: drawing a seed is one O(n)
    ``flatnonzero``.  Its candidates must stay in ascending vertex order,
    because the recorded draw sequences in ``tests/test_api.py`` and
    ``tests/test_batched_detection.py`` depend on it.  Draws within one
    round exclude the seeds already drawn in that round but (necessarily)
    not their still-unknown communities; with ``batch_size=1`` every draw
    sees the whole pool state.
    """
    pool = np.ones(graph.num_vertices, dtype=bool)
    remaining = graph.num_vertices
    results: list[CommunityResult] = []
    while remaining > 0:
        if max_seeds is not None and len(results) >= max_seeds:
            break
        width = min(batch_size, remaining)
        if max_seeds is not None:
            width = min(width, max_seeds - len(results))
        round_seeds: list[int] = []
        for _ in range(width):
            candidates = np.flatnonzero(pool)
            if candidates.size == 0:
                break
            drawn = int(rng.choice(candidates))
            round_seeds.append(drawn)
            pool[drawn] = False
            remaining -= 1
        if not round_seeds:
            break
        for result in run_batch(round_seeds):
            results.append(result)
            remaining -= _remove_detected(pool, result)
    return results


def _remove_detected(pool: np.ndarray, result: CommunityResult) -> int:
    """Clear a detected community (and always its seed) from the pool mask.

    Returns the number of vertices actually removed.
    """
    detected = result.community if result.community else frozenset({result.seed})
    removal = np.fromiter(detected, dtype=np.int64, count=len(detected))
    removed = int(pool[removal].sum())
    pool[removal] = False
    if pool[result.seed]:
        pool[result.seed] = False
        removed += 1
    return removed


def _edgeless_community(seed_vertex: int) -> CommunityResult:
    """The community of a seed in a graph with no edges: the seed alone.

    Every CDRW backend returns this without walking or searching (and the
    simulators charge no cost for it): with no edge the walk never leaves
    the seed and no mixing set exists.
    """
    return CommunityResult(
        seed=seed_vertex,
        community=frozenset({seed_vertex}),
        walk_length=0,
        history=(),
        stop_reason="graph has no edges",
        delta=0.0,
    )


def _ensure_seed(members: frozenset[int], seed_vertex: int) -> frozenset[int]:
    """Return ``members`` with the seed vertex included.

    The localized ranking can, in degenerate cases, exclude the seed itself
    (its probability stays above the per-vertex target while mass has spread);
    the detected community must still contain the seed by definition.
    """
    if seed_vertex in members:
        return members
    return frozenset(members | {seed_vertex})
