"""The plain one-walk-per-seed CDRW loop: the reference for the identity suites.

Every centralized backend runs the batched driver
(:func:`repro.core.batched._detect_community_batch_impl`), the ``"scalar"``
backend included (at width 1).  This module keeps Algorithm 1's inner body
(lines 5-20) in its most literal form — one
:class:`~repro.randomwalk.distribution.WalkDistribution` per seed, one
width-1 search per step, the growth rule after each — so "identical to a
scalar walk" stays a claim checked against an independent loop rather
than against the driver itself.
"""

from __future__ import annotations

from repro.core.cdrw import _edgeless_community, _ensure_seed
from repro.core.mixing_set import BatchedMixingSetSearch, LargestMixingSet
from repro.core.parameters import CDRWParameters
from repro.core.result import CommunityResult
from repro.core.stopping import GrowthStoppingRule
from repro.exceptions import AlgorithmError
from repro.graphs.graph import Graph
from repro.randomwalk.distribution import WalkDistribution


def detect_community_oracle(
    graph: Graph,
    seed_vertex: int,
    parameters: CDRWParameters | None = None,
    delta_hint: float | None = None,
    *,
    capture_history: bool = True,
) -> CommunityResult:
    """The community of ``seed_vertex``, found on one scalar walk."""
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
    for length in range(1, max_walk_length + 1):
        walk.step()
        current = search.largest_mixing_sets(walk.probabilities()[:, None], length)[0]
        if capture_history:
            history.append(current)
        if current.found:
            last_found = current
        decision = stopping.observe(current)
        if decision.should_stop and decision.community is not None:
            return CommunityResult(
                seed=seed_vertex,
                community=_ensure_seed(decision.community.members, seed_vertex),
                walk_length=length,
                history=tuple(history),
                stop_reason=decision.reason,
                delta=delta,
            )

    # Budget exhausted without triggering the growth rule: report the last
    # mixing set found, or the seed alone if none was ever found.
    if last_found is not None:
        members = _ensure_seed(last_found.members, seed_vertex)
        stop_reason = "walk length budget exhausted"
    else:
        members = frozenset({seed_vertex})
        stop_reason = "no mixing set found within the walk budget"
    return CommunityResult(
        seed=seed_vertex,
        community=members,
        walk_length=max_walk_length,
        history=tuple(history),
        stop_reason=stop_reason,
        delta=delta,
    )
