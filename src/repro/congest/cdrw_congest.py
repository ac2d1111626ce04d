"""CDRW in the CONGEST model: the distributed implementation of Algorithm 1.

The node programs of Algorithm 1 are executed on a
:class:`~repro.congest.network.CongestNetwork`, charging every communication
round and every message:

1. a BFS tree of depth ``O(log n)`` is flooded from the seed (line 5);
2. each walk step is one flooding round in which every vertex holding
   probability mass sends ``p_{ℓ-1}(u)/d(u)`` to each neighbour (lines 9-11);
3. for every candidate size ``|S|``, each vertex computes its deviation
   ``x_u`` locally and the seed learns the sum of the ``|S|`` smallest values
   through the binary-search selection over the BFS tree (lines 12-17), plus
   one extra convergecast for the probability mass held by the selected
   vertices (the mass condition; README.md, "Deviations from the paper");
4. the growth stopping rule (line 18) is evaluated locally at the seed.

The detected community is identical to the one produced by the centralized
executor in :mod:`repro.core.cdrw` (same arithmetic, same tie-breaking up to
ties among identical deviations); what this module adds is the measured round
and message complexity that Theorems 5 and 6 bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.cdrw import _edgeless_community, _pool_loop
from ..core.mixing_set import LargestMixingSet, deviation_values
from ..core.parameters import CDRWParameters
from ..core.result import CommunityResult, DetectionResult
from ..core.stopping import GrowthStoppingRule
from ..exceptions import SimulationError
from ..graphs.graph import Graph
from ..randomwalk.distribution import WalkDistribution
from ..utils import as_rng, geometric_sizes, linear_sizes
from .aggregation import convergecast, select_k_smallest, tree_edge_count
from .bfs import distributed_bfs, distributed_bfs_counted
from .network import CongestNetwork, CostReport

__all__ = ["CongestCommunityResult", "CongestDetectionResult", "detect_community_congest"]


@dataclass(frozen=True)
class CongestCommunityResult:
    """A detected community together with its measured CONGEST complexity.

    Attributes
    ----------
    community:
        The :class:`~repro.core.result.CommunityResult` (same fields as the
        centralized executor produces).
    cost:
        Rounds and messages consumed detecting this community.
    bfs_depth:
        Depth of the BFS tree built from the seed.
    """

    community: CommunityResult
    cost: CostReport
    bfs_depth: int


@dataclass(frozen=True)
class CongestDetectionResult:
    """All communities detected by the CONGEST execution plus total costs."""

    detection: DetectionResult
    per_community: tuple[CongestCommunityResult, ...]
    total_cost: CostReport


def detect_community_congest(
    graph: Graph,
    seed_vertex: int,
    parameters: CDRWParameters | None = None,
    delta_hint: float | None = None,
    count_only: bool = True,
    network: CongestNetwork | None = None,
) -> CongestCommunityResult:
    """Detect the community of ``seed_vertex`` with full CONGEST cost accounting.

    Parameters
    ----------
    count_only:
        ``True`` (default) executes the identical round schedule without
        materialising per-hop message objects; ``False`` sends every message
        through the bandwidth-checked network (only practical on small
        graphs — used by the equivalence tests).
    network:
        An existing network to charge costs to; a fresh one is created when
        omitted.
    """
    if seed_vertex not in graph:
        raise SimulationError(f"seed vertex {seed_vertex} is not a vertex of {graph!r}")
    if graph.num_edges == 0:
        return CongestCommunityResult(
            community=_edgeless_community(seed_vertex),
            cost=CostReport(rounds=0, messages=0),
            bfs_depth=0,
        )
    parameters = parameters or CDRWParameters()
    network = network or CongestNetwork(graph)
    start_cost = network.cost_report()

    delta = parameters.resolve_delta(graph, delta_hint)
    initial_size = parameters.resolve_initial_size(graph)
    max_walk_length = parameters.resolve_max_walk_length(graph)
    threshold = parameters.mixing_threshold
    min_mass = parameters.min_mass
    if min_mass is None:
        min_mass = max(0.0, 1.0 - 2.0 * threshold)

    # Line 5: BFS tree of depth O(log n) from the seed.
    bfs = distributed_bfs_counted if count_only else distributed_bfs
    tree = bfs(network, seed_vertex, max_depth=max_walk_length)
    reached = tree.reached()
    degrees = graph.degrees()

    if parameters.size_schedule == "geometric":
        sizes = geometric_sizes(
            min(initial_size, len(reached)), len(reached), parameters.growth_factor
        )
    else:
        sizes = linear_sizes(min(initial_size, len(reached)), len(reached))

    walk = WalkDistribution(graph, seed_vertex, lazy=parameters.lazy_walk)
    stopping = GrowthStoppingRule(delta=delta)
    history: list[LargestMixingSet] = []
    last_found: LargestMixingSet | None = None
    stop_reason = "walk length budget exhausted"
    stopped_at = max_walk_length
    final_members: frozenset[int] | None = None

    for length in range(1, max_walk_length + 1):
        # Lines 9-11: one flooding round advances the distribution.  Every
        # vertex currently holding probability sends one message per
        # incident edge.
        active = walk.support()
        network.charge_rounds(1)
        network.charge_messages("probability", int(degrees[active].sum()))
        walk.step()
        distribution = walk.probabilities()

        # Lines 12-17: largest mixing set via the tree-based selection.
        best: LargestMixingSet | None = None
        examined = 0
        for size in sizes:
            examined += 1
            deviations = deviation_values(graph, distribution, size)
            selected, deficit, _ = select_k_smallest(
                network, tree, deviations, size, kind="select", count_only=count_only
            )
            # One extra convergecast for the probability mass of the selected
            # vertices (the mass condition).
            mass_values = np.zeros(graph.num_vertices, dtype=np.float64)
            mass_values[selected] = distribution[selected]
            mass = convergecast(
                network, tree, mass_values, combine=lambda a, b: a + b,
                kind="mass", count_only=count_only,
            )
            if deficit < threshold and mass >= min_mass:
                best = LargestMixingSet(
                    walk_length=length,
                    size=size,
                    members=frozenset(int(v) for v in selected),
                    deficit=deficit,
                    mass=mass,
                    sizes_examined=examined,
                )
            elif deficit >= threshold and parameters.stop_at_first_failure:
                break
        current = best if best is not None else LargestMixingSet(
            walk_length=length, size=0, members=frozenset(), deficit=0.0, mass=0.0,
            sizes_examined=examined,
        )
        history.append(current)
        if current.found:
            last_found = current

        decision = stopping.observe(current)
        if decision.should_stop and decision.community is not None:
            final_members = decision.community.members
            stop_reason = decision.reason
            stopped_at = length
            break

    if final_members is None:
        if last_found is not None:
            final_members = last_found.members
        else:
            final_members = frozenset({seed_vertex})
            stop_reason = "no mixing set found within the walk budget"
    if seed_vertex not in final_members:
        final_members = frozenset(final_members | {seed_vertex})

    community = CommunityResult(
        seed=seed_vertex,
        community=final_members,
        walk_length=stopped_at,
        history=tuple(history),
        stop_reason=stop_reason,
        delta=delta,
    )
    end_cost = network.cost_report()
    cost = CostReport(
        rounds=end_cost.rounds - start_cost.rounds,
        messages=end_cost.messages - start_cost.messages,
        messages_by_kind={
            kind: end_cost.messages_by_kind.get(kind, 0) - start_cost.messages_by_kind.get(kind, 0)
            for kind in end_cost.messages_by_kind
        },
    )
    return CongestCommunityResult(community=community, cost=cost, bfs_depth=tree.depth())


def _detect_communities_congest_impl(
    graph: Graph,
    parameters: CDRWParameters | None = None,
    delta_hint: float | None = None,
    seed: int | np.random.Generator | None = None,
    max_seeds: int | None = None,
    count_only: bool = True,
    seeds: tuple[int, ...] | None = None,
) -> CongestDetectionResult:
    """The pool loop of Algorithm 1 in the CONGEST model (``"congest"`` backend).

    Seeds are drawn by the shared :func:`~repro.core.cdrw._pool_loop` at
    width 1, or taken from ``seeds`` in order; every detection is charged to
    one shared network, so the total cost corresponds to Theorem 6 (all
    ``r`` communities detected one by one).
    """
    if graph.num_vertices == 0 and not seeds:
        # An empty pool: nothing to detect, nothing to charge.
        return CongestDetectionResult(
            detection=DetectionResult(num_vertices=0, communities=()),
            per_community=(),
            total_cost=CostReport(rounds=0, messages=0),
        )
    network = CongestNetwork(graph)
    per_community: list[CongestCommunityResult] = []

    def run_batch(batch_seeds: list[int]) -> list[CommunityResult]:
        nonlocal delta_hint
        communities = []
        for seed_vertex in batch_seeds:
            outcome = detect_community_congest(
                graph,
                seed_vertex,
                parameters,
                delta_hint=delta_hint,
                count_only=count_only,
                network=network,
            )
            per_community.append(outcome)
            communities.append(outcome.community)
            if graph.num_edges > 0:
                # The first detection resolved δ; feed it back as the hint
                # (resolve_delta is idempotent on its own output), so the
                # spectral estimate runs once per call, not once per seed.
                delta_hint = outcome.community.delta
        return communities

    if seeds is not None:
        results = run_batch(list(seeds)[:max_seeds])
    else:
        results = _pool_loop(graph, as_rng(seed), 1, max_seeds, run_batch)
    detection = DetectionResult(num_vertices=graph.num_vertices, communities=tuple(results))
    return CongestDetectionResult(
        detection=detection,
        per_community=tuple(per_community),
        total_cost=network.cost_report(),
    )
