"""CDRW in the k-machine model.

Section III-B of the paper implements CDRW on ``k`` machines by simulating
the CONGEST algorithm: every machine executes the node programs of its home
vertices, and a CONGEST message between vertices with different home machines
becomes one inter-machine message.  This module performs that simulation with
full cost accounting:

* the vertex-to-vertex message pattern of every CONGEST round (BFS flooding,
  probability flooding, tree broadcasts/convergecasts of the mixing-set
  selection) is routed through a :class:`~repro.kmachine.simulator.KMachineNetwork`,
  which charges ``⌈max link load / bandwidth⌉`` k-machine rounds per CONGEST
  round, and
* the detected community is computed with the same arithmetic as the
  centralized executor (:class:`~repro.core.mixing_set.BatchedMixingSetSearch`), so
  accuracy is identical across the three execution models.

Experiments compare the measured k-machine rounds against the Conversion
Theorem prediction ``Õ(M/k² + ΔT/k)`` and the closed-form bound of the paper
(:func:`repro.kmachine.conversion.cdrw_kmachine_round_bound`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.cdrw import _edgeless_community, _pool_loop
from ..core.mixing_set import BatchedMixingSetSearch, LargestMixingSet
from ..core.parameters import CDRWParameters
from ..core.result import CommunityResult, DetectionResult
from ..core.stopping import GrowthStoppingRule
from ..exceptions import MachineError
from ..graphs.graph import Graph
from ..graphs.traversal import bfs_tree
from ..randomwalk.distribution import WalkDistribution
from ..utils import as_rng, ceil_log2
from .partition import RandomVertexPartition
from .simulator import KMachineCost, KMachineNetwork

__all__ = [
    "KMachineCommunityResult",
    "KMachineDetectionResult",
    "detect_community_kmachine",
]


@dataclass(frozen=True)
class KMachineCommunityResult:
    """One detected community plus its measured k-machine cost."""

    community: CommunityResult
    cost: KMachineCost
    num_machines: int


@dataclass(frozen=True)
class KMachineDetectionResult:
    """All detected communities plus the aggregate k-machine cost."""

    detection: DetectionResult
    per_community: tuple[KMachineCommunityResult, ...]
    total_cost: KMachineCost
    num_machines: int


def _route_bfs(network: KMachineNetwork, graph: Graph, tree) -> None:
    """Route the level-synchronous BFS flooding messages of the tree construction."""
    levels: dict[int, list[int]] = {}
    for vertex in tree.reached():
        levels.setdefault(int(tree.distances[vertex]), []).append(int(vertex))
    for depth in sorted(levels)[:-1] if len(levels) > 1 else []:
        frontier = levels[depth]
        sources: list[int] = []
        targets: list[int] = []
        for vertex in frontier:
            neighbors = graph.neighbors(vertex)
            sources.extend([vertex] * len(neighbors))
            targets.extend(int(v) for v in neighbors)
        if sources:
            network.route_congest_round(np.asarray(sources), np.asarray(targets))


def _tree_edge_endpoints(tree) -> tuple[np.ndarray, np.ndarray]:
    """Return the (child, parent) arrays of the BFS tree edges."""
    children = []
    parents = []
    for vertex in tree.reached():
        parent = int(tree.parents[vertex])
        if parent >= 0:
            children.append(int(vertex))
            parents.append(parent)
    return np.asarray(children, dtype=np.int64), np.asarray(parents, dtype=np.int64)


def detect_community_kmachine(
    graph: Graph,
    seed_vertex: int,
    num_machines: int,
    parameters: CDRWParameters | None = None,
    delta_hint: float | None = None,
    partition: RandomVertexPartition | None = None,
    partition_seed: int | None = None,
    network: KMachineNetwork | None = None,
) -> KMachineCommunityResult:
    """Detect the community of ``seed_vertex`` on ``num_machines`` machines.

    A fresh random vertex partition is drawn unless one is supplied; passing
    an existing :class:`KMachineNetwork` accumulates costs across calls (used
    by the all-communities driver).
    """
    if seed_vertex not in graph:
        raise MachineError(f"seed vertex {seed_vertex} is not a vertex of {graph!r}")
    parameters = parameters or CDRWParameters()
    if network is None:
        if partition is None:
            partition = RandomVertexPartition(
                graph.num_vertices, num_machines, method="hash", seed=partition_seed
            )
        network = KMachineNetwork(partition)
    elif network.num_machines != num_machines:
        raise MachineError(
            f"supplied network has {network.num_machines} machines, expected {num_machines}"
        )
    if graph.num_edges == 0:
        return KMachineCommunityResult(
            community=_edgeless_community(seed_vertex),
            cost=KMachineCost(
                rounds=0, inter_machine_messages=0, local_messages=0, congest_rounds_routed=0
            ),
            num_machines=network.num_machines,
        )
    start = network.cost()

    delta = parameters.resolve_delta(graph, delta_hint)
    initial_size = parameters.resolve_initial_size(graph)
    max_walk_length = parameters.resolve_max_walk_length(graph)

    # Phase 1: BFS tree from the seed (CONGEST flooding, routed per level).
    tree = bfs_tree(graph, seed_vertex, max_depth=max_walk_length)
    _route_bfs(network, graph, tree)
    tree_children, tree_parents = _tree_edge_endpoints(tree)
    reached_count = len(tree.reached())
    # ceil_log2 keeps the binary-search round charge in integer arithmetic
    # instead of ceiling a float log.
    selection_iterations = max(1, ceil_log2(max(reached_count, 2)))

    search = BatchedMixingSetSearch.from_parameters(graph, parameters, initial_size)
    stopping = GrowthStoppingRule(delta=delta)
    walk = WalkDistribution(graph, seed_vertex, lazy=parameters.lazy_walk)
    degrees = graph.degrees()

    history: list[LargestMixingSet] = []
    last_found: LargestMixingSet | None = None
    final_members: frozenset[int] | None = None
    stop_reason = "walk length budget exhausted"
    stopped_at = max_walk_length

    for length in range(1, max_walk_length + 1):
        # Phase 2: probability flooding — every vertex currently holding mass
        # sends one message per incident edge.
        active = walk.support()
        if len(active):
            sources: list[int] = []
            targets: list[int] = []
            for vertex in active:
                neighbors = graph.neighbors(int(vertex))
                sources.extend([int(vertex)] * len(neighbors))
                targets.extend(int(v) for v in neighbors)
            network.route_congest_round(np.asarray(sources), np.asarray(targets))
        walk.step()

        # Phase 3: mixing-set search.  The community is computed with the
        # shared (centralized) arithmetic; the communication it would have
        # needed — per candidate size, one min/max convergecast, the pivot
        # broadcast/count convergecast iterations, the final qualification
        # broadcast, the selected-sum convergecast and the mass convergecast —
        # is routed over the BFS-tree edges.
        current = search.largest_mixing_sets(walk.probabilities()[:, None], length)[0]
        history.append(current)
        if current.found:
            last_found = current
        sizes_examined = max(1, current.sizes_examined)
        if len(tree_children):
            upward_passes = (selection_iterations + 3) * sizes_examined
            downward_passes = (selection_iterations + 1) * sizes_examined
            network.route_congest_round(tree_children, tree_parents, repeat=upward_passes)
            network.route_congest_round(tree_parents, tree_children, repeat=downward_passes)

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
    end = network.cost()
    cost = KMachineCost(
        rounds=end.rounds - start.rounds,
        inter_machine_messages=end.inter_machine_messages - start.inter_machine_messages,
        local_messages=end.local_messages - start.local_messages,
        congest_rounds_routed=end.congest_rounds_routed - start.congest_rounds_routed,
    )
    return KMachineCommunityResult(
        community=community, cost=cost, num_machines=network.num_machines
    )


def _detect_communities_kmachine_impl(
    graph: Graph,
    num_machines: int,
    parameters: CDRWParameters | None = None,
    delta_hint: float | None = None,
    seed: int | np.random.Generator | None = None,
    partition_seed: int | None = None,
    max_seeds: int | None = None,
    seeds: tuple[int, ...] | None = None,
) -> KMachineDetectionResult:
    """Algorithm 1's pool loop on ``num_machines`` machines (``"kmachine"`` backend).

    Seeds are drawn by the shared :func:`~repro.core.cdrw._pool_loop` at
    width 1, or taken from ``seeds`` in order; every detection is charged to
    one shared network over one random vertex partition.
    """
    partition = RandomVertexPartition(
        graph.num_vertices, num_machines, method="hash", seed=partition_seed
    )
    network = KMachineNetwork(partition)
    per_community: list[KMachineCommunityResult] = []

    def run_batch(batch_seeds: list[int]) -> list[CommunityResult]:
        outcomes = [
            detect_community_kmachine(
                graph,
                seed_vertex,
                num_machines,
                parameters,
                delta_hint=delta_hint,
                network=network,
            )
            for seed_vertex in batch_seeds
        ]
        per_community.extend(outcomes)
        return [outcome.community for outcome in outcomes]

    if seeds is not None:
        results = run_batch(list(seeds)[:max_seeds])
    else:
        results = _pool_loop(graph, as_rng(seed), 1, max_seeds, run_batch)
    detection = DetectionResult(num_vertices=graph.num_vertices, communities=tuple(results))
    return KMachineDetectionResult(
        detection=detection,
        per_community=tuple(per_community),
        total_cost=network.cost(),
        num_machines=num_machines,
    )
