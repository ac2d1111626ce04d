"""CDRW in the k-machine model.

Section III-B of the paper implements CDRW on ``k`` machines by simulating
the CONGEST algorithm: every machine executes the node programs of its home
vertices, and a CONGEST message between vertices with different home machines
becomes one inter-machine message.  The simulation is the shared detection
loop plus a cost model:

* the community is computed by the batch driver every centralized backend
  runs (:func:`repro.core.batched._detect_community_batch_impl`, at width 1),
  so accuracy is identical across the three execution models, and
* the vertex-to-vertex message pattern of every CONGEST round (BFS flooding,
  probability flooding, tree broadcasts/convergecasts of the mixing-set
  selection) is routed through a :class:`~repro.kmachine.simulator.KMachineNetwork`,
  which charges ``⌈max link load / bandwidth⌉`` k-machine rounds per CONGEST
  round.  The BFS is routed before the walk starts; the per-step charges
  are the batch loop's step callback.

Experiments compare the measured k-machine rounds against the Conversion
Theorem prediction ``Õ(M/k² + ΔT/k)`` and the closed-form bound of the paper
(:func:`repro.kmachine.conversion.cdrw_kmachine_round_bound`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.batched import _detect_community_batch_impl
from ..core.cdrw import _pool_loop
from ..core.mixing_set import LargestMixingSet
from ..core.parameters import CDRWParameters
from ..core.prepared import Prepared
from ..core.result import CommunityResult, DetectionResult
from ..exceptions import MachineError
from ..graphs.graph import Graph
from ..graphs.traversal import bfs_tree
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


def _flood(graph: Graph, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return the (source, target) pairs of one message per incident edge of ``vertices``.

    The pattern is read straight from the CSR slices; link loads are counts,
    so the message order does not matter.
    """
    indptr, indices, degrees = graph.csr_arrays()
    counts = degrees[vertices]
    offsets = np.repeat(indptr[vertices] - (np.cumsum(counts) - counts), counts)
    return np.repeat(vertices, counts), indices[offsets + np.arange(len(offsets))]


def _route_bfs(network: KMachineNetwork, graph: Graph, tree) -> None:
    """Route the level-synchronous BFS flooding messages of the tree construction."""
    reached = tree.reached()
    depths = tree.distances[reached]
    for depth in range(int(depths.max())):
        network.route_congest_round(*_flood(graph, reached[depths == depth]))


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
    an existing :class:`KMachineNetwork` accumulates costs across calls.
    """
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
    prepared = Prepared(graph, parameters or CDRWParameters(), delta_hint)
    return _detect_one(prepared, seed_vertex, network)


def _detect_one(
    prepared: Prepared, seed_vertex: int, network: KMachineNetwork
) -> KMachineCommunityResult:
    """Run the shared detection loop for one seed and charge its communication."""
    graph = prepared.graph
    if seed_vertex not in graph:
        raise MachineError(f"seed vertex {seed_vertex} is not a vertex of {graph!r}")
    start = network.cost()

    # Phase 1: BFS tree from the seed (CONGEST flooding, routed per level).
    tree = bfs_tree(graph, seed_vertex, max_depth=prepared.max_walk_length)
    _route_bfs(network, graph, tree)
    reached = tree.reached()
    parents = tree.parents[reached]
    has_parent = parents >= 0
    tree_children, tree_parents = reached[has_parent], parents[has_parent]
    # ceil_log2 keeps the binary-search round charge in integer arithmetic
    # instead of ceiling a float log.
    selection_iterations = max(1, ceil_log2(max(len(reached), 2)))

    def charge(previous: np.ndarray, currents: list[LargestMixingSet]) -> None:
        # Phase 2: probability flooding — every vertex holding mass before
        # the step sends one message per incident edge.
        active = np.flatnonzero(previous[:, 0] > 0)
        if len(active):
            network.route_congest_round(*_flood(graph, active))
        # Phase 3: the mixing-set search.  Per candidate size, one min/max
        # convergecast, the pivot broadcast/count convergecast iterations,
        # the final qualification broadcast, the selected-sum convergecast
        # and the mass convergecast are routed over the BFS-tree edges.
        sizes_examined = max(1, currents[0].sizes_examined)
        if len(tree_children):
            upward_passes = (selection_iterations + 3) * sizes_examined
            downward_passes = (selection_iterations + 1) * sizes_examined
            network.route_congest_round(tree_children, tree_parents, repeat=upward_passes)
            network.route_congest_round(tree_parents, tree_children, repeat=downward_passes)

    (community,), _ = _detect_community_batch_impl(prepared, [seed_vertex], on_step=charge)
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
    width 1, or taken from ``seeds`` in order; every detection reads one
    :class:`~repro.core.prepared.Prepared` context and is charged to one
    shared network over one random vertex partition.
    """
    partition = RandomVertexPartition(
        graph.num_vertices, num_machines, method="hash", seed=partition_seed
    )
    network = KMachineNetwork(partition)
    prepared = Prepared(graph, parameters or CDRWParameters(), delta_hint)
    per_community: list[KMachineCommunityResult] = []

    def run_batch(batch_seeds: list[int]) -> list[CommunityResult]:
        outcomes = [_detect_one(prepared, seed_vertex, network) for seed_vertex in batch_seeds]
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
