"""Parallel (multi-seed) CDRW — the extension sketched in the paper's conclusion.

The paper notes that "our algorithm can also be extended to find communities
even faster (by finding communities in parallel), assuming we know an
(estimate) of r".  This module implements that extension:

1. draw ``r`` seed vertices (optionally spread out so that no two seeds are
   within a small hop distance of each other, which makes it likely that the
   seeds land in distinct blocks),
2. run the ``r`` detections simultaneously on one shared batched walk
   (:func:`repro.core.batched._detect_community_batch_impl`): one sparse
   matrix–matrix product and one batched mixing-set search per walk step
   instead of ``r`` independent scalar runs — an ``r``-fold reduction of
   redundant walk work that mirrors the distributed round-complexity saving,
   while each per-seed result stays identical to a detection of that seed
   alone,
3. resolve conflicts: when two detected communities overlap heavily they were
   seeded in the same block, so the duplicates are merged (the earlier seed
   survives); every vertex still claimed by multiple *surviving* communities
   is then assigned to the one whose seed's final walk distribution gives it
   the highest probability (ties favour the earlier survivor; a surviving
   community always keeps its own seed).  The final distributions are already
   available from the shared batch, so resolution costs no extra walk steps,
   and the returned communities are pairwise disjoint.

The ``"parallel"`` backend of :func:`repro.api.detect` runs these steps
(``RunConfig(num_communities=r, seed_min_distance=...,
overlap_merge_threshold=...)``): step 1 and step 3 in the calling process,
step 2 on the thread or the process tier.  Explicit
``RunConfig(seeds=...)`` replace step 1's draw, in the given order.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..exceptions import AlgorithmError
from ..graphs.graph import Graph
from ..graphs.traversal import bfs_tree
from ..utils import as_rng
from .result import CommunityResult

__all__ = ["select_spread_seeds"]


def select_spread_seeds(
    graph: Graph,
    count: int,
    min_distance: int = 2,
    seed: int | np.random.Generator | None = None,
) -> list[int]:
    """Pick ``count`` seed vertices pairwise at hop distance ≥ ``min_distance``.

    Seeds are drawn uniformly from the vertices that still satisfy the
    spacing constraint (every draw is productive — no rejection sampling
    burning attempts on already-blocked vertices), each draw blocking the
    BFS ball around its pick, until ``count`` seeds are chosen or no valid
    vertex remains; only then is the constraint relaxed to arbitrary
    unchosen vertices.  Spacing violations therefore happen only when no
    valid spread seed remains.

    At ``min_distance=0`` no draw blocks any other vertex, so the whole
    selection collapses to a single uniform draw without replacement —
    one ``rng.choice`` call instead of ``count`` full rescans of the
    availability mask (the former path was O(count·n)).  The RNG draw
    sequence of this case differs from the old one-at-a-time loop; the
    pinned expectations in ``tests/test_parallel_detection.py`` were
    refreshed with it deliberately.
    """
    if count < 1:
        raise AlgorithmError(f"seed count must be >= 1, got {count}")
    if count > graph.num_vertices:
        raise AlgorithmError(
            f"cannot pick {count} distinct seeds from {graph.num_vertices} vertices"
        )
    rng = as_rng(seed)
    if min_distance <= 0:
        picks = rng.choice(graph.num_vertices, size=count, replace=False)
        return [int(v) for v in picks]

    chosen: list[int] = []
    available = np.ones(graph.num_vertices, dtype=bool)
    while len(chosen) < count:
        candidates = np.flatnonzero(available)
        if candidates.size == 0:
            break
        candidate = int(rng.choice(candidates))
        chosen.append(candidate)
        # The depth-(min_distance-1) ball includes the candidate itself
        # (depth 0), so this blocks the pick and its too-close neighbours.
        nearby = bfs_tree(graph, candidate, max_depth=min_distance - 1)
        available[nearby.reached()] = False
    if len(chosen) < count:
        # Only now relax the constraint: no valid spread seed remains.
        chosen_set = set(chosen)
        remaining = [v for v in range(graph.num_vertices) if v not in chosen_set]
        extra = rng.choice(remaining, size=count - len(chosen), replace=False)
        chosen.extend(int(v) for v in extra)
    return chosen


def _merge_and_resolve(
    raw_results: list[CommunityResult],
    distributions: np.ndarray,
    overlap_merge_threshold: float,
) -> list[CommunityResult]:
    """Step 3 of the parallel driver: duplicate merge, then overlap resolution.

    The thread and process tiers both hand the raw per-seed batch results
    (identical by the batch guarantee) to this one function, so the tiers
    cannot diverge in how conflicts are resolved.
    """
    # Step 2 aftermath: drop duplicates of already-kept blocks (earlier seed
    # survives), remembering each survivor's index into the batch.
    survivors: list[int] = []
    for index, result in enumerate(raw_results):
        duplicate = any(
            _jaccard(result.community, raw_results[kept].community)
            >= overlap_merge_threshold
            for kept in survivors
        )
        if not duplicate:
            survivors.append(index)

    return _resolve_overlaps(raw_results, survivors, distributions)


def _resolve_overlaps(
    raw_results: list[CommunityResult],
    survivors: list[int],
    distributions: np.ndarray,
) -> list[CommunityResult]:
    """Assign every multiply-claimed vertex to exactly one surviving community.

    A vertex claimed by several survivors goes to the community whose seed's
    final walk distribution gives it the highest probability; ties go to the
    earlier survivor (detection order).  A survivor always keeps its own seed
    vertex regardless of probabilities — the detected community must contain
    its seed by definition.  The result is pairwise disjoint.
    """
    claimants: dict[int, list[int]] = {}
    for position, index in enumerate(survivors):
        for vertex in raw_results[index].community:
            claimants.setdefault(vertex, []).append(position)
    own_seed = {raw_results[index].seed: position for position, index in enumerate(survivors)}

    members = [set(raw_results[index].community) for index in survivors]
    for vertex, positions in claimants.items():
        if len(positions) < 2:
            continue
        if own_seed.get(vertex) in positions:
            winner = own_seed[vertex]
        else:
            winner = max(
                positions,
                key=lambda position: (
                    distributions[vertex, survivors[position]],
                    -position,
                ),
            )
        for position in positions:
            if position != winner:
                members[position].discard(vertex)

    resolved: list[CommunityResult] = []
    for position, index in enumerate(survivors):
        original = raw_results[index]
        community = frozenset(members[position])
        if community == original.community:
            resolved.append(original)
        else:
            resolved.append(replace(original, community=community))
    return resolved


def _jaccard(a: frozenset[int], b: frozenset[int]) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    if union == 0:
        return 0.0
    return len(a & b) / union
