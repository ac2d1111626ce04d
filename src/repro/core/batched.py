"""Batched multi-seed CDRW execution: the one detection loop of Algorithm 1.

The pool loop of Algorithm 1 runs one full community detection per drawn
seed.  Each detection is independent of the pool state — the community of
``s`` depends only on the graph and ``s`` — so several seeds can share the
expensive part of the work: the per-step walk advance.
:func:`_detect_community_batch_impl` runs ``B`` detections simultaneously on
top of one :class:`~repro.randomwalk.batched.BatchedWalkDistribution` (one
CSR sparse-matrix–matrix product per walk step instead of ``B``
matrix–vector products).  The mixing-set search is batched as well: one
:class:`~repro.core.mixing_set.BatchedMixingSetSearch` call per walk step
evaluates every active column simultaneously, while the per-seed
:class:`~repro.core.stopping.GrowthStoppingRule` stays scalar and untouched.
Walks whose detection stops early are dropped from the batch (``retain``),
so a batch costs no more steps than its slowest member.

This is the only detection loop of the centralized backends: the
``"scalar"`` backend runs it at width 1, the ``"batched"`` and
``"parallel"`` backends run it on the calling thread or inside each
process-tier worker (:mod:`repro.execution_process`).  Every call reads δ,
the walk budget, the operator and the search from one
:class:`~repro.core.prepared.Prepared` context.  Because the batched walk
columns are bit-identical to scalar walks (see
:mod:`repro.randomwalk.batched`), every ``CommunityResult`` is identical to
the plain one-walk-per-seed loop of the paper — ``tests/cdrw_oracle.py``
keeps that loop as the reference the identity suites compare against.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import AlgorithmError
from ..randomwalk.batched import BatchedWalkDistribution
from .cdrw import _edgeless_community, _ensure_seed
from .mixing_set import LargestMixingSet
from .prepared import Prepared
from .result import CommunityResult
from .stopping import GrowthStoppingRule

__all__: list[str] = []


def _detect_community_batch_impl(
    prepared: Prepared,
    seeds: list[int] | tuple[int, ...] | np.ndarray,
    *,
    capture_distributions: bool = False,
    capture_history: bool = True,
) -> tuple[list[CommunityResult], np.ndarray | None]:
    """Detect the community of every seed in ``seeds`` on one shared walk.

    Returns the results in seed order and, with ``capture_distributions``,
    the ``(n, len(seeds))`` matrix of final walk distributions (``None``
    otherwise).

    ``capture_history=False`` skips accumulating the per-step mixing-set
    traces (each result's ``history`` is empty); communities, walk lengths,
    stop reasons and δ are unchanged — the stopping rules consume each
    step's mixing set directly, never the accumulated lists.

    An edgeless graph (or an empty seed list) takes a fast path before
    ``prepared`` is read at all: every seed is its own community and no δ,
    operator or search is built.
    """
    graph = prepared.graph
    seed_list = [int(s) for s in seeds]
    for seed_vertex in seed_list:
        if seed_vertex not in graph:
            raise AlgorithmError(f"seed vertex {seed_vertex} is not a vertex of {graph!r}")
    if graph.num_edges == 0 or not seed_list:
        results = [_edgeless_community(seed_vertex) for seed_vertex in seed_list]
        if not capture_distributions:
            return results, None
        finals = np.zeros((graph.num_vertices, len(seed_list)), dtype=np.float64)
        finals[seed_list, np.arange(len(seed_list))] = 1.0
        return results, finals

    delta = prepared.delta
    max_walk_length = prepared.max_walk_length
    search = prepared.search
    stoppings = [GrowthStoppingRule(delta=delta) for _ in seed_list]
    walk = BatchedWalkDistribution(
        graph, seed_list, lazy=prepared.parameters.lazy_walk, operator=prepared.operator
    )

    num_seeds = len(seed_list)
    histories: list[list[LargestMixingSet]] = [[] for _ in range(num_seeds)]
    last_found: list[LargestMixingSet | None] = [None] * num_seeds
    finished: dict[int, CommunityResult] = {}
    finals = (
        np.zeros((graph.num_vertices, num_seeds), dtype=np.float64)
        if capture_distributions
        else None
    )
    active = list(range(num_seeds))  # walk column c holds seed index active[c]

    for length in range(1, max_walk_length + 1):
        walk.step()
        # One batched search per step evaluates every active column at once.
        currents = search.largest_mixing_sets(walk.probabilities(), length)
        stopped_columns: set[int] = set()
        for column, index in enumerate(active):
            current = currents[column]
            if capture_history:
                histories[index].append(current)
            if current.found:
                last_found[index] = current
            decision = stoppings[index].observe(current)
            if decision.should_stop and decision.community is not None:
                finished[index] = CommunityResult(
                    seed=seed_list[index],
                    community=_ensure_seed(decision.community.members, seed_list[index]),
                    walk_length=length,
                    history=tuple(histories[index]),
                    stop_reason=decision.reason,
                    delta=delta,
                )
                if finals is not None:
                    finals[:, index] = walk.column(column)
                stopped_columns.add(column)
        if stopped_columns:
            keep = [c for c in range(len(active)) if c not in stopped_columns]
            active = [active[c] for c in keep]
            if not active:
                break
            walk.retain(keep)

    # Budget exhausted without triggering the growth rule for the survivors:
    # fall back to the last mixing set found, or the seed alone (scalar rule).
    if active and finals is not None:
        finals[:, active] = walk.columns(range(len(active)))
    for index in active:
        if last_found[index] is not None:
            members = _ensure_seed(last_found[index].members, seed_list[index])
            stop_reason = "walk length budget exhausted"
        else:
            members = frozenset({seed_list[index]})
            stop_reason = "no mixing set found within the walk budget"
        finished[index] = CommunityResult(
            seed=seed_list[index],
            community=members,
            walk_length=max_walk_length,
            history=tuple(histories[index]),
            stop_reason=stop_reason,
            delta=delta,
        )
    return [finished[index] for index in range(num_seeds)], finals
