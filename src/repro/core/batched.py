"""Batched multi-seed CDRW execution.

The pool loop of Algorithm 1 runs one full community detection per drawn
seed.  Each detection is independent of the pool state — the community of
``s`` depends only on the graph and ``s`` — so several seeds can share the
expensive part of the work: the per-step walk advance.
:func:`_detect_community_batch_impl` runs ``B`` detections simultaneously on
top of one :class:`~repro.randomwalk.batched.BatchedWalkDistribution` (one
CSR sparse-matrix–matrix product per walk step instead of ``B``
matrix–vector products).  The mixing-set search is batched as well: one
:class:`~repro.core.mixing_set.BatchedMixingSetSearch` call per walk step
evaluates every active column simultaneously (one deviation matrix and one
axis-0 argpartition per candidate size instead of ``B`` sequential scans),
while the per-seed :class:`~repro.core.stopping.GrowthStoppingRule` stays
scalar and untouched.

Because the batched walk columns are bit-identical to scalar walks (see
:mod:`repro.randomwalk.batched`), every ``CommunityResult`` produced here is
**identical** to what :func:`repro.core.cdrw._detect_community_impl` returns
for the same seed — same community, same history, same stop reason.  Walks
whose detection stops early are dropped from the batch (``retain``), so a
batch costs no more steps than its slowest member.

:func:`_detect_communities_batched_impl` is what the ``"batched"`` backend
of :func:`repro.api.detect` executes.  It supports two modes:

* **explicit seeds** — process a caller-fixed seed list in batches; the
  result is identical to detecting each listed seed on its own;
* **pool mode** — :func:`~repro.core.cdrw._pool_loop` draws up to
  ``batch_size`` seeds per round from the pool; with ``batch_size=1`` the
  RNG draw sequence and the output are identical to the ``"scalar"``
  backend's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import DTypeLike

from ..exceptions import AlgorithmError
from ..graphs.graph import Graph
from ..randomwalk.batched import BatchedWalkDistribution
from ..utils import as_rng
from .cdrw import _edgeless_community, _ensure_seed, _pool_loop
from .mixing_set import BatchedMixingSetSearch, LargestMixingSet
from .parameters import CDRWParameters
from .result import CommunityResult, DetectionResult
from .stopping import GrowthStoppingRule

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__: list[str] = []


def _detect_community_batch_impl(
    graph: Graph,
    seeds: list[int] | tuple[int, ...] | np.ndarray,
    parameters: CDRWParameters | None = None,
    delta_hint: float | None = None,
    *,
    capture_distributions: bool = False,
    workers: int | None = None,
    dtype: DTypeLike = np.float64,
    capture_history: bool = True,
    walk_operator: "sp.csr_matrix | None" = None,
    search: BatchedMixingSetSearch | None = None,
) -> list[CommunityResult] | tuple[list[CommunityResult], np.ndarray]:
    """The batched multi-seed detection the ``"batched"`` backend executes.

    ``dtype`` selects the mixing-set scan precision
    (:class:`~repro.core.mixing_set.BatchedMixingSetSearch`); only the
    default ``float64`` carries the exactness guarantee.

    ``capture_history=False`` skips accumulating the per-step mixing-set
    traces (each result's ``history`` is empty); communities, walk lengths,
    stop reasons and δ are unchanged — the stopping rules consume each
    step's mixing set directly, never the accumulated lists.

    ``walk_operator`` / ``search`` let a resident session inject the cached
    transition operator and batched search instance so repeated calls skip
    their construction; both are deterministic functions of ``(graph,
    parameters, workers, dtype)``, so injecting them changes no float.
    """
    seed_list = [int(s) for s in seeds]
    if not seed_list:
        if capture_distributions:
            return [], np.zeros((graph.num_vertices, 0), dtype=np.float64)
        return []
    for seed_vertex in seed_list:
        if seed_vertex not in graph:
            raise AlgorithmError(f"seed vertex {seed_vertex} is not a vertex of {graph!r}")
    if graph.num_edges == 0:
        results = [_edgeless_community(seed_vertex) for seed_vertex in seed_list]
        if capture_distributions:
            finals = np.zeros((graph.num_vertices, len(seed_list)), dtype=np.float64)
            finals[seed_list, np.arange(len(seed_list))] = 1.0
            return results, finals
        return results
    parameters = parameters or CDRWParameters()

    delta = parameters.resolve_delta(graph, delta_hint)
    initial_size = parameters.resolve_initial_size(graph)
    max_walk_length = parameters.resolve_max_walk_length(graph)

    # The search is stateless across walk lengths, so one instance serves the
    # whole batch (and, via injection, a whole session); the stopping rule is
    # stateful and stays per-seed.
    if search is None:
        search = BatchedMixingSetSearch.from_parameters(
            graph, parameters, initial_size, workers=workers, dtype=dtype
        )
    stoppings = [GrowthStoppingRule(delta=delta) for _ in seed_list]
    walk = BatchedWalkDistribution(
        graph, seed_list, lazy=parameters.lazy_walk, operator=walk_operator
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
    results = [finished[index] for index in range(num_seeds)]
    if finals is not None:
        return results, finals
    return results


def _detect_communities_batched_impl(
    graph: Graph,
    parameters: CDRWParameters | None = None,
    delta_hint: float | None = None,
    seed: int | np.random.Generator | None = None,
    max_seeds: int | None = None,
    batch_size: int = 8,
    seeds: list[int] | tuple[int, ...] | np.ndarray | None = None,
    workers: int | None = None,
    dtype: DTypeLike = np.float64,
    capture_distributions: bool = False,
    capture_history: bool = True,
    walk_operator: "sp.csr_matrix | None" = None,
    search: BatchedMixingSetSearch | None = None,
) -> DetectionResult | tuple[DetectionResult, np.ndarray]:
    """The batched pool loop the ``"batched"`` backend executes.

    With ``capture_distributions`` the return value is ``(detection,
    finals)`` where ``finals[:, i]`` is the final walk distribution of
    ``detection.communities[i]`` (see :func:`_detect_community_batch_impl`).
    ``capture_history`` / ``walk_operator`` / ``search`` are forwarded to
    every :func:`_detect_community_batch_impl` round unchanged.
    """
    if batch_size < 1:
        raise AlgorithmError(f"batch_size must be >= 1, got {batch_size}")
    parameters = parameters or CDRWParameters()
    final_chunks: list[np.ndarray] = []

    def run_batch(batch_seeds: list[int]) -> list[CommunityResult]:
        outcome = _detect_community_batch_impl(
            graph,
            batch_seeds,
            parameters,
            delta_hint,
            capture_distributions=capture_distributions,
            workers=workers,
            dtype=dtype,
            capture_history=capture_history,
            walk_operator=walk_operator,
            search=search,
        )
        if capture_distributions:
            batch_results, batch_finals = outcome
            final_chunks.append(batch_finals)
            return batch_results
        return outcome

    if seeds is not None:
        seed_list = [int(s) for s in seeds][:max_seeds]
        results: list[CommunityResult] = []
        for start in range(0, len(seed_list), batch_size):
            results.extend(run_batch(seed_list[start:start + batch_size]))
        return _bundle_batched_result(
            graph, results, final_chunks, capture_distributions
        )

    results = _pool_loop(graph, as_rng(seed), batch_size, max_seeds, run_batch)
    return _bundle_batched_result(graph, results, final_chunks, capture_distributions)


def _bundle_batched_result(
    graph: Graph,
    results: list[CommunityResult],
    final_chunks: list[np.ndarray],
    capture_distributions: bool,
) -> DetectionResult | tuple[DetectionResult, np.ndarray]:
    detection = DetectionResult(
        num_vertices=graph.num_vertices, communities=tuple(results)
    )
    if not capture_distributions:
        return detection
    if final_chunks:
        finals = np.hstack(final_chunks)
    else:
        finals = np.zeros((graph.num_vertices, 0), dtype=np.float64)
    return detection, finals
