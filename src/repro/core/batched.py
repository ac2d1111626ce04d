"""Batched multi-seed CDRW execution.

The sequential pool loop of :func:`repro.core.cdrw.detect_communities` runs
one full community detection per drawn seed.  Each detection is independent
of the pool state — ``detect_community(graph, s)`` depends only on the graph
and ``s`` — so several seeds can share the expensive part of the work: the
per-step walk advance.  :func:`detect_community_batch` runs ``B`` detections
simultaneously on top of one
:class:`~repro.randomwalk.batched.BatchedWalkDistribution` (one CSR
sparse-matrix–matrix product per walk step instead of ``B`` matrix–vector
products).  The mixing-set search is batched as well: one
:class:`~repro.core.mixing_set.BatchedMixingSetSearch` call per walk step
evaluates every active column simultaneously (one deviation matrix and one
axis-0 argpartition per candidate size instead of ``B`` sequential scans),
while the per-seed :class:`~repro.core.stopping.GrowthStoppingRule` stays
scalar and untouched.

Because the batched walk columns are bit-identical to scalar walks (see
:mod:`repro.randomwalk.batched`), every ``CommunityResult`` produced here is
**identical** to what :func:`repro.core.cdrw.detect_community` returns for
the same seed — same community, same history, same stop reason.  Walks whose
detection stops early are dropped from the batch (``retain``), so a batch
costs no more steps than its slowest member.

:func:`detect_communities_batched` is the pool-driver counterpart.  It keeps
the not-yet-assigned pool as a boolean membership array and supports two
modes:

* **explicit seeds** — process a caller-fixed seed list in batches; the
  result is identical to mapping ``detect_community`` over the list;
* **pool mode** — draw up to ``batch_size`` seeds per round from the pool.
  Draws within one round exclude the seeds already drawn in that round but
  (necessarily) not their still-unknown communities; with ``batch_size=1``
  the RNG draw sequence and the output are identical to the sequential
  :func:`~repro.core.cdrw.detect_communities`.

Both public functions are thin shims over the ``"batched"`` backend of the
unified detection engine (:mod:`repro.api`); the implementations live in the
module-private ``_impl`` functions the registry calls, with outputs
identical to the pre-registry behaviour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np
from numpy.typing import DTypeLike

from ..exceptions import AlgorithmError
from ..graphs.graph import Graph
from ..randomwalk.batched import BatchedWalkDistribution
from ..utils import as_rng
from .cdrw import _ensure_seed, _remove_detected
from .mixing_set import BatchedMixingSetSearch, LargestMixingSet
from .parameters import CDRWParameters
from .result import CommunityResult, DetectionResult
from .stopping import GrowthStoppingRule

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["detect_community_batch", "detect_communities_batched"]


def detect_community_batch(
    graph: Graph,
    seeds: list[int] | tuple[int, ...] | np.ndarray,
    parameters: CDRWParameters | None = None,
    delta_hint: float | None = None,
    *,
    capture_distributions: bool = False,
    workers: int | None = None,
) -> list[CommunityResult] | tuple[list[CommunityResult], np.ndarray]:
    """Detect the community of every seed in ``seeds``, sharing one batched walk.

    Returns one :class:`CommunityResult` per seed, in input order, identical
    to ``[detect_community(graph, s, parameters, delta_hint) for s in seeds]``
    (asserted by ``tests/test_batched_detection.py``).  Duplicate seeds are
    allowed and produce duplicate results.

    When ``capture_distributions`` is true, returns ``(results, matrix)``
    where ``matrix`` is the ``(n, len(seeds))`` array holding, per seed, the
    walk distribution at the step its detection stopped (the seed's one-hot
    vector for the edgeless fast path).  The parallel driver uses these to
    resolve conflicts between overlapping communities without re-running any
    walk.

    ``workers`` selects the thread count of the lane-blocked mixing-set
    search (``None`` → the ``REPRO_WORKERS`` environment override, default
    serial; ``0`` → all cores); the walk step always runs on the calling
    thread.  The search is bit-identical per lane for every value, so the
    detected communities never depend on it.
    """
    seed_tuple = tuple(int(s) for s in seeds)
    if not seed_tuple:
        if capture_distributions:
            return [], np.zeros((graph.num_vertices, 0), dtype=np.float64)
        return []
    from ..api import RunConfig, detect

    report = detect(
        graph,
        backend="batched",
        params=parameters,
        delta_hint=delta_hint,
        config=RunConfig(
            seeds=seed_tuple,
            batch_size=len(seed_tuple),
            workers=workers,
            capture_distributions=capture_distributions,
        ),
    )
    results = list(report.detection.communities)
    if capture_distributions:
        finals = report.native_result
        if finals is None:
            # In-memory runs carry the raw matrix as the native result; a
            # report that lost it (e.g. rebuilt from JSON) still rebuilds
            # the (n, len(seeds)) column layout exactly from the artefact
            # (`ndarray.tolist()` round-trips the same doubles).
            finals = np.ascontiguousarray(
                np.array(
                    report.artifacts["final_distributions"], dtype=np.float64
                )
                .reshape(len(results), graph.num_vertices)
                .T
            )
        return results, finals
    return results


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
        # Isolated seeds trivially form their own communities (scalar fast path).
        results = [
            CommunityResult(
                seed=seed_vertex,
                community=frozenset({seed_vertex}),
                walk_length=0,
                history=(),
                stop_reason="graph has no edges",
                delta=0.0,
            )
            for seed_vertex in seed_list
        ]
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


def detect_communities_batched(
    graph: Graph,
    parameters: CDRWParameters | None = None,
    delta_hint: float | None = None,
    seed: int | np.random.Generator | None = None,
    max_seeds: int | None = None,
    batch_size: int = 8,
    seeds: list[int] | tuple[int, ...] | np.ndarray | None = None,
    workers: int | None = None,
) -> DetectionResult:
    """Run the pool loop of Algorithm 1 with batched multi-seed detection.

    Parameters
    ----------
    seed:
        Random seed (or generator) controlling pool draws (pool mode only).
    max_seeds:
        Optional cap on the number of seeds processed.
    batch_size:
        How many seeds are detected per batched pass.  ``1`` reproduces the
        sequential :func:`~repro.core.cdrw.detect_communities` exactly
        (identical RNG draws and communities).
    seeds:
        Optional explicit seed vertices.  When given, the pool and ``seed``
        are ignored and the listed seeds are processed in order — identical
        output to a sequential loop of ``detect_community`` over the list.
    workers:
        Thread count for the batched mixing-set search (see
        :func:`detect_community_batch`); results are identical for every
        value.

    Notes
    -----
    In pool mode with ``batch_size > 1`` the draws inside one round cannot
    see the communities of the other seeds in the same round (they are being
    detected simultaneously), so the drawn seed sequence differs from the
    sequential loop's; each individual result is still exactly what the
    sequential algorithm would report for that seed.
    """
    from ..api import RunConfig, detect

    report = detect(
        graph,
        backend="batched",
        params=parameters,
        delta_hint=delta_hint,
        config=RunConfig(
            seed=seed,
            max_seeds=max_seeds,
            batch_size=batch_size,
            seeds=None if seeds is None else tuple(int(s) for s in seeds),
            workers=workers,
        ),
    )
    return report.detection


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
    ``detection.communities[i]`` (see :func:`detect_community_batch`).
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
        seed_list = [int(s) for s in seeds]
        if max_seeds is not None:
            seed_list = seed_list[:max_seeds]
        results: list[CommunityResult] = []
        for start in range(0, len(seed_list), batch_size):
            results.extend(run_batch(seed_list[start:start + batch_size]))
        return _bundle_batched_result(
            graph, results, final_chunks, capture_distributions
        )

    results = _pool_loop(graph, as_rng(seed), batch_size, max_seeds, run_batch)
    return _bundle_batched_result(graph, results, final_chunks, capture_distributions)


def _pool_loop(
    graph: Graph,
    rng: np.random.Generator,
    batch_size: int,
    max_seeds: int | None,
    run_batch: Callable[[list[int]], list[CommunityResult]],
) -> list[CommunityResult]:
    """Algorithm 1's pool loop, batched: draw up to ``batch_size`` seeds per round.

    ``run_batch(round_seeds)`` executes one round and returns its
    :class:`CommunityResult` list in seed order.  This single definition
    serves both execution tiers — the thread tier runs the batch in-process,
    the process tier (:mod:`repro.execution_process`) shards it across the
    worker pool — so the drawn seed sequence (and with it the cross-tier
    identity guarantee) cannot diverge between them.  The draws use a
    boolean membership mask exactly like the sequential pool loop of
    :mod:`repro.core.cdrw`; with ``batch_size=1`` the draw sequence is
    identical to it.
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
