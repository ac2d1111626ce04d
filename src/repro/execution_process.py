"""Out-of-process execution tier: seed shards on a shared-memory process pool.

The thread tier (:mod:`repro.execution`) scales the batched kernels as far as
scipy/numpy release the GIL; pure-Python portions of the detection loop (the
stopping rule, history bookkeeping, candidate scheduling) stay serialized.
This module is the tier past that limit, mirroring the paper's k-machine
deployment in-process: ``k`` worker *processes*, each running the unchanged
batched detection kernel on its own shard of the seed pool.

The design has three parts:

* **One graph broadcast, zero per-task pickling.**  :class:`SharedGraph`
  copies the CSR arrays (``indptr`` / ``indices`` / ``degrees``) into
  :mod:`multiprocessing.shared_memory` segments once; every worker attaches
  the segments read-only at pool start-up and rebuilds the :class:`Graph`
  through the zero-copy :meth:`~repro.graphs.graph.Graph.from_csr`
  constructor.  Tasks then carry only seed lists and parameters — the graph
  never crosses a pipe.
* **Deterministic sharding.**  A batch of seeds is split into contiguous
  shards with the same :func:`~repro.execution.block_ranges` partition the
  thread tier uses — a pure function of ``(count, workers)``, never of
  timing — and shard results are merged back in shard order.  Every
  per-seed :class:`~repro.core.result.CommunityResult` is *identical* to
  the serial facade's because the batched kernels guarantee per-column
  results independent of batch composition (the PR 1 bit-identical-walk and
  PR 2 exact-search contracts).
* **Parent-side RNG.**  All randomness — pool draws, seed spreading — runs
  in the parent with the exact draw sequence of the serial implementation;
  worker shards are pure functions of ``(graph, seeds, parameters, δ)``
  (the walk is a deterministic power iteration, not a sampled trajectory),
  so no seed state needs to be split across processes and results cannot
  depend on scheduling.  The stopping parameter δ is resolved once in the
  parent and shipped resolved (``resolve_delta`` is idempotent on its own
  output), so workers skip the spectral conductance estimate.

Worker processes run the batched kernels with ``workers=1`` — process-level
parallelism replaces thread-level parallelism rather than multiplying it —
which is bit-identical by the thread tier's own guarantee.

The tier is selected through ``RunConfig(executor="process")`` (or the
``REPRO_EXECUTOR`` environment override) on the ``batched`` and ``parallel``
backends of :mod:`repro.api`; ``tests/test_process_executor.py`` pins the
computed report payload — detections, cost totals, artifacts, serialized
form — against the serial facade at several worker counts (the fields that
describe the run itself — config, wall-clock timings, executor metadata —
naturally differ).
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass, field

import multiprocessing

import numpy as np

from .core.parameters import CDRWParameters
from .core.result import CommunityResult, DetectionResult
from .exceptions import AlgorithmError, ReproError
from .graphs.graph import Graph
from .graphs.storage import AttachedCSR, SharedCSRHandle, SharedCSRStorage
from .utils import as_rng

from .core.batched import _detect_community_batch_impl
from .core.cdrw import _pool_loop
from .core.parallel import _merge_and_resolve, select_spread_seeds
from .execution import block_ranges, resolve_workers

__all__ = [
    "SharedGraph",
    "SharedGraphHandle",
    "AttachedGraph",
    "ProcessGraphPool",
    "ProcessOutcome",
    "detect_batched_process",
    "detect_parallel_process",
]


def _preferred_context() -> multiprocessing.context.BaseContext:
    """Return the ``fork`` context on Linux, ``spawn`` everywhere else.

    Fork keeps worker start-up at a few milliseconds (no interpreter boot,
    no re-import).  It is gated on the platform, not on mere availability:
    macOS *has* fork but CPython made ``spawn`` its default there
    (bpo-33725) because forking after any thread has started — Accelerate's
    BLAS pool from a prior numpy call, or this repo's own shared thread
    pool — can abort the child.  Everything this module ships across the
    process boundary — the handle, the shard tasks, the worker entry points
    — is module-level and picklable, so spawn works unchanged.
    """
    if sys.platform.startswith("linux"):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


# ----------------------------------------------------------------------
# Shared-memory graph broadcast
# ----------------------------------------------------------------------
# The segment machinery lives in the storage layer now
# (:mod:`repro.graphs.storage`): broadcasting a graph is just materializing
# its CSR arrays on the ``shm`` storage backend, which also serves
# ``REPRO_STORAGE=shm`` graph construction.  The historical names are kept
# as aliases so the session and the tests keep reading naturally.
AttachedGraph = AttachedCSR
SharedGraphHandle = SharedCSRHandle


class SharedGraph(SharedCSRStorage):
    """Parent-side owner of a graph broadcast into shared memory.

    A thin :class:`Graph`-taking constructor over
    :class:`~repro.graphs.storage.SharedCSRStorage`, which owns the segment
    creation, the picklable :attr:`handle` and the
    :func:`weakref.finalize`-backed unlink guarantee (see its docstring for
    the lifetime contract).
    """

    def __init__(self, graph: Graph) -> None:
        indptr, indices, degrees = graph.csr_arrays()
        super().__init__(graph.num_vertices, indptr, indices, degrees)


# ----------------------------------------------------------------------
# Worker-process entry points
# ----------------------------------------------------------------------
#: Set by :func:`_init_worker` when the pool starts; holds the attached graph
#: (and its segments, keeping them mapped) for the life of the worker.
_worker_attachment: AttachedGraph | None = None


def _init_worker(handle: SharedGraphHandle) -> None:
    global _worker_attachment
    _worker_attachment = handle.attach()


@dataclass(frozen=True)
class _ShardTask:
    """One worker task: a contiguous shard of a seed batch.

    ``capture_history=False`` tells the worker to skip building the per-seed
    mixing-set histories entirely, so throughput-only runs never construct —
    or pickle back across the pipe — :class:`LargestMixingSet` traces.
    """

    seeds: tuple[int, ...]
    parameters: CDRWParameters | None
    delta_hint: float | None
    capture_distributions: bool
    dtype: str
    capture_history: bool = True


@dataclass(frozen=True)
class _ShardResult:
    results: tuple[CommunityResult, ...]
    finals: np.ndarray | None
    seconds: float


def _run_shard(task: _ShardTask) -> _ShardResult:
    if _worker_attachment is None:
        raise ReproError("worker process was not initialised with a shared graph")
    start = time.perf_counter()
    outcome = _detect_community_batch_impl(
        _worker_attachment.graph,
        list(task.seeds),
        task.parameters,
        task.delta_hint,
        capture_distributions=task.capture_distributions,
        workers=1,
        dtype=np.dtype(task.dtype),
        capture_history=task.capture_history,
    )
    if task.capture_distributions:
        results, finals = outcome
    else:
        results, finals = outcome, None
    return _ShardResult(
        results=tuple(results), finals=finals, seconds=time.perf_counter() - start
    )


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class ProcessGraphPool:
    """Worker processes sharing one read-only broadcast graph.

    One-shot runs create the pool per detection (fork start-up is
    milliseconds): the graph is broadcast, ``workers`` processes attach it,
    seed batches are split with :func:`~repro.execution.block_ranges` and
    merged in shard order.  :meth:`close` tears down the workers and — when
    the pool owns the broadcast — unlinks the segments.

    A resident :class:`~repro.session.DetectionSession` instead broadcasts
    the graph once and passes the :class:`SharedGraph` in via ``shared``;
    the pool then only manages the executor and leaves the segments' lifetime
    with the session (``close()`` shuts the workers down but does not
    unlink), so the executor can be rebuilt — e.g. for a different worker
    count — without a re-broadcast.
    """

    def __init__(
        self,
        graph: Graph,
        workers: int | None = None,
        mp_context: multiprocessing.context.BaseContext | None = None,
        *,
        shared: SharedGraph | None = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self._owns_shared = shared is None
        self._shared = SharedGraph(graph) if shared is None else shared
        try:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=mp_context or _preferred_context(),
                initializer=_init_worker,
                initargs=(self._shared.handle,),
            )
        except BaseException:
            if self._owns_shared:
                self._shared.close()
            raise
        self.tasks_issued = 0
        self._task_seconds: list[float] = []

    def run_seeds(
        self,
        seeds: list[int],
        parameters: CDRWParameters | None,
        delta_hint: float | None,
        *,
        batch_size: int,
        capture_distributions: bool = False,
        dtype: str = "float64",
        capture_history: bool = True,
    ) -> tuple[list[CommunityResult], np.ndarray | None]:
        """Detect every seed in ``seeds``, split across the worker processes.

        The list is split into ``max(workers, ⌈len/batch_size⌉)`` contiguous
        shards — every worker busy, no shard wider than ``batch_size`` — and
        the merged results are identical to one serial batch over the same
        list (per-seed results do not depend on batch composition).  With
        ``capture_distributions`` the second return value holds the merged
        ``(n, len(seeds))`` final-distribution matrix, columns in seed order.

        Accounting (``tasks_issued`` / the per-shard timings) records
        exactly the shards that ran to completion — ``tasks_issued ==
        len(shard timings)`` always.  When a shard raises, the outstanding
        futures are cancelled and awaited first, the shards that did finish
        are still recorded, and only then does the worker's exception
        propagate, so a poisoned shard leaves the pool consistent and
        reusable.
        """
        if not seeds:
            finals = (
                np.zeros((self._shared.handle.num_vertices, 0), dtype=np.float64)
                if capture_distributions
                else None
            )
            return [], finals
        num_shards = max(self.workers, -(-len(seeds) // max(1, batch_size)))
        futures = []
        for start, stop in block_ranges(len(seeds), num_shards):
            task = _ShardTask(
                seeds=tuple(seeds[start:stop]),
                parameters=parameters,
                delta_hint=delta_hint,
                capture_distributions=capture_distributions,
                dtype=dtype,
                capture_history=capture_history,
            )
            futures.append(self._executor.submit(_run_shard, task))
        try:
            shards = [future.result() for future in futures]
        except BaseException:
            # A raising shard must not leave stragglers running against a
            # pool the caller may tear down, nor half-recorded accounting:
            # cancel what has not started, await what has, then record the
            # shards that completed successfully before re-raising.
            for future in futures:
                future.cancel()
            wait(futures)
            for future in futures:
                if future.done() and not future.cancelled() and future.exception() is None:
                    self._record(future.result())
            raise
        results: list[CommunityResult] = []
        final_chunks: list[np.ndarray] = []
        for shard in shards:
            results.extend(shard.results)
            if shard.finals is not None:
                final_chunks.append(shard.finals)
            self._record(shard)
        finals = np.hstack(final_chunks) if final_chunks else None
        return results, finals

    def _record(self, shard: _ShardResult) -> None:
        self._task_seconds.append(shard.seconds)
        self.tasks_issued += 1

    def mark(self) -> int:
        """Snapshot the accounting position for per-call reporting.

        Returns the number of completed shards recorded so far; pass it to
        :meth:`shard_timings` (and subtract it from :attr:`tasks_issued`)
        to report only the shards of one resident-session call.
        """
        return len(self._task_seconds)

    #: Per-shard timing keys are emitted individually up to this many shards;
    #: past it (long pool-mode runs) only the aggregates are reported, so a
    #: report's timing dict stays bounded.
    MAX_SHARD_TIMING_KEYS = 16

    def shard_timings(self, since: int = 0) -> dict[str, float]:
        """Wall-clock seconds per shard, in submission order, plus aggregates.

        ``shard_<i>_seconds`` is the busy time of the *i*-th shard task this
        pool ran (across every batch, in submission order — not a worker ID:
        the executor assigns tasks to whichever worker is free).
        ``shard_seconds_total`` / ``shard_seconds_max`` summarise the same
        numbers and are always present; the per-shard keys are dropped past
        :data:`MAX_SHARD_TIMING_KEYS` shards.  ``since`` (a :meth:`mark`
        snapshot) restricts the report to the shards recorded after it, with
        indices re-based to 0 — a session call's timing dict then has the
        same shape as a one-shot run's.
        """
        recorded = self._task_seconds[since:]
        timings = {
            "shard_seconds_total": float(sum(recorded)),
            "shard_seconds_max": float(max(recorded, default=0.0)),
        }
        if len(recorded) <= self.MAX_SHARD_TIMING_KEYS:
            for index, seconds in enumerate(recorded):
                timings[f"shard_{index}_seconds"] = seconds
        return timings

    def close(self) -> None:
        self._executor.shutdown(wait=True)
        if self._owns_shared:
            self._shared.close()

    def __enter__(self) -> "ProcessGraphPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Backend implementations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProcessOutcome:
    """What the process tier hands back to the :mod:`repro.api` runners."""

    detection: DetectionResult
    final_distributions: np.ndarray | None = None
    timings: dict[str, float] = field(default_factory=dict)
    extras: dict[str, object] = field(default_factory=dict)


def _serial_outcome(
    detection: DetectionResult, finals: np.ndarray | None
) -> ProcessOutcome:
    """Wrap an inline (no-pool) run — taken for edgeless/empty graphs only."""
    return ProcessOutcome(
        detection=detection,
        final_distributions=finals,
        extras={"executor": "process", "worker_processes": 0, "process_tasks": 0},
    )


def _pool_outcome(
    pool: ProcessGraphPool,
    detection: DetectionResult,
    finals: np.ndarray | None,
    since: int = 0,
) -> ProcessOutcome:
    """``since`` (a :meth:`ProcessGraphPool.mark` snapshot) restricts the
    timings and task count to the shards of one call on a persistent pool;
    one-shot runs use the default 0 (the pool's whole history)."""
    return ProcessOutcome(
        detection=detection,
        final_distributions=finals,
        timings=pool.shard_timings(since=since),
        extras={
            "executor": "process",
            "worker_processes": pool.workers,
            "process_tasks": pool.tasks_issued - since,
        },
    )


def _validate_batched_seeds(
    graph: Graph,
    seeds: tuple[int, ...] | list[int] | None,
    max_seeds: int | None,
    batch_size: int,
) -> list[int] | None:
    """Shared argument validation for the one-shot and session entry points.

    Returns the truncated explicit seed list, or ``None`` in pool mode.
    """
    if batch_size < 1:
        raise AlgorithmError(f"batch_size must be >= 1, got {batch_size}")
    if seeds is None:
        return None
    explicit = [int(s) for s in seeds]
    if max_seeds is not None:
        explicit = explicit[:max_seeds]
    for seed_vertex in explicit:
        if seed_vertex not in graph:
            raise AlgorithmError(
                f"seed vertex {seed_vertex} is not a vertex of {graph!r}"
            )
    return explicit


def _is_trivial(graph: Graph, explicit: list[int] | None, seeds_given: bool) -> bool:
    """Whether the run needs no pool: edgeless/empty graph or an empty seed list."""
    return (
        graph.num_edges == 0
        or graph.num_vertices == 0
        or (seeds_given and not explicit)
    )


def _trivial_batched_outcome(
    graph: Graph,
    parameters: CDRWParameters,
    delta_hint: float | None,
    *,
    seed: int | np.random.Generator | None,
    max_seeds: int | None,
    batch_size: int,
    explicit: list[int] | None,
    seeds_given: bool,
    dtype: str,
    capture_distributions: bool,
    capture_history: bool,
) -> ProcessOutcome:
    """The inline no-pool path for trivial runs (see :func:`_is_trivial`).

    Edgeless / empty runs hit the scalar fast path per seed; spinning up a
    pool would only add start-up latency.  Results are identical by the
    batch guarantee.
    """
    from .core.batched import _detect_communities_batched_impl

    outcome = _detect_communities_batched_impl(
        graph,
        parameters,
        delta_hint,
        seed=seed,
        max_seeds=max_seeds,
        batch_size=batch_size,
        seeds=explicit if seeds_given else None,
        workers=1,
        dtype=np.dtype(dtype),
        capture_distributions=capture_distributions,
        capture_history=capture_history,
    )
    if capture_distributions:
        detection, finals = outcome
    else:
        detection, finals = outcome, None
    return _serial_outcome(detection, finals)


def _run_batched_on_pool(
    pool: ProcessGraphPool,
    graph: Graph,
    parameters: CDRWParameters,
    delta: float,
    *,
    explicit: list[int] | None,
    seed: int | np.random.Generator | None,
    max_seeds: int | None,
    batch_size: int,
    capture_distributions: bool,
    dtype: str,
    capture_history: bool,
) -> tuple[list[CommunityResult], np.ndarray | None]:
    """Run one batched detection on an already-open pool (δ pre-resolved).

    Shared by the one-shot entry point and the resident session, so a
    session call executes exactly the sharding a one-shot run would.
    """
    if explicit is not None:
        return pool.run_seeds(
            explicit,
            parameters,
            delta,
            batch_size=batch_size,
            capture_distributions=capture_distributions,
            dtype=dtype,
            capture_history=capture_history,
        )
    return _pool_mode(
        pool,
        graph,
        parameters,
        delta,
        seed=seed,
        max_seeds=max_seeds,
        batch_size=batch_size,
        capture_distributions=capture_distributions,
        dtype=dtype,
        capture_history=capture_history,
    )


def detect_batched_process(
    graph: Graph,
    parameters: CDRWParameters | None = None,
    delta_hint: float | None = None,
    *,
    seed: int | np.random.Generator | None = None,
    max_seeds: int | None = None,
    batch_size: int = 8,
    seeds: tuple[int, ...] | list[int] | None = None,
    workers: int | None = None,
    dtype: str = "float64",
    capture_distributions: bool = False,
    capture_history: bool = True,
    mp_context: multiprocessing.context.BaseContext | None = None,
) -> ProcessOutcome:
    """The ``"batched"`` backend on the process tier.

    Detections (and, when captured, final distributions) are identical to
    :func:`repro.core.batched._detect_communities_batched_impl` with the same
    knobs: explicit seed lists are split directly; pool mode keeps the
    draw loop — and therefore the exact RNG draw sequence — in the parent
    and shards each round's batch.
    """
    parameters = parameters or CDRWParameters()
    explicit = _validate_batched_seeds(graph, seeds, max_seeds, batch_size)

    if _is_trivial(graph, explicit, seeds is not None):
        return _trivial_batched_outcome(
            graph,
            parameters,
            delta_hint,
            seed=seed,
            max_seeds=max_seeds,
            batch_size=batch_size,
            explicit=explicit,
            seeds_given=seeds is not None,
            dtype=dtype,
            capture_distributions=capture_distributions,
            capture_history=capture_history,
        )

    delta = parameters.resolve_delta(graph, delta_hint)
    with ProcessGraphPool(graph, workers, mp_context) as pool:
        results, finals = _run_batched_on_pool(
            pool,
            graph,
            parameters,
            delta,
            explicit=explicit,
            seed=seed,
            max_seeds=max_seeds,
            batch_size=batch_size,
            capture_distributions=capture_distributions,
            dtype=dtype,
            capture_history=capture_history,
        )
        detection = DetectionResult(
            num_vertices=graph.num_vertices, communities=tuple(results)
        )
        return _pool_outcome(pool, detection, finals)


def _pool_mode(
    pool: ProcessGraphPool,
    graph: Graph,
    parameters: CDRWParameters,
    delta: float,
    *,
    seed: int | np.random.Generator | None,
    max_seeds: int | None,
    batch_size: int,
    capture_distributions: bool,
    dtype: str,
    capture_history: bool = True,
) -> tuple[list[CommunityResult], np.ndarray | None]:
    """Algorithm 1's pool loop with each round's batch split across workers.

    The loop itself is the *same* :func:`~repro.core.cdrw._pool_loop` the
    serial impl runs — the draws happen in the parent against the same
    shrinking membership mask with the same generator, only each round's
    batch executes on the worker pool — so the drawn seed sequence (and with
    it every detection) matches the serial facade exactly
    (``tests/test_process_executor.py`` pins it).
    """
    final_chunks: list[np.ndarray] = []

    def run_batch(round_seeds: list[int]) -> list[CommunityResult]:
        round_results, round_finals = pool.run_seeds(
            round_seeds,
            parameters,
            delta,
            batch_size=batch_size,
            capture_distributions=capture_distributions,
            dtype=dtype,
            capture_history=capture_history,
        )
        if round_finals is not None:
            final_chunks.append(round_finals)
        return round_results

    results = _pool_loop(graph, as_rng(seed), batch_size, max_seeds, run_batch)
    if not capture_distributions:
        return results, None
    finals = (
        np.hstack(final_chunks)
        if final_chunks
        else np.zeros((graph.num_vertices, 0), dtype=np.float64)
    )
    return results, finals


def _validate_parallel_args(num_communities: int, overlap_merge_threshold: float) -> None:
    """Shared argument validation for the one-shot and session entry points."""
    if num_communities < 1:
        raise AlgorithmError(f"num_communities must be >= 1, got {num_communities}")
    if not (0.0 < overlap_merge_threshold <= 1.0):
        raise AlgorithmError(
            f"overlap_merge_threshold must be in (0, 1], got {overlap_merge_threshold}"
        )


def _run_parallel_on_pool(
    pool: ProcessGraphPool,
    graph: Graph,
    parameters: CDRWParameters,
    delta: float,
    spread: list[int],
    overlap_merge_threshold: float,
    capture_history: bool = True,
) -> DetectionResult:
    """Shard the ``r`` spread-seed detections on an open pool and resolve.

    Shared by the one-shot entry point and the resident session; the
    duplicate-merge / overlap-resolution steps run in the parent through the
    same :func:`~repro.core.parallel._merge_and_resolve` the thread tier
    uses, so the resolved communities are identical to the serial facade's.
    """
    raw_results, distributions = pool.run_seeds(
        spread,
        parameters,
        delta,
        batch_size=len(spread),
        capture_distributions=True,
        capture_history=capture_history,
    )
    resolved = _merge_and_resolve(
        list(raw_results), distributions, overlap_merge_threshold
    )
    return DetectionResult(num_vertices=graph.num_vertices, communities=tuple(resolved))


def detect_parallel_process(
    graph: Graph,
    num_communities: int,
    parameters: CDRWParameters | None = None,
    delta_hint: float | None = None,
    *,
    seed: int | np.random.Generator | None = None,
    overlap_merge_threshold: float = 0.5,
    seed_min_distance: int = 2,
    workers: int | None = None,
    capture_history: bool = True,
    mp_context: multiprocessing.context.BaseContext | None = None,
) -> ProcessOutcome:
    """The ``"parallel"`` backend on the process tier.

    Seed spreading runs in the parent (same draws as the serial path), the
    ``r`` detections are split across the workers with their final
    distributions captured, and the duplicate-merge / overlap-resolution
    steps run in the parent (see :func:`_run_parallel_on_pool`) — so the
    resolved communities are identical to the serial facade's.
    """
    _validate_parallel_args(num_communities, overlap_merge_threshold)
    parameters = parameters or CDRWParameters()
    rng = as_rng(seed)

    spread = select_spread_seeds(
        graph, num_communities, min_distance=seed_min_distance, seed=rng
    )
    if graph.num_edges == 0:
        raw_results, distributions = _detect_community_batch_impl(
            graph,
            spread,
            parameters,
            delta_hint,
            capture_distributions=True,
            workers=1,
            capture_history=capture_history,
        )
        resolved = _merge_and_resolve(
            list(raw_results), distributions, overlap_merge_threshold
        )
        detection = DetectionResult(
            num_vertices=graph.num_vertices, communities=tuple(resolved)
        )
        return _serial_outcome(detection, None)

    delta = parameters.resolve_delta(graph, delta_hint)
    with ProcessGraphPool(graph, workers, mp_context) as pool:
        detection = _run_parallel_on_pool(
            pool,
            graph,
            parameters,
            delta,
            spread,
            overlap_merge_threshold,
            capture_history=capture_history,
        )
        return _pool_outcome(pool, detection, None)
