"""Out-of-process execution tier: seed shards on a shared-memory process pool.

The thread tier runs every round of seeds on the calling thread.  This
module is the tier that spreads a round over cores, mirroring the paper's
k-machine deployment in-process: ``k`` worker *processes*, each running the
unchanged batched detection kernel on its own shard of a seed round.

The design has three parts:

* **One graph broadcast, zero per-task pickling.**  :class:`SharedGraph`
  copies the CSR arrays (``indptr`` / ``indices`` / ``degrees``) into
  :mod:`multiprocessing.shared_memory` segments once; every worker attaches
  the segments read-only at pool start-up and rebuilds the :class:`Graph`
  through the zero-copy :meth:`~repro.graphs.graph.Graph.from_csr`
  constructor.  Tasks then carry only seed lists and parameters — the graph
  never crosses a pipe.
* **Deterministic sharding.**  :meth:`ProcessGraphPool.run_seeds` splits a
  round of seeds into contiguous shards with the
  :func:`~repro.execution.block_ranges` partition — a pure function of
  ``(count, workers)``, never of timing — and merges shard
  results back in shard order.  Every per-seed
  :class:`~repro.core.result.CommunityResult` is *identical* to the thread
  tier's because the batched kernels guarantee per-column results
  independent of batch composition (the PR 1 bit-identical-walk and PR 2
  exact-search contracts).
* **Parent-side RNG and δ.**  All randomness — pool draws, seed spreading —
  runs in the parent with the exact draw sequence of the thread tier;
  worker shards are pure functions of ``(graph, seeds, parameters, δ)``
  (the walk is a deterministic power iteration, not a sampled trajectory),
  so results cannot depend on scheduling.  The parent resolves δ once per
  call and ships it resolved (``resolve_delta`` is idempotent on its own
  output); each worker keeps one :class:`~repro.core.prepared.Prepared` for
  the ``(parameters, δ)`` it last saw, so consecutive shards of one
  call or one session reuse its transition operator and search.

Like the paper's k machines, the pool pays for communication only where
workers run in parallel: the session ships a round only when two workers
can run it, and runs a one-seed round, or any round on a one-worker pool,
on the calling thread (see :mod:`repro.session`).  The executor starts its
workers on the first submitted task, so a session that only ever sees such
rounds never forks.

The tier is selected through ``RunConfig(executor="process")`` (or the
``REPRO_EXECUTOR`` environment override) on the ``batched`` and ``parallel``
backends of :mod:`repro.api`; their runners draw the rounds, and a
:class:`~repro.session.DetectionSession` — the caller's, or one that lives
only for a one-shot call — owns the broadcast and the pool.
``tests/test_process_executor.py`` pins the computed report payload against
the thread tier at several worker counts.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass

import multiprocessing

import numpy as np

from .core.batched import _detect_community_batch_impl
from .core.parameters import CDRWParameters
from .core.prepared import Prepared
from .core.result import CommunityResult
from .exceptions import ReproError
from .execution import block_ranges, resolve_workers
from .graphs.graph import Graph
from .graphs.storage import AttachedCSR, SharedCSRHandle, SharedCSRStorage

__all__ = [
    "SharedGraph",
    "SharedGraphHandle",
    "AttachedGraph",
    "ProcessGraphPool",
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
    capture_history: bool = True


@dataclass(frozen=True)
class _ShardResult:
    results: tuple[CommunityResult, ...]
    finals: np.ndarray | None
    seconds: float


#: The worker's :class:`Prepared` for the ``(parameters, δ)`` of its
#: last shard; consecutive shards with the same knobs reuse its operator and
#: search instead of rebuilding them.
_worker_prepared: Prepared | None = None


def _run_shard(task: _ShardTask) -> _ShardResult:
    global _worker_prepared
    if _worker_attachment is None:
        raise ReproError("worker process was not initialised with a shared graph")
    start = time.perf_counter()
    parameters = task.parameters or CDRWParameters()
    prepared = _worker_prepared
    knobs = (parameters, task.delta_hint)
    if prepared is None or (prepared.parameters, prepared.delta_hint) != knobs:
        prepared = Prepared(_worker_attachment.graph, parameters, task.delta_hint)
        _worker_prepared = prepared
    results, finals = _detect_community_batch_impl(
        prepared,
        task.seeds,
        capture_distributions=task.capture_distributions,
        capture_history=task.capture_history,
    )
    return _ShardResult(
        results=tuple(results), finals=finals, seconds=time.perf_counter() - start
    )


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class ProcessGraphPool:
    """Worker processes sharing one read-only broadcast graph.

    ``workers`` processes attach the broadcast at start-up (fork start-up is
    milliseconds); seed rounds are split with
    :func:`~repro.execution.block_ranges` and merged in shard order.

    The pool runs on a :class:`SharedGraph` its caller owns — a
    :class:`~repro.session.DetectionSession` broadcasts the graph once and
    passes it in.  The pool only manages the executor and leaves the
    segments' lifetime with the caller (``close()`` shuts the workers down
    but does not unlink), so the executor can be rebuilt — for a different
    worker count, or after a worker crash — without a re-broadcast.
    """

    def __init__(self, shared: SharedGraph, workers: int | None = None) -> None:
        self.workers = resolve_workers(workers)
        self._shared = shared
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=_preferred_context(),
            initializer=_init_worker,
            initargs=(shared.handle,),
        )
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
        capture_history: bool = True,
    ) -> tuple[list[CommunityResult], np.ndarray | None]:
        """Detect every seed in ``seeds``, split across the worker processes.

        The list is split into ``max(workers, ⌈len/batch_size⌉)`` contiguous
        shards, but never more shards than seeds (so fewer seeds than
        workers leave workers idle), none wider than ``batch_size``; the
        merged results are identical to one serial batch over the same
        list (per-seed results do not depend on batch composition).  With
        ``capture_distributions`` the second return value holds the merged
        ``(n, len(seeds))`` final-distribution matrix, columns in seed order.
        :class:`~repro.session.DetectionSession` calls this only for rounds
        that two workers can share.

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

    def __enter__(self) -> "ProcessGraphPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
