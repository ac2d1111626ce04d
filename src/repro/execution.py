"""Shared multi-core execution layer for the batched kernels.

The hot kernel of the batched CDRW path is the lane-blocked mixing-set
search of :class:`~repro.core.mixing_set.BatchedMixingSetSearch`; the walk
step of :class:`~repro.randomwalk.batched.BatchedWalkDistribution` is a
small share of a detection and always runs on the calling thread.  The
search decomposes into fully independent contiguous blocks of lanes, so it
parallelises across threads without any change to the per-lane
arithmetic: numpy's elementwise and partition loops release the GIL on
large arrays, and every block writes a disjoint output slice.

This module owns the thread pool the search runs on:

* :func:`resolve_workers` turns the user-facing ``workers`` knob (an explicit
  count, ``0`` for "all cores", or ``None`` for the ``REPRO_WORKERS``
  environment override, default ``1``) into a concrete worker count;
* :func:`parallel_map_blocks` splits an index range into contiguous blocks
  and maps a ``function(start, stop)`` over them — inline when one worker
  suffices, otherwise on the shared process-global
  :class:`~concurrent.futures.ThreadPoolExecutor` (created lazily, grown
  to the largest worker count requested so far, reused for the life of the
  process; superseded smaller pools are shut down so their threads exit).

Determinism contract
--------------------
``parallel_map_blocks`` never changes *what* is computed, only *where*: the
block boundaries depend solely on ``(count, workers)``, results are returned
in block order, and callers must make per-item results independent of the
block partition (the batched search guarantees exactly that — see its
docstring), so any ``workers`` value produces bit-identical output.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

from .exceptions import ReproError

__all__ = [
    "resolve_workers",
    "resolve_executor",
    "parallel_map_blocks",
    "block_ranges",
    "EXECUTOR_THREAD",
    "EXECUTOR_PROCESS",
]

#: Environment variable overriding the default worker count when the
#: ``workers`` knob is left at ``None`` (e.g. ``REPRO_WORKERS=2 pytest`` runs
#: the whole suite through the threaded search).
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Environment variable overriding the default execution tier when the
#: ``executor`` knob is left at ``None`` (e.g. ``REPRO_EXECUTOR=process
#: pytest`` routes every batched/parallel detection through the
#: shared-memory process pool of :mod:`repro.execution_process`).
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

#: The in-process tier: the batched search on the shared thread pool (numpy
#: releases the GIL on the hot loops).  The default.
EXECUTOR_THREAD = "thread"

#: The out-of-process tier: seed shards on a worker-process pool sharing the
#: CSR graph through :mod:`multiprocessing.shared_memory` — true multi-core
#: scaling past the GIL (see :mod:`repro.execution_process`).
EXECUTOR_PROCESS = "process"

_EXECUTORS = (EXECUTOR_THREAD, EXECUTOR_PROCESS)

_T = TypeVar("_T")

_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None  # repro: guarded-by(_pool_lock)
_pool_width = 0  # repro: guarded-by(_pool_lock)


def resolve_workers(workers: int | None = None) -> int:
    """Return the effective worker count for the given ``workers`` knob.

    ``None`` defers to the ``REPRO_WORKERS`` environment variable (default
    ``1`` — the serial path — when unset); ``0`` means "one worker per
    available core".  Anything below zero, or a non-integer environment
    value, raises :class:`~repro.exceptions.ReproError`.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR)
        if raw is None or not raw.strip():
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ReproError(
                f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    workers = int(workers)
    if workers < 0:
        raise ReproError(f"workers must be >= 0 (0 = all cores), got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def resolve_executor(executor: str | None = None) -> str:
    """Return the effective execution tier for the given ``executor`` knob.

    ``None`` defers to the ``REPRO_EXECUTOR`` environment variable (default
    ``"thread"`` when unset).  Anything other than ``"thread"`` or
    ``"process"`` raises :class:`~repro.exceptions.ReproError`.  Both tiers
    produce identical detections — the knob only moves where the work runs.
    """
    if executor is None:
        raw = os.environ.get(EXECUTOR_ENV_VAR)
        if raw is None or not raw.strip():
            return EXECUTOR_THREAD
        executor = raw.strip()
    if executor not in _EXECUTORS:
        raise ReproError(
            f"executor must be one of {', '.join(_EXECUTORS)}, got {executor!r}"
        )
    return executor


def block_ranges(count: int, blocks: int) -> list[tuple[int, int]]:
    """Split ``range(count)`` into at most ``blocks`` contiguous ``(start, stop)`` ranges.

    The ranges partition ``range(count)`` exactly, in order, with sizes
    differing by at most one (the leading ranges take the remainder).  The
    partition depends only on ``(count, blocks)``, never on timing.
    """
    if count < 0:
        raise ReproError(f"count must be >= 0, got {count}")
    if blocks < 1:
        raise ReproError(f"blocks must be >= 1, got {blocks}")
    blocks = min(blocks, count)
    if blocks <= 1:
        return [(0, count)] if count else []
    base, remainder = divmod(count, blocks)
    ranges: list[tuple[int, int]] = []
    start = 0
    for index in range(blocks):
        stop = start + base + (1 if index < remainder else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def _shared_pool(workers: int) -> ThreadPoolExecutor:  # repro: requires(_pool_lock)
    """Return the process-global pool, grown to at least ``workers`` threads.

    A request wider than the current pool replaces it; the superseded pool
    is shut down (``wait=False`` — submitted blocks still complete, after
    which its threads exit) so pools never accumulate.  Narrower requests
    reuse the wide pool: concurrency is already bounded by the number of
    blocks submitted, not by the pool width.  Callers must submit while
    holding :data:`_pool_lock` so a concurrent grow cannot retire the pool
    between lookup and submission.
    """
    global _pool, _pool_width
    if _pool is None or _pool_width < workers:
        if _pool is not None:
            _pool.shutdown(wait=False)
        _pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-worker"
        )
        _pool_width = workers
    return _pool


def parallel_map_blocks(
    function: Callable[[int, int], _T],
    count: int,
    workers: int | None = None,
) -> list[_T]:
    """Map ``function(start, stop)`` over contiguous blocks of ``range(count)``.

    The range is split into ``min(workers, count)`` blocks
    (:func:`block_ranges`); with one effective worker the blocks run inline
    on the calling thread, otherwise they run concurrently on the shared
    pool.  Results are returned in block order either way.  Exceptions
    propagate to the caller (remaining blocks still run to completion on the
    pool — blocks must therefore be side-effect-safe, which disjoint output
    slices guarantee).
    """
    workers = resolve_workers(workers)
    ranges = block_ranges(count, workers)
    if workers <= 1 or len(ranges) <= 1:
        return [function(start, stop) for start, stop in ranges]
    with _pool_lock:
        pool = _shared_pool(workers)
        futures = [pool.submit(function, start, stop) for start, stop in ranges]
    return [future.result() for future in futures]
