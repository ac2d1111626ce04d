"""Shared knobs of the execution tiers: worker counts, tier names, sharding.

Every detection's mixing-set search and walk run on the calling thread.
What varies is where a round of seeds runs: on that thread (the ``thread``
tier) or sharded over a worker-process pool (the ``process`` tier,
:mod:`repro.execution_process`).  This module resolves the knobs both
tiers and the session read:

* :func:`resolve_workers` turns the user-facing ``workers`` knob (an explicit
  count, ``0`` for "all cores", or ``None`` for the ``REPRO_WORKERS``
  environment override, default ``1``) into a concrete worker-process
  count; the thread tier accepts the knob and ignores it;
* :func:`resolve_executor` picks the tier (``REPRO_EXECUTOR`` by default);
* :func:`block_ranges` splits a round of seeds into contiguous shards — a
  pure function of ``(count, blocks)``, never of timing, so sharding never
  changes a result.
"""

from __future__ import annotations

import os

from .exceptions import ReproError

__all__ = [
    "resolve_workers",
    "resolve_executor",
    "block_ranges",
    "EXECUTOR_THREAD",
    "EXECUTOR_PROCESS",
]

#: Environment variable overriding the default worker count when the
#: ``workers`` knob is left at ``None`` (e.g. ``REPRO_WORKERS=2
#: REPRO_EXECUTOR=process pytest`` runs the whole suite on a two-process
#: pool).
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Environment variable overriding the default execution tier when the
#: ``executor`` knob is left at ``None`` (e.g. ``REPRO_EXECUTOR=process
#: pytest`` routes every batched/parallel detection through the
#: shared-memory process pool of :mod:`repro.execution_process`).
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

#: The in-process tier: every round runs the batched detection loop on the
#: calling thread.  The default.
EXECUTOR_THREAD = "thread"

#: The out-of-process tier: seed shards on a worker-process pool sharing the
#: CSR graph through :mod:`multiprocessing.shared_memory` — true multi-core
#: scaling past the GIL (see :mod:`repro.execution_process`).
EXECUTOR_PROCESS = "process"

_EXECUTORS = (EXECUTOR_THREAD, EXECUTOR_PROCESS)


def resolve_workers(workers: int | None = None) -> int:
    """Return the effective worker-process count for the given ``workers`` knob.

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
