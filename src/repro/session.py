"""Resident detection service: one graph, many ``detect()`` calls, no re-setup.

Every ``"batched"`` and ``"parallel"`` call of :func:`repro.api.detect` runs
on a :class:`DetectionSession`: a one-shot call on a session that lives only
for that call, a resident service on one it keeps.  The session owns what a
call needs besides its seeds — the graph broadcast and worker pool of the
process tier, and one :class:`~repro.core.prepared.Prepared` context (δ, the
walk budget, the transition operator, the mixing-set search) per knob set —
so the lifetime code exists once, and a resident session pays each piece of
setup once instead of per call.  That is the ROADMAP's service shape: one
big social graph, a stream of community queries, per-call setup that would
otherwise dwarf the per-call work.

* **One broadcast.**  The first process-tier call copies the CSR arrays
  into :class:`~repro.execution_process.SharedGraph` segments; every later
  call reuses them (``session_broadcasts`` in the report metadata stays at
  1).  The :class:`~repro.execution_process.ProcessGraphPool` persists
  across calls too — only the executor is rebuilt if the resolved worker
  count changes or a worker dies, never the broadcast.
* **Ship only what two workers can share.**  A process-tier round goes to
  the pool only when it holds at least two seeds and the pool has at least
  two workers.  Any other round — a single-seed service wave, a
  ``workers=1`` call — runs on the calling thread with the session's own
  prepared context: no pickling, no pipe round trip, no worker wake-up,
  ``process_tasks`` 0 and no ``shard_<i>_seconds`` key.  The pool forks
  its workers only on the first round it is sent.
* **One prepared context per knob set.**  Calls with the same parameters
  and δ hint share one :class:`~repro.core.prepared.Prepared`
  (``session_prepared_reused``) on either tier, so the spectral δ
  estimate, the operator and the search are built at most once.  All of
  them are deterministic functions of the graph and the knobs, so reuse
  changes no float.
* **Request coalescing.**  :meth:`DetectionSession.detect_batch` folds many
  single-seed requests into one explicit-seed ``"batched"`` shard wave —
  the batched kernels make width nearly free, and per-seed results are
  independent of batch composition, so the coalesced answers are identical
  to one-at-a-time calls.
* **A dead worker is a typed error.**  A worker process that dies mid-call
  raises :class:`~repro.exceptions.WorkerCrashedError`; the session drops
  the broken executor, keeps the broadcast, and its next call runs on a
  fresh pool.

Every session call routes through the same facade
(``detect(graph, session=...)`` or the :meth:`DetectionSession.detect`
convenience) and produces a full :class:`~repro.api.RunReport` whose
computed payload — detections, cost totals, artifacts — is **bit-identical**
to the one-shot facade at every worker count on both executors
(``tests/test_session.py`` pins it).  The report's metadata additionally
carries ``session_calls`` / ``session_broadcasts`` and the
``session_prepared_reused`` / ``session_pool_reused`` flags, so reuse is
observable without instrumentation.

Usage::

    with DetectionSession(graph, config=RunConfig(executor="process")) as s:
        first = s.detect(seeds=[0, 1, 2])
        second = s.detect(seeds=[3, 4, 5])   # no new broadcast, same pool

The session serves **one call at a time** by contract: a second ``detect()``
arriving while one is in flight raises
:class:`~repro.exceptions.SessionBusyError` instead of silently racing the
caches.  Concurrent callers belong behind
:class:`repro.service.DetectionService`, which coalesces them into
``detect_batch`` waves on a single dispatcher thread.
"""

from __future__ import annotations

import functools
import threading
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, Iterable, TypeVar

import numpy as np

from .api import RoundRunner, RunConfig, RunReport
from .core.batched import _detect_community_batch_impl
from .core.parameters import CDRWParameters
from .core.prepared import Prepared
from .core.result import CommunityResult
from .exceptions import AlgorithmError, BackendError, SessionBusyError, WorkerCrashedError
from .execution import EXECUTOR_PROCESS, resolve_executor, resolve_workers
from .graphs.graph import Graph

if TYPE_CHECKING:
    from .execution_process import ProcessGraphPool, SharedGraph

__all__ = ["DetectionSession"]

T = TypeVar("T")


class DetectionSession:
    """A resident detection service for one graph.

    Parameters
    ----------
    graph:
        The graph every call of this session detects on.  The facade
        enforces identity (``graph is session.graph``): the broadcast and
        every cache are keyed to this exact object.
    config:
        Default :class:`~repro.api.RunConfig` for calls that do not pass
        their own (per-call configs and keyword overrides still work).
    params:
        Default :class:`~repro.core.parameters.CDRWParameters` for calls
        that do not pass their own.
    delta_hint:
        Default externally-known conductance for δ resolution.

    Use as a context manager (or call :meth:`close`) to release the worker
    pool and the shared-memory segments; the segments are additionally
    guarded by :class:`~repro.execution_process.SharedGraph`'s finalizer,
    so an abandoned session cannot leak them past interpreter exit.
    """

    def __init__(
        self,
        graph: Graph,
        config: RunConfig | None = None,
        params: CDRWParameters | None = None,
        delta_hint: float | None = None,
    ) -> None:
        if not isinstance(graph, Graph):
            raise BackendError(
                f"DetectionSession needs a Graph, got {type(graph).__name__}"
            )
        self.graph = graph
        self.config = config or RunConfig()
        self.params = params
        self.delta_hint = delta_hint
        # One-call-at-a-time contract: held for the duration of every
        # backend run; a concurrent caller gets SessionBusyError, never a
        # silent race on the caches below.
        self._busy = threading.Lock()
        # Cheap observable state lives under its own lock so ``closed`` /
        # ``calls`` / ``broadcasts`` never block behind an in-flight call
        # (the facade reads ``closed`` before dispatching; blocking there
        # would turn SessionBusyError into silent serialization).  Order
        # when nested: _busy, then _state_lock.
        self._state_lock = threading.Lock()
        self._closed = False  # repro: guarded-by(_state_lock)
        # One prepared context per (params, hint), shared by both tiers.
        self._prepared: dict[tuple[object, ...], Prepared] = {}  # repro: guarded-by(_busy)
        self._stationary: np.ndarray | None = None  # repro: guarded-by(_busy)
        # Process-tier residents.
        self._shared: SharedGraph | None = None  # repro: guarded-by(_busy)
        self._pool: ProcessGraphPool | None = None  # repro: guarded-by(_busy)
        # Observability counters surfaced through report metadata.
        self._calls = 0  # repro: guarded-by(_state_lock)
        self._broadcasts = 0  # repro: guarded-by(_state_lock)

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        with self._state_lock:
            return self._closed

    @property
    def calls(self) -> int:
        """Number of detection calls served so far."""
        with self._state_lock:
            return self._calls

    @property
    def broadcasts(self) -> int:
        """Number of shared-memory graph broadcasts performed (0 or 1)."""
        with self._state_lock:
            return self._broadcasts

    def detect(
        self,
        seeds: Iterable[int] | None = None,
        backend: str = "batched",
        *,
        params: CDRWParameters | None = None,
        config: RunConfig | None = None,
        delta_hint: float | None = None,
        **overrides: object,
    ) -> RunReport:
        """Run one detection through the facade with this session resident.

        ``seeds`` is a convenience for the common service request shape
        (an explicit seed list); it becomes ``config.seeds``.  Everything
        else mirrors :func:`repro.api.detect` — omitted ``params`` /
        ``config`` / ``delta_hint`` fall back to the session defaults, and
        keyword ``overrides`` apply on top.
        """
        from .api import detect as _facade_detect

        if seeds is not None:
            overrides["seeds"] = tuple(int(s) for s in seeds)
        return _facade_detect(
            self.graph,
            backend=backend,
            params=params,
            config=config,
            delta_hint=delta_hint,
            session=self,
            **overrides,
        )

    def detect_batch(self, seeds: Iterable[int], **overrides: object) -> RunReport:
        """Coalesce many single-seed requests into one shard wave.

        Sets ``batch_size`` to the request width (unless overridden), so the
        whole list runs as one batched pass — on the process tier that is
        ``min(workers, len(seeds))`` shards, and a wave that two workers
        cannot share (one seed, or a one-worker pool) runs on the calling
        thread.  Per-seed results are independent of batch composition
        (the PR 1/2 kernel contracts), so the answers are identical to
        ``len(seeds)`` one-at-a-time calls, at a fraction of the dispatch
        cost.

        The request is validated up front — empty, duplicated or
        out-of-range seeds raise before any pool work (no broadcast, no
        shard dispatch), so a malformed wave cannot cost a fork.
        Duplicates are rejected rather than silently re-run because a
        coalescing front end should fan one answer out to the duplicate
        requesters (:class:`repro.service.DetectionService` does exactly
        that).
        """
        seed_tuple = tuple(int(s) for s in seeds)
        if not seed_tuple:
            raise BackendError(
                "detect_batch needs at least one seed; got an empty seed iterable"
            )
        if len(set(seed_tuple)) != len(seed_tuple):
            seen: set[int] = set()
            duplicates = sorted(
                {s for s in seed_tuple if s in seen or bool(seen.add(s))}
            )
            raise BackendError(
                f"detect_batch seeds must be unique; duplicated seed "
                f"vertices: {duplicates} (coalesce duplicates and share the "
                f"answer instead of re-running them)"
            )
        for vertex in seed_tuple:
            if not 0 <= vertex < self.graph.num_vertices:
                raise AlgorithmError(
                    f"seed vertex {vertex} is not a vertex of {self.graph!r}"
                )
        overrides.setdefault("batch_size", max(1, len(seed_tuple)))
        return self.detect(seed_tuple, **overrides)

    @property
    def stationary_distribution(self) -> np.ndarray:
        """The graph's stationary distribution ``d(u) / 2|E|``, computed once.

        Takes the call slot (blocking): the cached array lives with the
        other ``_busy``-guarded derived state, and the computation is cheap
        enough that waiting out an in-flight call beats racing its caches.
        """
        with self._busy:
            if self._stationary is None:
                from .randomwalk.stationary import stationary_distribution

                self._stationary = stationary_distribution(self.graph)
            return self._stationary

    def close(self) -> None:
        """Release the worker pool, the broadcast segments and every cache.

        Waits out an in-flight call (blocking acquire of the call slot), so
        teardown can never race a backend run's cache accesses.
        """
        with self._busy:
            with self._state_lock:
                if self._closed:
                    return
                self._closed = True
            if self._pool is not None:
                self._pool.close()  # executor only: the session owns the broadcast
                self._pool = None
            if self._shared is not None:
                self._shared.close()
                self._shared = None
            self._prepared.clear()
            self._stationary = None

    def __enter__(self) -> "DetectionSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._state_lock:
            state = "closed" if self._closed else "open"
            calls = self._calls
            broadcasts = self._broadcasts
        return (
            f"DetectionSession({self.graph!r}, calls={calls}, "
            f"broadcasts={broadcasts}, {state})"
        )

    # ------------------------------------------------------------------
    # Residents
    # ------------------------------------------------------------------
    def _prepare(  # repro: requires(_busy)
        self,
        params: CDRWParameters,
        delta_hint: float | None,
    ) -> tuple[Prepared, bool]:
        """The call's :class:`Prepared`, one per knob set, and whether it was cached.

        A cached context carries whatever its earlier calls resolved — δ
        (including the spectral estimate), the operator, the search — and
        every field is a deterministic function of the key, so reuse
        reproduces a fresh call exactly.
        """
        key = (params, delta_hint)
        prepared = self._prepared.get(key)
        if prepared is not None:
            return prepared, True
        prepared = Prepared(self.graph, params, delta_hint)
        self._prepared[key] = prepared
        return prepared, False

    def _ensure_pool(self, workers: int) -> tuple[ProcessGraphPool, bool]:  # repro: requires(_busy)
        """The persistent worker pool, broadcasting the graph at most once.

        A worker-count change rebuilds only the executor; the shared-memory
        segments survive (the pool runs on the session's broadcast and does
        not own it), so ``session_broadcasts`` never exceeds 1.
        """
        from .execution_process import ProcessGraphPool, SharedGraph

        if self._shared is None:
            self._shared = SharedGraph(self.graph)
            with self._state_lock:
                self._broadcasts += 1
        if self._pool is not None and self._pool.workers == workers:
            return self._pool, True
        if self._pool is not None:
            self._pool.close()
        self._pool = ProcessGraphPool(self._shared, workers)
        return self._pool, False

    def _ensure_open(self) -> None:
        with self._state_lock:
            closed = self._closed
        if closed:
            raise BackendError("the detection session is closed")

    #: SessionBusyError text for a call that finds another in flight.
    _BUSY_MESSAGE = (
        "DetectionSession serves one call at a time: another detect() "
        "is already in flight on this session. Serialize callers, or "
        "put a repro.service.DetectionService in front to coalesce "
        "concurrent requests into waves."
    )

    # ------------------------------------------------------------------
    # The one entry point of the batched and parallel runners
    # ------------------------------------------------------------------
    def _serve(
        self,
        params: CDRWParameters | None,
        config: RunConfig,
        delta_hint: float | None,
        has_seeds: bool,
        body: Callable[[RoundRunner], T],
    ) -> tuple[T, dict[str, float], dict[str, object]]:
        """Run one call's ``body`` on this session's residents.

        ``body`` receives the :data:`~repro.api.RoundRunner` of the call's tier — the
        batch driver on this thread, or the worker pool — and draws its
        rounds through it; it runs while the session's call slot is held.
        Returns ``body``'s result with the call's timings and metadata.
        ``has_seeds=False`` (an empty explicit seed list) and an edgeless
        graph need no pool: their rounds take the batch driver's fast path
        on this thread even on the process tier.
        """
        if not self._busy.acquire(blocking=False):
            raise SessionBusyError(self._BUSY_MESSAGE)
        try:
            self._ensure_open()
            with self._state_lock:
                self._calls += 1
            executor = resolve_executor(config.executor)
            process = executor == EXECUTOR_PROCESS
            # Only the process tier uses the count, but a bad value fails
            # on either tier.
            workers = resolve_workers(config.workers)
            # On the process tier the parent's context resolves δ and runs
            # the rounds that stay on this thread (see _run_on_pool).
            prepared, prepared_reused = self._prepare(
                params or CDRWParameters(), delta_hint
            )
            extras: dict[str, object] = {"executor": executor}
            timings: dict[str, float] = {}
            if process and has_seeds and self.graph.num_edges > 0:
                delta = prepared.delta  # before the pool starts: a bad hint costs no fork
                pool, pool_reused = self._ensure_pool(workers)
                mark = pool.mark()
                run_round = functools.partial(
                    _run_on_pool, pool, prepared, delta, config.capture_history
                )
                try:
                    result = body(run_round)
                except WorkerCrashedError:
                    # The executor is unusable; the broadcast is not.
                    self._pool = None
                    pool.close()
                    raise
                timings = pool.shard_timings(since=mark)
                extras.update(
                    worker_processes=pool.workers,
                    process_tasks=pool.tasks_issued - mark,
                    session_pool_reused=pool_reused,
                )
            else:
                result = body(
                    functools.partial(_run_inline, prepared, config.capture_history)
                )
                if process:
                    extras.update(
                        worker_processes=0, process_tasks=0, session_pool_reused=False
                    )
            with self._state_lock:
                extras.update(
                    session_calls=self._calls, session_broadcasts=self._broadcasts
                )
            extras["session_prepared_reused"] = prepared_reused
            return result, timings, extras
        finally:
            self._busy.release()


def _run_inline(
    prepared: Prepared,
    capture_history: bool,
    seeds: list[int],
    batch_size: int,
    capture_distributions: bool,
) -> tuple[list[CommunityResult], np.ndarray | None]:
    """One round on the calling thread: the batch driver, ``batch_size`` seeds at a time."""
    results: list[CommunityResult] = []
    chunks: list[np.ndarray] = []
    for start in range(0, len(seeds), batch_size):
        batch_results, finals = _detect_community_batch_impl(
            prepared,
            seeds[start:start + batch_size],
            capture_distributions=capture_distributions,
            capture_history=capture_history,
        )
        results.extend(batch_results)
        if finals is not None:
            chunks.append(finals)
    return results, np.hstack(chunks) if chunks else None


def _run_on_pool(
    pool: ProcessGraphPool,
    prepared: Prepared,
    delta: float,
    capture_history: bool,
    seeds: list[int],
    batch_size: int,
    capture_distributions: bool,
) -> tuple[list[CommunityResult], np.ndarray | None]:
    """One round sharded across the worker processes, δ shipped resolved.

    A round the pool could not run on two workers at once — one seed, or a
    one-worker pool — runs on the calling thread instead: shipping it would
    only add the pickling, the pipe round trip and a worker wake-up while
    this thread waits.  Per-seed results are pure functions of (graph,
    parameters, δ), and ``prepared`` holds the same δ the workers get, so
    the answer is the same; such a round issues no task.
    """
    if len(seeds) <= 1 or pool.workers == 1:
        return _run_inline(
            prepared, capture_history, seeds, batch_size, capture_distributions
        )
    try:
        return pool.run_seeds(
            seeds,
            prepared.parameters,
            delta,
            batch_size=batch_size,
            capture_distributions=capture_distributions,
            capture_history=capture_history,
        )
    except BrokenProcessPool as error:
        raise WorkerCrashedError(
            f"a worker process died mid-call ({error}); this call's results "
            f"are lost, and the next call starts a fresh worker pool"
        ) from error
