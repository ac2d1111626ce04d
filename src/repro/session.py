"""Resident detection service: one graph, many ``detect()`` calls, no re-setup.

The one-shot :func:`repro.api.detect` facade rebuilds everything a call
needs from scratch: the process tier re-broadcasts the CSR arrays into
shared memory and forks a fresh worker pool, the thread tier rebuilds the
transition operator and the batched mixing-set search, and both re-resolve
the stopping parameter δ.  That is the right trade for a script that runs
once — and exactly the wrong one for the ROADMAP's north-star shape of a
resident service answering a stream of community queries against one big
social graph, where per-call setup dwarfs the per-call work.

:class:`DetectionSession` is that resident service, scoped to one graph:

* **One broadcast.**  The first process-tier call copies the CSR arrays
  into :class:`~repro.execution_process.SharedGraph` segments; every later
  call reuses them (``session_broadcasts`` in the report metadata stays at
  1).  The :class:`~repro.execution_process.ProcessGraphPool` persists
  across calls too — only the executor is rebuilt if the resolved worker
  count changes, never the broadcast.
* **Cached derived state.**  The thread tier caches the walk operator (per
  laziness flag), the :class:`~repro.core.mixing_set.BatchedMixingSetSearch`
  (per parameters/workers/dtype) and the resolved δ (per parameters/hint);
  the stationary distribution is computed at most once.  All of these are
  deterministic functions of the graph and the knobs, so reuse changes no
  float.
* **Request coalescing.**  :meth:`DetectionSession.detect_batch` folds many
  single-seed requests into one explicit-seed ``"batched"`` shard wave —
  the batched kernels make width nearly free, and per-seed results are
  independent of batch composition, so the coalesced answers are identical
  to one-at-a-time calls.

Every session call routes through the same facade
(``detect(graph, session=...)`` or the :meth:`DetectionSession.detect`
convenience) and produces a full :class:`~repro.api.RunReport` whose
computed payload — detections, cost totals, artifacts — is **bit-identical**
to the session-free facade at every worker count on both executors
(``tests/test_session.py`` pins it).  The report's metadata additionally
carries ``session_calls`` / ``session_broadcasts`` / ``session_pool_reused``
and the cache-hit flags, so reuse is observable without instrumentation.

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

import threading
from typing import TYPE_CHECKING, Iterable

import numpy as np
import scipy.sparse as sp

from .api import BackendOutcome, RunConfig, RunReport, _distribution_rows
from .core.parameters import CDRWParameters
from .core.result import DetectionResult
from .exceptions import AlgorithmError, BackendError, SessionBusyError
from .execution import EXECUTOR_PROCESS, resolve_executor, resolve_workers
from .graphs.graph import Graph

if TYPE_CHECKING:
    from .core.mixing_set import BatchedMixingSetSearch
    from .execution_process import ProcessGraphPool, SharedGraph

__all__ = ["DetectionSession"]


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
        # Derived-state caches (thread tier; δ serves both tiers).
        self._operators: dict[bool, sp.csr_matrix] = {}  # repro: guarded-by(_busy)
        self._searches: dict[
            tuple[object, ...], BatchedMixingSetSearch
        ] = {}  # repro: guarded-by(_busy)
        self._deltas: dict[
            tuple[CDRWParameters, float | None], float
        ] = {}  # repro: guarded-by(_busy)
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
        exactly ``workers`` shards.  Per-seed results are independent of
        batch composition (the PR 1/2 kernel contracts), so the answers are
        identical to ``len(seeds)`` one-at-a-time calls, at a fraction of
        the dispatch cost.

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
            self._operators.clear()
            self._searches.clear()
            self._deltas.clear()
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
    # Derived-state caches
    # ------------------------------------------------------------------
    def _walk_operator(self, lazy: bool) -> tuple[sp.csr_matrix, bool]:  # repro: requires(_busy)
        """The batched walk's transition operator for ``lazy``, cached.

        Construction is a deterministic function of the graph, so the cached
        copy is the exact matrix a fresh call would build (same floats, same
        sparsity) — injecting it changes no result.
        """
        operator = self._operators.get(lazy)
        if operator is not None:
            return operator, True
        from .randomwalk.transition import (
            lazy_transition_matrix,
            reverse_transition_matrix,
        )

        if lazy:
            operator = lazy_transition_matrix(self.graph).T.tocsr()
        else:
            operator = reverse_transition_matrix(self.graph)
        self._operators[lazy] = operator
        return operator, False

    def _search(  # repro: requires(_busy)
        self, params: CDRWParameters, workers: int | None, dtype: str | np.dtype
    ) -> tuple[BatchedMixingSetSearch, bool]:
        """The batched mixing-set search for these knobs, cached.

        The search is stateless across calls (PR 2 contract); it is keyed by
        everything its construction reads — parameters, the resolved initial
        size, the resolved worker count and the scan dtype.
        """
        initial_size = params.resolve_initial_size(self.graph)
        key = (params, initial_size, resolve_workers(workers), str(np.dtype(dtype)))
        search = self._searches.get(key)
        if search is not None:
            return search, True
        from .core.mixing_set import BatchedMixingSetSearch

        search = BatchedMixingSetSearch.from_parameters(
            self.graph, params, initial_size, workers=workers, dtype=np.dtype(dtype)
        )
        self._searches[key] = search
        return search, False

    def _resolve_delta(  # repro: requires(_busy)
        self, params: CDRWParameters, delta_hint: float | None
    ) -> tuple[float, bool]:
        """δ for these knobs, resolved once per ``(params, hint)``.

        ``resolve_delta`` is idempotent on its own output (the process tier
        already relies on this to ship δ pre-resolved to workers), so
        feeding the cached value back through the kernels' own resolution
        reproduces it exactly — including the spectral estimate, which a
        fresh call would otherwise recompute per call.
        """
        key = (params, delta_hint)
        cached = self._deltas.get(key)
        if cached is not None:
            return cached, True
        resolved = params.resolve_delta(self.graph, delta_hint)
        self._deltas[key] = resolved
        return resolved, False

    # ------------------------------------------------------------------
    # Process-tier residents
    # ------------------------------------------------------------------
    def _ensure_pool(self, workers: int | None) -> tuple[ProcessGraphPool, bool]:  # repro: requires(_busy)
        """The persistent worker pool, broadcasting the graph at most once.

        A worker-count change rebuilds only the executor; the shared-memory
        segments survive (the pool is constructed with ``shared=`` and does
        not own them), so ``session_broadcasts`` never exceeds 1.
        """
        from .execution_process import ProcessGraphPool, SharedGraph

        if self._shared is None:
            self._shared = SharedGraph(self.graph)
            with self._state_lock:
                self._broadcasts += 1
        resolved = resolve_workers(workers)
        if self._pool is not None and self._pool.workers == resolved:
            return self._pool, True
        if self._pool is not None:
            self._pool.close()
        self._pool = ProcessGraphPool(self.graph, resolved, shared=self._shared)
        return self._pool, False

    # ------------------------------------------------------------------
    # Backend entry points (called by the api runners when session= is set)
    # ------------------------------------------------------------------
    def _session_extras(self, **flags: object) -> dict[str, object]:
        with self._state_lock:
            extras: dict[str, object] = {
                "session_calls": self._calls,
                "session_broadcasts": self._broadcasts,
            }
        extras.update(flags)
        return extras

    def _ensure_open(self) -> None:
        with self._state_lock:
            closed = self._closed
        if closed:
            raise BackendError("the detection session is closed")

    #: SessionBusyError text shared by both backend entry points.
    _BUSY_MESSAGE = (
        "DetectionSession serves one call at a time: another detect() "
        "is already in flight on this session. Serialize callers, or "
        "put a repro.service.DetectionService in front to coalesce "
        "concurrent requests into waves."
    )

    def _run_batched(
        self,
        params: CDRWParameters | None,
        config: RunConfig,
        delta_hint: float | None,
    ) -> BackendOutcome:
        """The ``"batched"`` backend with this session's residents.

        Mirrors :func:`repro.api._batched_runner` stage for stage — same
        validation, same trivial fast path, same sharding / batching — with
        the per-call setup replaced by cache lookups, so the computed
        payload is bit-identical to the one-shot facade.
        """
        if not self._busy.acquire(blocking=False):
            raise SessionBusyError(self._BUSY_MESSAGE)
        try:
            self._ensure_open()
            params = params or CDRWParameters()
            with self._state_lock:
                self._calls += 1
            executor = resolve_executor(config.executor)
            if executor == EXECUTOR_PROCESS:
                return self._run_batched_process(params, config, delta_hint)
            return self._run_batched_thread(params, config, delta_hint, executor)
        finally:
            self._busy.release()

    def _run_batched_thread(  # repro: requires(_busy)
        self,
        params: CDRWParameters,
        config: RunConfig,
        delta_hint: float | None,
        executor: str,
    ) -> BackendOutcome:
        from .core.batched import _detect_communities_batched_impl

        graph = self.graph
        trivial = graph.num_edges == 0 or graph.num_vertices == 0
        if trivial:
            # The impl's edgeless fast path never touches the operator, the
            # search or δ; building them here could even divide by zero on
            # an edgeless graph, exactly like a fresh call never does.
            operator, search = None, None
            operator_reused = search_reused = delta_reused = False
            hint = delta_hint
        else:
            operator, operator_reused = self._walk_operator(params.lazy_walk)
            search, search_reused = self._search(params, config.workers, config.dtype)
            hint, delta_reused = self._resolve_delta(params, delta_hint)
        result = _detect_communities_batched_impl(
            graph,
            params,
            hint,
            seed=config.seed,
            max_seeds=config.max_seeds,
            batch_size=config.batch_size,
            seeds=config.seeds,
            workers=config.workers,
            dtype=np.dtype(config.dtype),
            capture_distributions=config.capture_distributions,
            capture_history=config.capture_history,
            walk_operator=operator,
            search=search,
        )
        artifacts: dict[str, object] = {}
        finals = None
        if config.capture_distributions:
            detection, finals = result
            artifacts["final_distributions"] = _distribution_rows(finals)
        else:
            detection = result
        extras = self._session_extras(
            executor=executor,
            session_operator_reused=operator_reused,
            session_search_reused=search_reused,
            session_delta_reused=delta_reused,
        )
        return BackendOutcome(
            detection=detection, extras=extras, artifacts=artifacts, native=finals
        )

    def _run_batched_process(  # repro: requires(_busy)
        self, params: CDRWParameters, config: RunConfig, delta_hint: float | None
    ) -> BackendOutcome:
        from .execution_process import (
            _is_trivial,
            _pool_outcome,
            _run_batched_on_pool,
            _trivial_batched_outcome,
            _validate_batched_seeds,
        )

        graph = self.graph
        explicit = _validate_batched_seeds(
            graph, config.seeds, config.max_seeds, config.batch_size
        )
        if _is_trivial(graph, explicit, config.seeds is not None):
            outcome = _trivial_batched_outcome(
                graph,
                params,
                delta_hint,
                seed=config.seed,
                max_seeds=config.max_seeds,
                batch_size=config.batch_size,
                explicit=explicit,
                seeds_given=config.seeds is not None,
                dtype=config.dtype,
                capture_distributions=config.capture_distributions,
                capture_history=config.capture_history,
            )
            extras = self._session_extras(
                session_pool_reused=False, session_delta_reused=False
            )
        else:
            delta, delta_reused = self._resolve_delta(params, delta_hint)
            pool, pool_reused = self._ensure_pool(config.workers)
            mark = pool.mark()
            results, finals = _run_batched_on_pool(
                pool,
                graph,
                params,
                delta,
                explicit=explicit,
                seed=config.seed,
                max_seeds=config.max_seeds,
                batch_size=config.batch_size,
                capture_distributions=config.capture_distributions,
                dtype=config.dtype,
                capture_history=config.capture_history,
            )
            detection = DetectionResult(
                num_vertices=graph.num_vertices, communities=tuple(results)
            )
            outcome = _pool_outcome(pool, detection, finals, since=mark)
            extras = self._session_extras(
                session_pool_reused=pool_reused, session_delta_reused=delta_reused
            )
        artifacts: dict[str, object] = {}
        finals = None
        if config.capture_distributions and outcome.final_distributions is not None:
            finals = outcome.final_distributions
            artifacts["final_distributions"] = _distribution_rows(finals)
        extras = {**outcome.extras, **extras}
        return BackendOutcome(
            detection=outcome.detection,
            timings=dict(outcome.timings),
            extras=extras,
            artifacts=artifacts,
            native=finals,
        )

    def _run_parallel(
        self,
        params: CDRWParameters | None,
        config: RunConfig,
        delta_hint: float | None,
    ) -> BackendOutcome:
        """The ``"parallel"`` backend with this session's residents.

        Mirrors :func:`repro.api._parallel_runner` stage for stage: seed
        spreading and conflict resolution stay in the calling process with
        the exact one-shot draw sequence; only the setup is cached.
        """
        if not self._busy.acquire(blocking=False):
            raise SessionBusyError(self._BUSY_MESSAGE)
        try:
            self._ensure_open()
            params = params or CDRWParameters()
            with self._state_lock:
                self._calls += 1
            executor = resolve_executor(config.executor)
            if executor == EXECUTOR_PROCESS:
                return self._run_parallel_process(params, config, delta_hint)
            return self._run_parallel_thread(params, config, delta_hint, executor)
        finally:
            self._busy.release()

    def _run_parallel_thread(  # repro: requires(_busy)
        self,
        params: CDRWParameters,
        config: RunConfig,
        delta_hint: float | None,
        executor: str,
    ) -> BackendOutcome:
        from .core.parallel import _detect_communities_parallel_impl

        graph = self.graph
        if graph.num_edges == 0 or graph.num_vertices == 0:
            operator, search = None, None
            operator_reused = search_reused = delta_reused = False
            hint = delta_hint
        else:
            operator, operator_reused = self._walk_operator(params.lazy_walk)
            search, search_reused = self._search(params, config.workers, config.dtype)
            hint, delta_reused = self._resolve_delta(params, delta_hint)
        detection = _detect_communities_parallel_impl(
            graph,
            config.num_communities,
            params,
            hint,
            seed=config.seed,
            overlap_merge_threshold=config.overlap_merge_threshold,
            seed_min_distance=config.seed_min_distance,
            workers=config.workers,
            capture_history=config.capture_history,
            walk_operator=operator,
            search=search,
        )
        extras = self._session_extras(
            executor=executor,
            session_operator_reused=operator_reused,
            session_search_reused=search_reused,
            session_delta_reused=delta_reused,
        )
        return BackendOutcome(detection=detection, extras=extras)

    def _run_parallel_process(  # repro: requires(_busy)
        self, params: CDRWParameters, config: RunConfig, delta_hint: float | None
    ) -> BackendOutcome:
        from .core.batched import _detect_community_batch_impl
        from .core.parallel import _merge_and_resolve, select_spread_seeds
        from .execution_process import (
            _pool_outcome,
            _run_parallel_on_pool,
            _serial_outcome,
            _validate_parallel_args,
        )
        from .utils import as_rng

        graph = self.graph
        _validate_parallel_args(
            config.num_communities, config.overlap_merge_threshold
        )
        rng = as_rng(config.seed)
        spread = select_spread_seeds(
            graph,
            config.num_communities,
            min_distance=config.seed_min_distance,
            seed=rng,
        )
        if graph.num_edges == 0:
            raw_results, distributions = _detect_community_batch_impl(
                graph,
                spread,
                params,
                delta_hint,
                capture_distributions=True,
                workers=1,
                capture_history=config.capture_history,
            )
            resolved = _merge_and_resolve(
                list(raw_results), distributions, config.overlap_merge_threshold
            )
            detection = DetectionResult(
                num_vertices=graph.num_vertices, communities=tuple(resolved)
            )
            outcome = _serial_outcome(detection, None)
            extras = self._session_extras(
                session_pool_reused=False, session_delta_reused=False
            )
        else:
            delta, delta_reused = self._resolve_delta(params, delta_hint)
            pool, pool_reused = self._ensure_pool(config.workers)
            mark = pool.mark()
            detection = _run_parallel_on_pool(
                pool,
                graph,
                params,
                delta,
                spread,
                config.overlap_merge_threshold,
                capture_history=config.capture_history,
            )
            outcome = _pool_outcome(pool, detection, None, since=mark)
            extras = self._session_extras(
                session_pool_reused=pool_reused, session_delta_reused=delta_reused
            )
        return BackendOutcome(
            detection=outcome.detection,
            timings=dict(outcome.timings),
            extras={**outcome.extras, **extras},
        )
