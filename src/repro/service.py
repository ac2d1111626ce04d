"""Concurrent detection front end: admission queue, wave coalescing, backpressure.

:class:`~repro.session.DetectionSession` made the engine resident (one
broadcast, persistent pool, cached operators) but serves **one call at a
time** by contract.  :class:`DetectionService` is the concurrent front end
the ROADMAP names on top of it — the "millions of users querying one big
social graph" shape:

* **Admission queue + dispatcher.**  Clients from any thread (or any
  asyncio task) submit single-seed requests; a single dispatcher thread
  drains the queue into :meth:`DetectionSession.detect_batch` waves.  The
  session never sees concurrency, so its caches stay race-free by
  construction.
* **Wave coalescing.**  Requests that are pending together run together:
  one batched shard wave answers up to ``max_wave`` distinct seeds, and
  duplicate seeds within a wave are folded onto one slot with the answer
  fanned out to every requester.  Because per-seed results are independent
  of batch composition (the PR 1/2 kernel contracts),
  :func:`repro.api.split_batched_report` slices the wave report into
  per-request reports whose payloads are **bit-identical** to one-shot
  ``detect()`` calls (``tests/test_service.py`` pins this on both
  executors at workers ∈ {1, 2, 4}).
* **Backpressure.**  The queue is bounded (``max_pending``); a full queue
  rejects new requests with :class:`~repro.exceptions.ServiceOverloadedError`
  instead of letting latency grow without bound.
* **Deadlines.**  A request may carry a deadline (seconds from admission);
  requests whose deadline has passed when their wave is formed are failed
  with :class:`~repro.exceptions.DeadlineExpiredError` and never reach the
  kernels.
* **Graceful shutdown.**  :meth:`DetectionService.close` stops admissions
  and, by default, drains every pending request before releasing the
  session; ``close(drain=False)`` fails pending requests with
  :class:`~repro.exceptions.ServiceClosedError` instead.
* **Failed waves.**  A wave that raises fails each of its requests with a
  typed :class:`~repro.exceptions.ReproError` (anything else is wrapped in
  :class:`~repro.exceptions.ServiceError`, the original as ``__cause__``),
  counts one ``wave_failures`` and leaves the service serving.

Two client surfaces share the same queue:

* synchronous — :meth:`submit` returns a
  :class:`concurrent.futures.Future`; call ``.result(timeout)`` from any
  thread;
* asynchronous — ``await service.detect(seed)`` wraps the same future
  with :func:`asyncio.wrap_future`, so coroutines never block the event
  loop (the REP108 lint rule enforces this discipline for the whole
  service package).

Every reply's metadata carries the service observability surface:
per-wave facts (``service_wave``, ``service_wave_size``,
``service_queue_wait_seconds``) plus a ``service_metrics`` snapshot with
the wave-size histogram, queue-wait totals, coalescing ratio and
rejected/expired counts.  :mod:`repro.service_net` puts this service
behind a JSON-lines-over-TCP socket (``repro serve``).

Usage::

    config = RunConfig(executor="process", workers=4)
    with DetectionService(graph, config=config) as service:
        future = service.submit(seed)          # from any thread
        report = future.result(timeout=60)
        report = await service.detect(seed)    # from any event loop
"""

from __future__ import annotations

import asyncio
import math
import operator
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, replace

from .api import RunConfig, RunReport, split_batched_report
from .core.parameters import CDRWParameters
from .exceptions import (
    AlgorithmError,
    BackendError,
    DeadlineExpiredError,
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from .graphs.graph import Graph
from .session import DetectionSession

__all__ = ["DetectionService"]


@dataclass
class _Admitted:
    """One admitted request, queued until its wave forms."""

    seed: int
    admitted_at: float
    deadline_at: float | None
    future: "Future[RunReport]"


class DetectionService:
    """Serve concurrent single-seed detections by coalescing them into waves.

    Parameters
    ----------
    graph:
        Build and own a fresh :class:`~repro.session.DetectionSession` on
        this graph (closed with the service).  Mutually exclusive with
        ``session``.
    session:
        Serve an existing session instead (left open when the service
        closes; the caller keeps ownership).  The session's own ``config``
        / ``params`` defaults drive every wave.
    config, params, delta_hint:
        Forwarded to the owned session when ``graph`` is given.
    max_pending:
        Admission-queue bound; a full queue rejects with
        :class:`~repro.exceptions.ServiceOverloadedError`.
    max_wave:
        Largest number of distinct seeds coalesced into one
        ``detect_batch`` wave.
    start:
        Start the dispatcher thread immediately (default).  ``start=False``
        leaves the queue accumulating until :meth:`start` — deterministic
        full coalescing, used by tests and benchmarks.
    """

    def __init__(
        self,
        graph: Graph | None = None,
        *,
        session: DetectionSession | None = None,
        config: RunConfig | None = None,
        params: CDRWParameters | None = None,
        delta_hint: float | None = None,
        max_pending: int = 1024,
        max_wave: int = 64,
        start: bool = True,
    ) -> None:
        if (graph is None) == (session is None):
            raise BackendError(
                "DetectionService needs exactly one of graph= (own a fresh "
                "session) or session= (serve an existing one)"
            )
        if session is not None and (
            config is not None or params is not None or delta_hint is not None
        ):
            raise BackendError(
                "config/params/delta_hint belong to the session: set them "
                "where the DetectionSession is constructed"
            )
        if max_pending < 1:
            raise BackendError(f"max_pending must be >= 1, got {max_pending}")
        if max_wave < 1:
            raise BackendError(f"max_wave must be >= 1, got {max_wave}")
        if session is None:
            assert graph is not None
            session = DetectionSession(
                graph, config=config, params=params, delta_hint=delta_hint
            )
            self._owns_session = True
        else:
            self._owns_session = False
        self._session = session
        self.max_pending = int(max_pending)
        self.max_wave = int(max_wave)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._queue: deque[_Admitted] = deque()  # repro: guarded-by(_lock)
        self._dispatcher: threading.Thread | None = None  # repro: guarded-by(_lock)
        self._closing = False  # repro: guarded-by(_lock) -- no new admissions
        self._stop = False  # repro: guarded-by(_lock) -- exit once drained
        self._closed = False  # repro: guarded-by(_lock)
        # Observability counters (all guarded by self._lock).
        self._admitted = 0
        self._served = 0
        self._rejected = 0
        self._expired = 0
        self._cancelled = 0
        self._abandoned = 0
        self._waves = 0
        self._wave_failures = 0
        self._wave_sizes: dict[int, int] = {}
        self._wave_requests_max = 0
        self._duplicates = 0
        self._queue_wait_total = 0.0
        self._queue_wait_max = 0.0
        if start:
            self.start()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    @property
    def session(self) -> DetectionSession:
        """The resident session the dispatcher serves waves on."""
        return self._session

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def start(self) -> "DetectionService":
        """Start the dispatcher thread (idempotent)."""
        with self._wake:
            if self._closing or self._closed:
                raise ServiceClosedError("the detection service is closed")
            if self._dispatcher is None:
                self._dispatcher = self._spawn_dispatcher()
        return self

    def submit(
        self, seed: int, *, deadline: float | None = None
    ) -> "Future[RunReport]":
        """Admit one single-seed request; thread-safe.

        Returns a :class:`concurrent.futures.Future` resolving to the
        per-request :class:`~repro.api.RunReport` (or raising the typed
        service error).  ``deadline`` is a budget in seconds from
        admission: a request still queued when the budget runs out is
        failed with :class:`~repro.exceptions.DeadlineExpiredError` at
        wave formation instead of occupying a wave slot.

        The seed and deadline are validated synchronously — a bad request
        never reaches the queue, so it cannot poison a wave for well-formed
        neighbours.  A deadline must be a finite number ``>= 0``; ``0``
        expires at the next wave formation.
        """
        seed_vertex = self._validate_seed(seed)
        budget = None if deadline is None else self._validate_deadline(deadline)
        now = time.monotonic()
        deadline_at = None if budget is None else now + budget
        with self._wake:
            if self._closing or self._closed:
                raise ServiceClosedError(
                    "the detection service is closed to new requests"
                )
            if len(self._queue) >= self.max_pending:
                self._rejected += 1
                raise ServiceOverloadedError(
                    f"admission queue is full ({self.max_pending} requests "
                    f"pending); retry with backoff"
                )
            # The reply future is only constructed once admission is
            # certain: a rejection path must never strand a pending future
            # (REP204 — a caller holding one would wait forever).
            future: "Future[RunReport]" = Future()
            self._queue.append(
                _Admitted(
                    seed=seed_vertex,
                    admitted_at=now,
                    deadline_at=deadline_at,
                    future=future,
                )
            )
            self._admitted += 1
            self._wake.notify()
        return future

    async def detect(self, seed: int, *, deadline: float | None = None) -> RunReport:
        """Asynchronous client: await one single-seed detection.

        Admission (and its typed rejections) happens synchronously; the
        wait for the wave is a plain await on the wrapped future, so the
        event loop never blocks on detection work.
        """
        return await asyncio.wrap_future(self.submit(seed, deadline=deadline))

    def metrics(self) -> dict[str, object]:
        """JSON-safe snapshot of the service counters."""
        with self._lock:
            return self._metrics_locked()

    def close(self, drain: bool = True) -> None:
        """Stop admissions and shut the dispatcher down.

        ``drain=True`` (default) serves every already-admitted request —
        in-flight waves finish and the queue empties — before the
        dispatcher exits.  ``drain=False`` fails pending requests with
        :class:`~repro.exceptions.ServiceClosedError` immediately.  An
        owned session is closed afterwards; an adopted one is left open.
        """
        abandoned: list[_Admitted] = []
        with self._wake:
            if self._closed:
                return
            self._closing = True
            if drain and self._queue and self._dispatcher is None:
                # Never-started service (start=False): drain needs a
                # dispatcher, so bring one up just to empty the queue.
                self._dispatcher = self._spawn_dispatcher()
            if not drain:
                abandoned = list(self._queue)
                self._queue.clear()
                self._abandoned += len(abandoned)
            self._stop = True
            dispatcher = self._dispatcher
            self._wake.notify_all()
        for request in abandoned:
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(
                    ServiceClosedError(
                        "the detection service was closed before this "
                        "request could run"
                    )
                )
        if dispatcher is not None:
            dispatcher.join()
        with self._wake:
            self._closed = True
        if self._owns_session:
            self._session.close()

    def __enter__(self) -> "DetectionService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            state = "closed" if self._closed else "open"
            pending = len(self._queue)
            waves = self._waves
        return (
            f"DetectionService({self._session.graph!r}, pending={pending}, "
            f"waves={waves}, {state})"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _validate_seed(self, seed: int) -> int:
        try:
            seed_vertex = operator.index(seed)
        except TypeError:
            raise BackendError(
                f"seed vertex must be an integer, got {type(seed).__name__}"
            ) from None
        if not 0 <= seed_vertex < self._session.graph.num_vertices:
            raise AlgorithmError(
                f"seed vertex {seed_vertex} is not a vertex of "
                f"{self._session.graph!r}"
            )
        return seed_vertex

    @staticmethod
    def _validate_deadline(deadline: float) -> float:
        # NaN and infinity would never compare as expired, and a bool is an
        # int to float(): all three would silently mean something else.
        if isinstance(deadline, bool):
            raise BackendError("deadline must be a number of seconds, got bool")
        try:
            budget = float(deadline)
        except (TypeError, ValueError):
            raise BackendError(
                f"deadline must be a number of seconds, got {type(deadline).__name__}"
            ) from None
        if not math.isfinite(budget) or budget < 0:
            raise BackendError(
                f"deadline must be a finite number of seconds >= 0, got {deadline!r}"
            )
        return budget

    def _spawn_dispatcher(self) -> threading.Thread:
        dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatcher", daemon=True
        )
        dispatcher.start()
        return dispatcher

    def _dispatch_loop(self) -> None:
        while True:
            with self._wake:
                while not self._queue and not self._stop:
                    self._wake.wait()
                if not self._queue:
                    return  # stop requested and fully drained
                width = min(len(self._queue), self.max_wave)
                wave = [self._queue.popleft() for _ in range(width)]
            self._run_wave(wave)

    def _run_wave(self, requests: list[_Admitted]) -> None:
        formed_at = time.monotonic()
        live: list[_Admitted] = []
        expired: list[_Admitted] = []
        cancelled = 0
        for request in requests:
            if not request.future.set_running_or_notify_cancel():
                cancelled += 1  # client cancelled before wave formation
                continue
            if request.deadline_at is not None and formed_at >= request.deadline_at:
                expired.append(request)
                continue
            live.append(request)
        for request in expired:
            waited = formed_at - request.admitted_at
            request.future.set_exception(
                DeadlineExpiredError(
                    f"request for seed {request.seed} expired in the "
                    f"admission queue after {waited:.3f} s, before wave "
                    f"formation"
                )
            )
        if not live:
            with self._lock:
                self._expired += len(expired)
                self._cancelled += cancelled
            return
        # Duplicate seeds occupy one wave slot; the answer fans out.
        unique_seeds: list[int] = []
        positions: dict[int, int] = {}
        for request in live:
            if request.seed not in positions:
                positions[request.seed] = len(unique_seeds)
                unique_seeds.append(request.seed)
        wave_started = time.monotonic()
        try:
            wave_report = self._session.detect_batch(tuple(unique_seeds))
            singles = split_batched_report(wave_report)
        except Exception as error:
            # Callers only ever see typed errors: anything else is wrapped,
            # with the original kept as the cause.
            if not isinstance(error, ReproError):
                wrapped = ServiceError(f"wave failed: {type(error).__name__}: {error}")
                wrapped.__cause__ = error
                error = wrapped
            for request in live:
                request.future.set_exception(error)
            with self._lock:
                self._expired += len(expired)
                self._cancelled += cancelled
                self._wave_failures += 1
            return
        wave_seconds = time.monotonic() - wave_started
        with self._lock:
            self._waves += 1
            wave_index = self._waves
            self._served += len(live)
            self._duplicates += len(live) - len(unique_seeds)
            self._wave_sizes[len(unique_seeds)] = (
                self._wave_sizes.get(len(unique_seeds), 0) + 1
            )
            self._wave_requests_max = max(self._wave_requests_max, len(live))
            self._expired += len(expired)
            self._cancelled += cancelled
            for request in live:
                waited = formed_at - request.admitted_at
                self._queue_wait_total += waited
                self._queue_wait_max = max(self._queue_wait_max, waited)
            snapshot = self._metrics_locked()
        for request in live:
            single = singles[positions[request.seed]]
            waited = formed_at - request.admitted_at
            timings = dict(single.timings)
            timings["service_queue_wait_seconds"] = waited
            timings["service_wave_seconds"] = wave_seconds
            metadata = dict(single.metadata)
            metadata.update(
                service_wave=wave_index,
                service_wave_size=len(unique_seeds),
                service_wave_requests=len(live),
                service_coalesced=len(live) > 1,
                service_metrics=dict(snapshot),
            )
            request.future.set_result(
                replace(single, timings=timings, metadata=metadata)
            )

    def _metrics_locked(self) -> dict[str, object]:  # repro: requires(_lock)
        served = self._served
        waves = self._waves
        return {
            "requests_admitted": self._admitted,
            "requests_served": served,
            "requests_rejected": self._rejected,
            "requests_expired": self._expired,
            "requests_cancelled": self._cancelled,
            "requests_abandoned": self._abandoned,
            "waves": waves,
            "wave_failures": self._wave_failures,
            "wave_sizes": {
                str(size): count for size, count in sorted(self._wave_sizes.items())
            },
            "wave_requests_max": self._wave_requests_max,
            "duplicate_requests_coalesced": self._duplicates,
            "coalescing_ratio": (served / waves) if waves else 0.0,
            "queue_wait_seconds_total": self._queue_wait_total,
            "queue_wait_seconds_max": self._queue_wait_max,
            "pending": len(self._queue),
            "max_pending": self.max_pending,
            "max_wave": self.max_wave,
        }
