"""JSON-lines-over-TCP front end for :class:`~repro.service.DetectionService`.

The wire protocol is deliberately minimal — one JSON object per line, one
reply line per request line, strictly in order per connection:

request::

    {"op": "detect", "seed": 42, "id": 7}            # id optional, echoed
    {"op": "detect", "seed": 42, "deadline": 0.25}   # seconds from admission
    {"op": "metrics", "id": 8}
    {"op": "ping"}

reply::

    {"id": 7, "ok": true, "report": {...RunReport.to_dict()...}}
    {"id": 8, "ok": true, "metrics": {...service.metrics()...}}
    {"id": null, "ok": false, "kind": "overloaded", "error": "..."}

``kind`` maps 1:1 onto the typed service errors (any other exception in
the server answers with kind ``internal``, a :class:`ServiceError` on the
client, and the connection stays open), so
:class:`ServiceClient` re-raises the same exception class the in-process
surface would have raised — callers cannot tell a socket hop happened
except by latency.  Concurrency comes from connections: each connection
is strict request/reply, and every concurrently-connected client feeds
the same admission queue, so coalescing happens across connections
exactly as it does across threads.

Three building blocks:

* :class:`ServiceServer` — the asyncio server; handlers only await (the
  REP108 lint rule keeps blocking calls out of these coroutines).
* :class:`BackgroundServer` — runs a :class:`ServiceServer` on a
  dedicated event-loop thread; the embedding surface for tests, CI and
  the examples.
* :class:`ServiceClient` — blocking socket client with the same typed
  errors as the in-process surface.

``repro serve --port N`` (see :mod:`repro.cli`) wires a graph, a
:class:`~repro.service.DetectionService` and this server together into a
network daemon.  This is also the first concrete transport step toward
ROADMAP item 4's multi-host executor: the framing and error taxonomy
here are what a shard-exchange transport would reuse.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import socket
import sys
import threading
from typing import TYPE_CHECKING, Any

from .api import RunReport
from .exceptions import (
    AlgorithmError,
    BackendError,
    DeadlineExpiredError,
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    SessionBusyError,
    WorkerCrashedError,
)

if TYPE_CHECKING:
    from .service import DetectionService

__all__ = ["BackgroundServer", "ServiceClient", "ServiceServer", "run_server"]

DEFAULT_HOST = "127.0.0.1"

_log = logging.getLogger(__name__)

#: Longest request line the server reads (asyncio's default stream limit,
#: stated so the oversized-line reply can name it).
_MAX_LINE_BYTES = 64 * 1024

# Wire error taxonomy: first matching class wins (most specific first).
_KIND_OF_ERROR: tuple[tuple[type[ReproError], str], ...] = (
    (ServiceOverloadedError, "overloaded"),
    (DeadlineExpiredError, "deadline-expired"),
    (ServiceClosedError, "service-closed"),
    (SessionBusyError, "session-busy"),
    (WorkerCrashedError, "error"),  # a server fault, not a bad request
    (AlgorithmError, "invalid-seed"),
    (BackendError, "invalid-request"),
    (ReproError, "error"),
)
_ERROR_OF_KIND: dict[str, type[ReproError]] = {
    "overloaded": ServiceOverloadedError,
    "deadline-expired": DeadlineExpiredError,
    "service-closed": ServiceClosedError,
    "session-busy": SessionBusyError,
    "invalid-seed": AlgorithmError,
    "invalid-request": BackendError,
    "bad-request": BackendError,
    "internal": ServiceError,
    "error": ServiceError,
}


def _kind_of(error: ReproError) -> str:
    for exc_type, kind in _KIND_OF_ERROR:
        if isinstance(error, exc_type):
            return kind
    return "error"  # pragma: no cover - ReproError catches everything above


def _encode(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def _shared_strings(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A decoded JSON object whose keys and string values are interned.

    Every reply repeats the same keys and labels; interned, the reports a
    client keeps share one copy of each instead of holding their own.
    """
    return {
        sys.intern(key): sys.intern(value) if type(value) is str else value
        for key, value in pairs
    }


_decode_reply = json.JSONDecoder(object_pairs_hook=_shared_strings).decode


class ServiceServer:
    """Serve a :class:`~repro.service.DetectionService` over JSON lines.

    ``port=0`` (the default) binds an ephemeral port; :meth:`start`
    publishes the bound address on ``self.host`` / ``self.port``.
    """

    def __init__(
        self, service: "DetectionService", host: str = DEFAULT_HOST, port: int = 0
    ) -> None:
        self._service = service
        self.host = host
        self.port = port
        self._server: asyncio.Server | None = None

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting connections; returns ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=_MAX_LINE_BYTES
        )
        bound = self._server.sockets[0].getsockname()
        self.host, self.port = bound[0], bound[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ServiceError("server is not started; call start() first")
        await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The line outgrew the stream limit.  Its unread rest
                    # cannot be re-framed, so answer once and hang up.
                    error = self._error(
                        None,
                        "bad-request",
                        f"request line exceeds {_MAX_LINE_BYTES} bytes",
                    )
                    writer.write(_encode(error))
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._respond(line)
                writer.write(_encode(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-reply; nothing to salvage
        finally:
            writer.close()

    async def _respond(self, raw: bytes) -> dict[str, Any]:
        try:
            message = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return self._error(None, "bad-request", f"unparseable request: {error}")
        if not isinstance(message, dict):
            return self._error(
                None, "bad-request", "request must be a JSON object per line"
            )
        ident = message.get("id")
        op = message.get("op", "detect")
        try:
            if op == "ping":
                return {"id": ident, "ok": True, "pong": True}
            if op == "metrics":
                return {"id": ident, "ok": True, "metrics": self._service.metrics()}
            if op == "detect":
                return await self._respond_detect(ident, message)
        except Exception as error:
            # A fault of the server itself: record it, answer it and keep
            # the connection, like a typed error.
            _log.exception("%s request %r failed", op, ident)
            return self._error(ident, "internal", f"{type(error).__name__}: {error}")
        return self._error(
            ident, "bad-request", f"unknown op {op!r}; expected detect/metrics/ping"
        )

    async def _respond_detect(
        self, ident: object, message: dict[str, Any]
    ) -> dict[str, Any]:
        seed = message.get("seed")
        if isinstance(seed, bool) or not isinstance(seed, int):
            return self._error(
                ident, "bad-request", "detect needs an integer 'seed' field"
            )
        deadline = message.get("deadline")
        if deadline is not None and (
            isinstance(deadline, bool) or not isinstance(deadline, (int, float))
        ):
            return self._error(
                ident, "bad-request", "'deadline' must be a number of seconds"
            )
        try:
            report = await self._service.detect(seed, deadline=deadline)
        except ReproError as error:
            return self._error(ident, _kind_of(error), str(error))
        return {"id": ident, "ok": True, "report": report.to_dict()}

    @staticmethod
    def _error(ident: object, kind: str, message: str) -> dict[str, Any]:
        return {"id": ident, "ok": False, "kind": kind, "error": message}


class BackgroundServer:
    """Run a :class:`ServiceServer` on a dedicated event-loop thread.

    The embedding surface for synchronous programs (tests, CI smoke steps,
    the example script): ``start()`` blocks until the socket is bound and
    returns ``(host, port)``; ``stop()`` shuts the loop down and joins the
    thread.  Also usable as a context manager.
    """

    def __init__(
        self, service: "DetectionService", host: str = DEFAULT_HOST, port: int = 0
    ) -> None:
        self._service = service
        self._requested = (host, port)
        self.host = host
        self.port = port
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        if self._thread is not None:
            raise ServiceError("background server already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-service-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise ServiceError("background server did not start within 30 s")
        if self._startup_error is not None:
            raise ServiceError(
                f"background server failed to start: {self._startup_error}"
            ) from self._startup_error
        return self.host, self.port

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            stop_event = self._stop_event
            self._loop.call_soon_threadsafe(stop_event.set)
        self._thread.join(timeout=30)
        self._thread = None

    def __enter__(self) -> "BackgroundServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        server = ServiceServer(self._service, *self._requested)
        try:
            self.host, self.port = await server.start()
        except OSError as error:
            self._startup_error = error
            self._started.set()
            return
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            await server.aclose()


def run_server(
    service: "DetectionService", host: str = DEFAULT_HOST, port: int = 0
) -> None:
    """Blocking entry point: bind, announce, serve until interrupted."""
    asyncio.run(_serve_main(service, host, port))


async def _serve_main(service: "DetectionService", host: str, port: int) -> None:
    server = ServiceServer(service, host, port)
    bound_host, bound_port = await server.start()
    print(f"serving detections on {bound_host}:{bound_port}", flush=True)
    try:
        # Let a Ctrl-C cancellation propagate: swallowing it here would
        # make asyncio.run() return normally and the CLI would never see
        # the KeyboardInterrupt it announces graceful draining on.
        await server.serve_forever()
    finally:
        await server.aclose()


class ServiceClient:
    """Blocking JSON-lines client with the in-process error surface.

    One connection serves one request at a time (an internal lock
    serializes round trips); open one client per concurrent caller — the
    server coalesces across connections.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")
        self._ids = itertools.count()
        self._lock = threading.Lock()

    def detect(self, seed: int, *, deadline: float | None = None) -> RunReport:
        """Request one detection; returns the per-request report."""
        message: dict[str, Any] = {"op": "detect", "seed": int(seed)}
        if deadline is not None:
            message["deadline"] = float(deadline)
        response = self._roundtrip(message)
        try:
            report = response["report"]
        except KeyError as error:
            raise ServiceError(f"malformed detect reply: {response!r}") from error
        if not isinstance(report, dict):
            raise ServiceError(f"malformed detect reply: {response!r}")
        try:
            return RunReport.from_dict(report)
        except BackendError as error:
            raise ServiceError(f"malformed detect reply: {error}") from error

    def metrics(self) -> dict[str, Any]:
        """Fetch the service's metrics snapshot."""
        response = self._roundtrip({"op": "metrics"})
        try:
            metrics = response["metrics"]
        except KeyError as error:
            raise ServiceError(f"malformed metrics reply: {response!r}") from error
        if not isinstance(metrics, dict):
            raise ServiceError("malformed metrics reply")
        return metrics

    def ping(self) -> bool:
        """Liveness probe; true iff the server answered."""
        return bool(self._roundtrip({"op": "ping"}).get("pong"))

    def close(self) -> None:
        self._reader.close()
        self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _roundtrip(self, message: dict[str, Any]) -> dict[str, Any]:
        with self._lock:
            ident = next(self._ids)
            message["id"] = ident
            self._sock.sendall(_encode(message))
            line = self._reader.readline()
        if not line:
            raise ServiceError("server closed the connection")
        try:
            response = _decode_reply(line.decode("utf-8"))
        except ValueError as error:  # a cut-off line, or bytes that are not UTF-8
            raise ServiceError(f"malformed reply: {error}") from error
        if not isinstance(response, dict):
            raise ServiceError(f"malformed reply: {response!r}")
        if response.get("id") != ident:
            raise ServiceError(
                f"reply id {response.get('id')!r} does not match request {ident}"
            )
        if not response.get("ok"):
            kind = str(response.get("kind", "error"))
            error = str(response.get("error", "unspecified server error"))
            raise _ERROR_OF_KIND.get(kind, ServiceError)(error)
        return response
