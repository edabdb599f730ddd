"""The asyncio HTTP/1.1 front end over one :class:`VerificationService`.

No framework, no third-party dependencies: requests are parsed from
``asyncio`` streams by hand, one request per connection (every response
carries ``Connection: close``), and the only long-lived connections are
the Server-Sent-Events streams of ``GET /jobs/{id}/events``.

Endpoints (the :data:`ROUTES` table is the single source of truth;
every entry pairs with its ``_handle_<name>`` method and vice versa):

=======  =====================  ==============================================
method   path                   meaning
=======  =====================  ==============================================
POST     ``/jobs``              submit one manifest-format job → job id
GET      ``/jobs/{id}``         job status snapshot
GET      ``/jobs/{id}/events``  SSE stream of the job's ProgressEvents
POST     ``/jobs/{id}/cancel``  request cooperative cancellation
GET      ``/jobs/{id}/result``  the encoded report (``?timeout=S`` long-poll)
GET      ``/stats``             ``ServiceStats.as_dict()`` over the wire
GET      ``/cache/stats``       proof-cache counters (hits/misses/rejects)
GET      ``/healthz``           liveness + drain state
=======  =====================  ==============================================

**Event streams are replayable.**  The server records every event of
every job it submitted (events are small; counterexample traces never
travel).  A stream names its start cursor via the standard
``Last-Event-ID`` header or ``?after=N``: event ids are 1-based
sequence numbers per job, ``after=N`` means "resume with event N+1".  A
killed-and-reconnected stream therefore never drops or duplicates
events.  Streams end by themselves once the job's terminal
:class:`~repro.progress.JobFinished` has been delivered.

**Back-pressure is HTTP-visible.**  A submit that finds the bounded
admission queue full maps :class:`~repro.service.QueueFull` to ``429``
with a ``Retry-After`` hint; a draining or closed service answers
``503`` (and the service-side :class:`~repro.progress.ServiceSaturated`
event still reaches every subscribed stream).

**Shutdown is graceful.**  :meth:`VerificationServer.drain` — wired to
SIGINT/SIGTERM by :meth:`run` — stops admission (``503``), gives
running jobs ``drain_grace`` seconds to finish, cancels the stragglers,
waits for every job to reach a terminal state, lets open event streams
flush their final events, then closes the listener and the service.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import threading
import time
from dataclasses import dataclass, field

from urllib.parse import parse_qs, urlsplit

from ..circuit.aiger import parse_aag
from ..progress import JobFinished, ProgressEvent
from ..service import JobHandle, QueueFull, VerificationService
from ..session import ConfigError, UnknownStrategyError, VerificationConfig
from ..ts.system import TransitionSystem
from .codec import WIRE_VERSION, CodecError, encode_event, encode_report

__all__ = ["Route", "ROUTES", "VerificationServer", "BackgroundServer"]

#: Largest accepted request body (an inline ``design_text`` AIGER).
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Ceiling on one ``/result?timeout=`` long-poll leg (clients loop).
MAX_RESULT_WAIT_S = 60.0
#: How often an idle SSE stream re-checks its log (also bounds how
#: long a lost wakeup could stall a stream).
STREAM_POLL_S = 0.5


@dataclass(frozen=True)
class Route:
    """One row of the HTTP route table.

    ``pattern`` uses ``{name}`` placeholders for path parameters;
    ``handler`` names the ``_handle_<handler>`` coroutine on
    :class:`VerificationServer`.
    """

    method: str
    pattern: str
    handler: str


#: The route table: every route has a handler and every handler a
#: route (``tests/net/test_server.py`` pins the pairing).
ROUTES: tuple[Route, ...] = (
    Route("POST", "/jobs", "submit"),
    Route("GET", "/jobs/{id}", "job_status"),
    Route("GET", "/jobs/{id}/events", "job_events"),
    Route("POST", "/jobs/{id}/cancel", "job_cancel"),
    Route("GET", "/jobs/{id}/result", "job_result"),
    Route("GET", "/stats", "stats"),
    Route("GET", "/cache/stats", "cache_stats"),
    Route("GET", "/healthz", "health"),
)


def _compile_pattern(pattern: str) -> re.Pattern:
    out = []
    for part in re.split(r"(\{[a-z_]+\})", pattern):
        if part.startswith("{") and part.endswith("}"):
            out.append(f"(?P<{part[1:-1]}>[^/]+)")
        else:
            out.append(re.escape(part))
    return re.compile("^" + "".join(out) + "$")


_COMPILED: tuple[tuple[Route, re.Pattern], ...] = tuple(
    (route, _compile_pattern(route.pattern)) for route in ROUTES
)

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """An error response raised from request handling."""

    def __init__(self, status: int, message: str, *, retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


@dataclass
class _Request:
    method: str
    path: str
    query: dict[str, list[str]]
    headers: dict[str, str]
    body: bytes
    params: dict[str, str] = field(default_factory=dict)

    def json(self) -> dict:
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return payload

    def query_float(self, name: str, default: float) -> float:
        values = self.query.get(name)
        if not values:
            return default
        try:
            return float(values[0])
        except ValueError:
            raise _HttpError(400, f"query parameter {name!r} must be a number") from None

    def cursor(self) -> int:
        """The resume cursor: ``?after=N`` beats ``Last-Event-ID: N``."""
        raw = None
        values = self.query.get("after")
        if values:
            raw = values[0]
        elif "last-event-id" in self.headers:
            raw = self.headers["last-event-id"]
        if raw is None:
            return 0
        try:
            cursor = int(raw)
        except ValueError:
            raise _HttpError(400, f"bad event cursor {raw!r}") from None
        if cursor < 0:
            raise _HttpError(400, f"bad event cursor {raw!r}")
        return cursor


@dataclass
class _Response:
    status: int
    payload: dict
    retry_after: float | None = None

    def render(self) -> bytes:
        body = json.dumps(self.payload).encode("utf-8")
        extra = (
            f"Retry-After: {self.retry_after:g}\r\n"
            if self.retry_after is not None
            else ""
        )
        head = (
            f"HTTP/1.1 {self.status} {_STATUS_TEXT.get(self.status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"{extra}"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        return head.encode("latin-1") + body


class _EventLog:
    """The replayable, thread-safe event history of one job.

    Appends arrive on service/dispatcher threads; SSE readers live on
    the asyncio loop.  Events are encoded once at append time (the
    encoded dict is immutable shared data), ids are 1-based positions,
    and ``updated`` is pulsed onto the loop so idle streams wake
    promptly without polling hard.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._lock = threading.Lock()
        self._events: list[dict] = []
        self._done = False
        self.updated = asyncio.Event()

    def append(self, event: ProgressEvent) -> None:
        try:
            data = encode_event(event)
        except CodecError:
            # An unregistered (plugin) event must not fail the job just
            # because a stream is attached; ship an opaque stand-in.
            data = {"v": WIRE_VERSION, "kind": "event", "opaque": repr(event)}
        with self._lock:
            self._events.append(data)
            if isinstance(event, JobFinished):
                self._done = True
        try:
            self._loop.call_soon_threadsafe(self.updated.set)
        except RuntimeError:
            pass  # loop already closed: readers are gone anyway

    def snapshot(self, after: int) -> tuple[list[tuple[int, dict]], bool]:
        """``(events numbered > after, job finished?)``."""
        with self._lock:
            items = list(enumerate(self._events[after:], start=after + 1))
            return items, self._done


async def _wait_for_update(event: asyncio.Event, timeout: float) -> None:
    try:
        await asyncio.wait_for(event.wait(), timeout)
    except TimeoutError:
        pass


class VerificationServer:
    """One service, exposed over HTTP (see the module docstring)."""

    def __init__(
        self,
        service: VerificationService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        drain_grace: float = 10.0,
    ) -> None:
        if drain_grace < 0:
            raise ValueError(f"drain_grace must be >= 0, got {drain_grace!r}")
        self.service = service
        self.host = host
        self.port = port
        self.drain_grace = drain_grace
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.Server | None = None
        self._registry_lock = threading.Lock()
        self._handles: dict[str, JobHandle] = {}
        self._logs: dict[str, _EventLog] = {}
        self._draining = False
        self._open_streams = 0
        self._requests_served = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the actual ``(host, port)``."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Serve until ``stop`` is set, then drain gracefully."""
        if self._server is None:
            await self.start()
        await stop.wait()
        await self.drain()

    def run(self, *, on_ready=None) -> None:
        """Blocking entry point: serve until SIGINT/SIGTERM, then drain.

        ``on_ready(host, port)`` is called once the socket is bound —
        the CLI prints the listening address from it so callers
        (tests, CI) can discover an ephemeral port.
        """

        async def main() -> None:
            await self.start()
            if on_ready is not None:
                on_ready(self.host, self.port)
            loop = asyncio.get_running_loop()
            stop = asyncio.Event()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, stop.set)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    signal.signal(signum, lambda *_: stop.set())
            await self.serve_until(stop)

        asyncio.run(main())

    async def drain(self) -> None:
        """Stop admission, settle every job, flush streams, close.

        Jobs get ``drain_grace`` seconds to finish on their own;
        whatever still runs is cancelled (queued jobs immediately,
        pooled jobs cooperatively) and awaited to a terminal state.
        Open SSE streams are given time to deliver the terminal events
        they are owed before the listener closes.
        """
        self._draining = True
        loop = asyncio.get_running_loop()
        deadline = time.monotonic() + self.drain_grace
        while self._unfinished() and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        for handle in self._unfinished():
            await loop.run_in_executor(None, handle.cancel)
        # Cancellation is cooperative: properties already on a seat run
        # to completion, so this wait is bounded generously, not tightly.
        settle = time.monotonic() + max(30.0, self.drain_grace)
        while self._unfinished() and time.monotonic() < settle:
            await asyncio.sleep(0.05)
        flush = time.monotonic() + 5.0
        while self._open_streams and time.monotonic() < flush:
            await asyncio.sleep(0.05)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await loop.run_in_executor(None, self.service.close)

    def _unfinished(self) -> list[JobHandle]:
        with self._registry_lock:
            handles = list(self._handles.values())
        return [h for h in handles if not h.status.terminal]

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader, writer) -> None:
        try:
            try:
                request = await self._read_request(reader)
            except _HttpError as exc:
                writer.write(self._error_response(exc).render())
                await writer.drain()
                return
            if request is None:
                return
            self._requests_served += 1
            await self._dispatch(request, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away mid-exchange; nothing to salvage
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - platform noise
                pass

    @staticmethod
    async def _read_request(reader) -> _Request | None:
        try:
            line = await reader.readline()
        except ValueError:
            raise _HttpError(400, "request line too long") from None
        if not line:
            return None
        parts = line.decode("latin-1", "replace").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            try:
                raw = await reader.readline()
            except ValueError:
                raise _HttpError(400, "header line too long") from None
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.decode("latin-1", "replace").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body over {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        return _Request(
            method=method,
            path=split.path,
            query=parse_qs(split.query),
            headers=headers,
            body=body,
        )

    async def _dispatch(self, request: _Request, writer) -> None:
        matched_path = False
        for route, pattern in _COMPILED:
            match = pattern.match(request.path)
            if match is None:
                continue
            matched_path = True
            if route.method != request.method:
                continue
            request.params = match.groupdict()
            handler = getattr(self, f"_handle_{route.handler}")
            try:
                response = await handler(request, writer)
            except _HttpError as exc:
                response = self._error_response(exc)
            except Exception as exc:  # noqa: BLE001 - must answer the client
                response = _Response(
                    500, {"v": WIRE_VERSION, "error": f"{type(exc).__name__}: {exc}"}
                )
            if response is not None:  # streaming handlers answer inline
                writer.write(response.render())
                await writer.drain()
            return
        status = 405 if matched_path else 404
        message = (
            f"no route for {request.method} {request.path}"
            if matched_path
            else f"unknown path {request.path}"
        )
        writer.write(_Response(status, {"v": WIRE_VERSION, "error": message}).render())
        await writer.drain()

    @staticmethod
    def _error_response(exc: _HttpError) -> _Response:
        return _Response(
            exc.status,
            {"v": WIRE_VERSION, "error": exc.message},
            retry_after=exc.retry_after,
        )

    def _job(self, request: _Request) -> tuple[JobHandle, _EventLog]:
        job_id = request.params.get("id", "")
        with self._registry_lock:
            handle = self._handles.get(job_id)
            log = self._logs.get(job_id)
        if handle is None or log is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        return handle, log

    # ------------------------------------------------------------------
    # Handlers (one per ROUTES row)
    # ------------------------------------------------------------------
    async def _handle_submit(self, request: _Request, writer) -> _Response:
        if self._draining or self.service.closed:
            raise _HttpError(
                503, "service is draining; resubmit elsewhere", retry_after=5
            )
        spec = request.json()
        loop = asyncio.get_running_loop()
        assert self._loop is not None
        try:
            handle = await loop.run_in_executor(None, self._submit_blocking, spec)
        except QueueFull as exc:
            raise _HttpError(
                429,
                f"admission queue full ({exc.pending}/{exc.limit} pending)",
                retry_after=1,
            ) from None
        except (ConfigError, UnknownStrategyError, ValueError) as exc:
            raise _HttpError(400, str(exc)) from None
        except OSError as exc:
            raise _HttpError(400, f"cannot load design: {exc}") from None
        return _Response(
            201,
            {
                "v": WIRE_VERSION,
                "job": handle.job_id,
                "status": handle.status.value,
                "design": handle.design_name,
                "strategy": handle.strategy,
                "priority": handle.priority,
            },
        )

    def _submit_blocking(self, spec: dict) -> JobHandle:
        """Parse one manifest-format job spec and submit it (executor)."""
        spec = dict(spec)
        design_text = spec.pop("design_text", None)
        design_path = spec.pop("design", None)
        priority = spec.pop("priority", None)
        if design_text is not None:
            if not isinstance(design_text, str):
                raise _HttpError(400, "design_text must be an ASCII-AIGER string")
            try:
                design: object = TransitionSystem(parse_aag(design_text))
            except ValueError as exc:
                raise _HttpError(400, f"bad design_text: {exc}") from None
        elif design_path is not None:
            design = design_path
        else:
            raise _HttpError(400, "job spec names no design (design / design_text)")
        config = VerificationConfig().with_overrides(**spec)
        log = _EventLog(self._loop)
        handle = self.service.submit(
            design, config, priority=priority, block=False, on_event=log.append
        )
        with self._registry_lock:
            self._handles[handle.job_id] = handle
            self._logs[handle.job_id] = log
        return handle

    async def _handle_job_status(self, request: _Request, writer) -> _Response:
        handle, log = self._job(request)
        events, done = log.snapshot(0)
        return _Response(
            200,
            {
                "v": WIRE_VERSION,
                "job": handle.job_id,
                "status": handle.status.value,
                "design": handle.design_name,
                "strategy": handle.strategy,
                "priority": handle.priority,
                "events": len(events),
                "finished": done,
            },
        )

    async def _handle_job_events(self, request: _Request, writer) -> None:
        """The SSE stream (streams inline; returns no :class:`_Response`)."""
        handle, log = self._job(request)
        cursor = request.cursor()
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
            b"retry: 500\n\n"
        )
        self._open_streams += 1
        try:
            while True:
                items, done = log.snapshot(cursor)
                for seq, data in items:
                    chunk = f"id: {seq}\ndata: {json.dumps(data)}\n\n"
                    writer.write(chunk.encode("utf-8"))
                    cursor = seq
                await writer.drain()
                if done and not log.snapshot(cursor)[0]:
                    return
                log.updated.clear()
                await _wait_for_update(log.updated, STREAM_POLL_S)
        except (ConnectionError, OSError):
            return  # client went away; its cursor lets it resume
        finally:
            self._open_streams -= 1

    async def _handle_job_cancel(self, request: _Request, writer) -> _Response:
        handle, _ = self._job(request)
        loop = asyncio.get_running_loop()
        cancelled = await loop.run_in_executor(None, handle.cancel)
        return _Response(
            200,
            {
                "v": WIRE_VERSION,
                "job": handle.job_id,
                "cancelled": bool(cancelled),
                "status": handle.status.value,
            },
        )

    async def _handle_job_result(self, request: _Request, writer) -> _Response:
        handle, _ = self._job(request)
        timeout = min(max(request.query_float("timeout", 0.0), 0.0), MAX_RESULT_WAIT_S)
        loop = asyncio.get_running_loop()
        if timeout and not handle.status.terminal:
            await loop.run_in_executor(None, handle.wait, timeout)
        status = handle.status
        if not status.terminal:
            return _Response(
                202,
                {"v": WIRE_VERSION, "job": handle.job_id, "status": status.value},
            )
        try:
            error = handle.done.exception(timeout=0)
        except TimeoutError:
            # The terminal transition lands a beat before the future
            # resolves (the service emits JobFinished in between), so a
            # result request racing that gap must wait the future out,
            # not 500.
            error = await loop.run_in_executor(
                None, lambda: handle.done.exception(timeout=5.0)
            )
        if error is not None:
            return _Response(
                500,
                {
                    "v": WIRE_VERSION,
                    "job": handle.job_id,
                    "status": status.value,
                    "error": f"{type(error).__name__}: {error}",
                },
            )
        report = handle.done.result(timeout=0)
        return _Response(
            200,
            {
                "v": WIRE_VERSION,
                "job": handle.job_id,
                "status": status.value,
                "report": encode_report(report),
            },
        )

    async def _handle_stats(self, request: _Request, writer) -> _Response:
        loop = asyncio.get_running_loop()
        stats = await loop.run_in_executor(None, self.service.stats)
        payload = stats.as_dict()
        payload["v"] = WIRE_VERSION
        payload["draining"] = self._draining
        return _Response(200, payload)

    async def _handle_cache_stats(self, request: _Request, writer) -> _Response:
        loop = asyncio.get_running_loop()
        stats = await loop.run_in_executor(None, self.service.stats)
        cache = stats.as_dict().get("cache")
        return _Response(
            200,
            {
                "v": WIRE_VERSION,
                "enabled": cache is not None,
                "cache": cache,
            },
        )

    async def _handle_health(self, request: _Request, writer) -> _Response:
        with self._registry_lock:
            jobs = len(self._handles)
        return _Response(
            200,
            {
                "v": WIRE_VERSION,
                "status": "draining" if self._draining else "ok",
                "jobs": jobs,
                "requests": self._requests_served,
                "streams": self._open_streams,
            },
        )


class BackgroundServer:
    """A :class:`VerificationServer` on a private loop thread.

    The embedding used by the example and the in-process tests::

        with BackgroundServer(service) as server:
            client = ServiceClient(server.address)
            ...

    ``__exit__`` drains the server (which closes the service) and joins
    the thread.
    """

    def __init__(
        self,
        service: VerificationService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        drain_grace: float = 5.0,
    ) -> None:
        self.server = VerificationServer(
            service, host, port, drain_grace=drain_grace
        )
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._startup_error: BaseException | None = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> str:
        return f"{self.server.host}:{self.server.port}"

    def start(self) -> "BackgroundServer":
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                raise
            self._ready.set()
            await self.server.serve_until(self._stop)

        def runner() -> None:
            try:
                asyncio.run(main())
            except BaseException as exc:  # noqa: BLE001 - surfaced via start()
                if self._startup_error is None:
                    self._startup_error = exc
                self._ready.set()

        self._thread = threading.Thread(
            target=runner, name="repro-net-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self, timeout: float = 60.0) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already finished
        self._thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
