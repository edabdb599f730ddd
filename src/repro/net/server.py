"""The HTTP front end over one :class:`VerificationService`.

No framework, no third-party dependencies: the standard library's
:class:`http.server.ThreadingHTTPServer` parses the requests and gives
each connection its own thread, and the handlers call the blocking
service directly (submit, cancel, wait, stats).  Responses speak
HTTP/1.0, so a connection carries one request and ends with its
response; the only long-lived connections are the Server-Sent-Events
streams of ``GET /jobs/{id}/events``.

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

**The service owns the jobs.**  ``POST /jobs`` hands its body to
:meth:`~repro.service.VerificationService.submit_spec` (``repro serve``
reads manifest jobs with it too), and ``/jobs/{id}`` looks the job up
in the service: a job it has retired answers ``404``.

**Event streams are replayable.**  A stream reads the job's one event
log, which its :class:`~repro.service.JobHandle` keeps (events are
small; counterexample traces never travel), and encodes each event as
it sends it.  A stream names its start cursor via the standard
``Last-Event-ID`` header or ``?after=N``: event ids are 1-based
positions in that log, ``after=N`` means "resume with event N+1".  A
killed-and-reconnected stream therefore never drops or duplicates
events.  Streams end by themselves once the job's terminal
:class:`~repro.progress.JobFinished` has been delivered, or once their
client hangs up.

**Back-pressure is HTTP-visible.**  A submit that finds the bounded
admission queue full maps :class:`~repro.service.QueueFull` to ``429``
with a ``Retry-After`` hint; a draining or closed service answers
``503`` (and the service-side :class:`~repro.progress.ServiceSaturated`
event still reaches every subscribed stream).

**Shutdown is graceful.**  :meth:`VerificationServer.stop` — wired to
SIGINT/SIGTERM by :meth:`~VerificationServer.run` and to ``__exit__`` —
stops admission (``503``), drains the service for ``drain_grace``
seconds, cancels the stragglers and drains again (bounded), lets open
event streams flush their final events, then closes the listener and
the service.
"""

from __future__ import annotations

import json
import re
import select
import signal
import socket
import socketserver
import sys
import threading
import time
from dataclasses import dataclass, field
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from ..progress import ProgressEvent
from ..service import JobHandle, QueueFull, VerificationService
from ..service.jobs import EVENT_POLL_S
from ..session import UnknownStrategyError
from .codec import WIRE_VERSION, CodecError, encode_event, encode_report

__all__ = ["Route", "ROUTES", "VerificationServer"]

#: Largest accepted request body (an inline ``design_text`` AIGER).
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Ceiling on one ``/result?timeout=`` long-poll leg (clients loop).
MAX_RESULT_WAIT_S = 60.0
#: How long an idle SSE stream waits for an event before it checks
#: whether its client is still there (the handle's event poll).
STREAM_POLL_S = EVENT_POLL_S
#: Tick of the wait for open streams and of the listener's shutdown check.
_TICK_S = 0.05


@dataclass(frozen=True)
class Route:
    """One row of the HTTP route table.

    ``pattern`` uses ``{name}`` placeholders for path parameters;
    ``handler`` names the ``_handle_<handler>`` method on
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


class _HttpError(Exception):
    """An error response raised from request handling."""

    def __init__(self, status: int, message: str, *, retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after

    def response(self) -> _Response:
        return _Response(self.status, {"error": self.message}, self.retry_after)


@dataclass
class _Request:
    method: str
    path: str
    query: dict[str, list[str]]
    headers: Message
    body: bytes
    params: dict[str, str] = field(default_factory=dict)

    @classmethod
    def read(cls, http: BaseHTTPRequestHandler) -> _Request:
        """The request ``http`` parsed; the body's size is checked
        before a byte of it is read."""
        try:
            length = int(http.headers.get("Content-Length") or 0)
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body over {MAX_BODY_BYTES} bytes")
        body = http.rfile.read(length) if length else b""
        if len(body) < length:
            raise ConnectionError("request body cut short")
        split = urlsplit(http.path)
        return cls(http.command, split.path, parse_qs(split.query), http.headers, body)

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
        values = self.query.get("after")
        raw = values[0] if values else self.headers.get("Last-Event-ID")
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

    def send(self, http: BaseHTTPRequestHandler) -> None:
        body = json.dumps({"v": WIRE_VERSION, **self.payload}).encode("utf-8")
        http.send_response(self.status)
        http.send_header("Content-Type", "application/json")
        if self.retry_after is not None:
            http.send_header("Retry-After", f"{self.retry_after:g}")
        http.send_header("Content-Length", str(len(body)))
        http.end_headers()
        http.wfile.write(body)


def _peer_closed(sock: socket.socket) -> bool:
    """Has the client hung up?  (A stream's client sends nothing after
    its request, so a readable socket with no data is an EOF.)"""
    readable, _, _ = select.select([sock], [], [], 0)
    return bool(readable) and not sock.recv(1, socket.MSG_PEEK)


class _Handler(BaseHTTPRequestHandler):
    """One connection: routes its request to the :class:`VerificationServer`."""

    # A response's header and body are two writes; Nagle would hold the
    # body back until the client acknowledged the header.
    disable_nagle_algorithm = True
    server: _Listener

    def _route(self) -> None:
        self.server.app._serve(self)

    # Every method goes through the route table, so a known path with a
    # wrong method is a 405, not the stdlib's 501.
    do_GET = do_POST = do_PUT = do_DELETE = do_PATCH = do_HEAD = do_OPTIONS = _route

    def send_error(self, code: int, message: str | None = None, explain: str | None = None) -> None:
        # The stdlib's own refusals (a malformed request line, say)
        # answer in the same JSON as the routes' errors.
        _HttpError(code, message or self.responses[code][0]).response().send(self)

    def log_message(self, format: str, *args: object) -> None:
        pass  # requests are counted on /healthz, not logged


class _Listener(ThreadingHTTPServer):
    """The listening socket: one daemon thread per connection."""

    daemon_threads = True
    # stop() has already settled the jobs and flushed the streams; a
    # client that never finishes its request must not hold the close.
    block_on_close = False
    # socketserver listens with a backlog of 5, too few for a burst of
    # submits and streams.
    request_queue_size = 100

    def __init__(self, address: tuple[str, int], app: VerificationServer) -> None:
        super().__init__(address, _Handler)
        self.app = app

    def server_bind(self) -> None:
        # HTTPServer.server_bind would also look up the host's FQDN, a
        # DNS round trip for a name nothing here reads.
        socketserver.TCPServer.server_bind(self)

    def handle_error(self, request, client_address) -> None:
        # A peer that went away mid-exchange leaves nothing to salvage;
        # anything else is a bug and keeps its traceback.
        if not isinstance(sys.exc_info()[1], OSError):
            super().handle_error(request, client_address)


class VerificationServer:
    """One service, exposed over HTTP (see the module docstring).

    Embedded in a process (the example and the in-process tests)::

        with VerificationServer(service) as server:
            client = ServiceClient(server.address)
            ...

    :meth:`start` binds and serves on a daemon thread; :meth:`stop`
    (and ``__exit__``) drains, which closes the service too.
    """

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
        self._listener: _Listener | None = None
        self._thread: threading.Thread | None = None
        self._registry_lock = threading.Lock()
        self._draining = False
        self._open_streams = 0
        self._requests_served = 0

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> VerificationServer:
        """Bind (``port`` 0 picks a free one) and serve on a thread."""
        self._listener = _Listener((self.host, self.port), self)
        self.port = self._listener.server_address[1]
        self._thread = threading.Thread(
            target=self._listener.serve_forever,
            args=(_TICK_S,),
            name="repro-net-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def run(self, *, on_ready=None) -> None:
        """Blocking entry point: serve until SIGINT/SIGTERM, then drain.

        ``on_ready(host, port)`` is called once the socket is bound —
        the CLI prints the listening address from it so callers
        (tests, CI) can discover an ephemeral port.
        """
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, signal.default_int_handler)
        try:
            self.start()
            if on_ready is not None:
                on_ready(self.host, self.port)
            while True:
                time.sleep(1.0)
        except KeyboardInterrupt:
            # A second signal must not cut the drain short.
            for signum in (signal.SIGINT, signal.SIGTERM):
                signal.signal(signum, signal.SIG_IGN)
        self.stop()

    def stop(self) -> None:
        """Drain: stop admission, settle every job, flush streams, close.

        Jobs get ``drain_grace`` seconds to finish on their own;
        whatever still runs is cancelled (queued jobs immediately,
        pooled jobs cooperatively) and waited out to a terminal state.
        Open SSE streams are given time to deliver the terminal events
        they are owed before the listener closes.
        """
        if self._listener is None:
            return
        self._draining = True
        try:
            self.service.drain(self.drain_grace)
        except TimeoutError:
            self.service.cancel_all(max(30.0, self.drain_grace))
        _wait_until(lambda: not self._open_streams, 5.0)
        self._listener.shutdown()
        self._listener.server_close()
        self._thread.join()
        self._listener = self._thread = None
        self.service.close()

    def __enter__(self) -> VerificationServer:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Request plumbing (on the connection's thread)
    # ------------------------------------------------------------------
    def _serve(self, http: _Handler) -> None:
        try:
            request = _Request.read(http)
            with self._registry_lock:
                self._requests_served += 1
            response = self._dispatch(request, http)
        except _HttpError as exc:
            response = exc.response()
        if response is not None:  # a stream answers inline
            response.send(http)

    def _dispatch(self, request: _Request, http: _Handler) -> _Response | None:
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
                return handler(request, http)
            except _HttpError:
                raise
            except Exception as exc:  # noqa: BLE001 - must answer the client
                return _Response(500, {"error": f"{type(exc).__name__}: {exc}"})
        if matched_path:
            raise _HttpError(405, f"no route for {request.method} {request.path}")
        raise _HttpError(404, f"unknown path {request.path}")

    def _job(self, request: _Request) -> JobHandle:
        job_id = request.params.get("id", "")
        handle = self.service.job(job_id)
        if handle is None:
            if self.service.retired(job_id):
                raise _HttpError(404, f"job {job_id!r} finished and was retired")
            raise _HttpError(404, f"unknown job {job_id!r}")
        return handle

    # ------------------------------------------------------------------
    # Handlers (one per ROUTES row)
    # ------------------------------------------------------------------
    def _handle_submit(self, request: _Request, http: _Handler) -> _Response:
        """Submit the body's job spec; the service reads it."""
        if self._draining or self.service.closed:
            raise _HttpError(503, "service is draining; resubmit elsewhere", retry_after=5)
        try:
            handle = self.service.submit_spec(request.json(), block=False)
        except QueueFull as exc:
            message = f"admission queue full ({exc.pending}/{exc.limit} pending)"
            raise _HttpError(429, message, retry_after=1) from None
        except (UnknownStrategyError, ValueError) as exc:
            raise _HttpError(400, str(exc)) from None
        except OSError as exc:
            raise _HttpError(400, f"cannot load design: {exc}") from None
        return _Response(201, _job_info(handle))

    def _handle_job_status(self, request: _Request, http: _Handler) -> _Response:
        handle = self._job(request)
        count, finished = handle.logged()
        return _Response(200, {**_job_info(handle), "events": count, "finished": finished})

    def _handle_job_events(self, request: _Request, http: _Handler) -> None:
        """The SSE stream (streams inline; returns no :class:`_Response`)."""
        handle = self._job(request)
        cursor = request.cursor()
        http.send_response(200)
        http.send_header("Content-Type", "text/event-stream")
        http.send_header("Cache-Control", "no-cache")
        http.end_headers()
        with self._registry_lock:
            self._open_streams += 1
        try:
            http.wfile.write(b"retry: 500\n\n")
            for batch in handle.follow(cursor):
                if batch:
                    chunks = (
                        f"id: {seq}\ndata: {json.dumps(_encode(event))}\n\n"
                        for seq, event in enumerate(batch, start=cursor + 1)
                    )
                    http.wfile.write("".join(chunks).encode("utf-8"))
                    cursor += len(batch)
                elif _peer_closed(http.connection):
                    return
        except OSError:
            return  # client went away; its cursor lets it resume
        finally:
            with self._registry_lock:
                self._open_streams -= 1

    def _handle_job_cancel(self, request: _Request, http: _Handler) -> _Response:
        handle = self._job(request)
        cancelled = handle.cancel()
        return _Response(
            200,
            {"job": handle.job_id, "cancelled": bool(cancelled), "status": handle.status.value},
        )

    def _handle_job_result(self, request: _Request, http: _Handler) -> _Response:
        handle = self._job(request)
        timeout = min(max(request.query_float("timeout", 0.0), 0.0), MAX_RESULT_WAIT_S)
        if timeout and not handle.status.terminal:
            handle.wait(timeout)
        payload = {"job": handle.job_id, "status": handle.status.value}
        if not handle.status.terminal:
            return _Response(202, payload)
        # The terminal transition lands a beat before the future
        # resolves (the service emits JobFinished in between), so a
        # result request racing that gap waits the future out, not 500.
        error = handle.done.exception(timeout=5.0)
        if error is not None:
            return _Response(500, {**payload, "error": f"{type(error).__name__}: {error}"})
        return _Response(200, {**payload, "report": encode_report(handle.done.result(0))})

    def _handle_stats(self, request: _Request, http: _Handler) -> _Response:
        payload = self.service.stats().as_dict()
        payload["draining"] = self._draining
        return _Response(200, payload)

    def _handle_cache_stats(self, request: _Request, http: _Handler) -> _Response:
        cache = self.service.stats().as_dict().get("cache")
        return _Response(200, {"enabled": cache is not None, "cache": cache})

    def _handle_health(self, request: _Request, http: _Handler) -> _Response:
        with self._registry_lock:
            payload = {
                "status": "draining" if self._draining else "ok",
                "requests": self._requests_served,
                "streams": self._open_streams,
            }
        return _Response(200, {**payload, "jobs": len(self.service.jobs())})


def _encode(event: ProgressEvent) -> dict:
    try:
        return encode_event(event)
    except CodecError:
        # An unregistered (plugin) event must not fail the stream;
        # ship an opaque stand-in.
        return {"v": WIRE_VERSION, "kind": "event", "opaque": repr(event)}


def _job_info(handle: JobHandle) -> dict:
    return {
        "job": handle.job_id,
        "status": handle.status.value,
        "design": handle.design_name,
        "strategy": handle.strategy,
        "priority": handle.priority,
    }


def _wait_until(condition, seconds: float) -> None:
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(_TICK_S)
