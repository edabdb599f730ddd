"""The blocking client for a :class:`~repro.net.server.VerificationServer`.

:class:`ServiceClient` mirrors the in-process
``submit → handle → stream → result`` shape of
:class:`~repro.service.VerificationService` over plain
``http.client`` — no sessions, no pooling, one short-lived connection
per request (event streams hold theirs open):

    client = ServiceClient("127.0.0.1:8123")
    job = client.submit(design_text=aag_source, strategy="parallel-ja")
    for event in job.events():          # decoded ProgressEvents
        print(format_event(event))
    report = job.result(timeout=300)    # a real MultiPropReport

Event streams are **self-healing**: :meth:`RemoteJob.events` remembers
the id of the last event it yielded and, when the connection drops or
times out mid-stream, reconnects with ``Last-Event-ID`` so the stream
continues exactly where it left off — no drops, no duplicates, no
caller involvement.

Server-side back-pressure arrives typed: HTTP 429 raises
:class:`ServiceBusy` (with the server's ``Retry-After`` hint) and 503
raises :class:`ServiceUnavailable`; both subclass :class:`RemoteError`,
which carries the status and decoded error payload of any failing
request.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from collections.abc import Iterator

from ..multiprop.report import MultiPropReport
from ..progress import JobFinished, ProgressEvent
from .codec import CodecError, decode_event, decode_report

__all__ = [
    "RemoteError",
    "ServiceBusy",
    "ServiceUnavailable",
    "RemoteJob",
    "ServiceClient",
]

#: Socket timeout for one plain request/response exchange.
REQUEST_TIMEOUT_S = 30.0
#: Read timeout on an open event stream; hitting it just reconnects
#: from the cursor, so it doubles as a liveness check.
STREAM_READ_TIMEOUT_S = 30.0
#: One ``/result?timeout=`` long-poll leg (server clamps at 60).
RESULT_POLL_S = 20.0


class RemoteError(RuntimeError):
    """A request failed; carries the HTTP status and error payload."""

    def __init__(self, status: int, message: str, payload: dict | None = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload or {}


class ServiceBusy(RemoteError):
    """HTTP 429: the admission queue is full; retry after a beat."""

    def __init__(self, status: int, message: str, payload: dict | None = None,
                 retry_after: float = 1.0):
        super().__init__(status, message, payload)
        self.retry_after = retry_after


class ServiceUnavailable(RemoteError):
    """HTTP 503: the service is draining or gone."""


def _parse_address(address: str | tuple[str, int]) -> tuple[str, int]:
    if isinstance(address, tuple):
        host, port = address
        return host, int(port)
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"bad server address {address!r} (expected HOST:PORT)"
        )
    return host or "127.0.0.1", int(port)


class ServiceClient:
    """Blocking HTTP client for one verification server."""

    def __init__(
        self, address: str | tuple[str, int], *, timeout: float = REQUEST_TIMEOUT_S
    ) -> None:
        self.host, self.port = _parse_address(address)
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        headers: dict[str, str] | None = None,
        *,
        timeout: float | None = None,
    ) -> tuple[int, dict]:
        """One request/response exchange; errors below 4xx stay typed."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout or self.timeout
        )
        try:
            payload = json.dumps(body).encode("utf-8") if body is not None else None
            send_headers = {"Content-Type": "application/json", **(headers or {})}
            try:
                conn.request(method, path, body=payload, headers=send_headers)
                response = conn.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException) as exc:
                raise ServiceUnavailable(
                    503, f"cannot reach {self.host}:{self.port}: {exc}"
                ) from None
            try:
                decoded = json.loads(raw.decode("utf-8")) if raw else {}
            except ValueError:
                decoded = {"error": raw.decode("utf-8", "replace")}
            status = response.status
            if status == 429:
                retry_after = _float_header(response, "Retry-After", 1.0)
                raise ServiceBusy(
                    status, decoded.get("error", "busy"), decoded,
                    retry_after=retry_after,
                )
            if status == 503:
                raise ServiceUnavailable(
                    status, decoded.get("error", "unavailable"), decoded
                )
            return status, decoded
        finally:
            conn.close()

    def _expect(
        self, method: str, path: str, body: dict | None = None, *,
        ok: tuple[int, ...] = (200,), timeout: float | None = None,
    ) -> dict:
        status, payload = self._request(method, path, body, timeout=timeout)
        if status not in ok:
            raise RemoteError(status, payload.get("error", "request failed"), payload)
        return payload

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def submit(
        self,
        *,
        design: str | None = None,
        design_text: str | None = None,
        **config: object,
    ) -> "RemoteJob":
        """Submit one job; returns its :class:`RemoteJob` immediately.

        Exactly one of ``design_text`` (inline AIGER source — works
        against any server) or ``design`` (a path *on the server's
        filesystem*) names the design; every other keyword, ``priority``
        too, is a :class:`~repro.session.VerificationConfig` field.
        """
        spec: dict = dict(config)
        if design_text is not None:
            spec["design_text"] = design_text
        if design is not None:
            spec["design"] = design
        return self.submit_spec(spec)

    def submit_spec(self, spec: dict) -> "RemoteJob":
        """Submit one manifest-format job spec verbatim."""
        payload = self._expect("POST", "/jobs", spec, ok=(201,))
        return RemoteJob(self, payload["job"], info=payload)

    def job(self, job_id: str) -> "RemoteJob":
        """A handle on an already-submitted job (does not validate)."""
        return RemoteJob(self, job_id)

    def stats(self) -> dict:
        """The server's live ``ServiceStats.as_dict()`` payload."""
        return self._expect("GET", "/stats")

    def health(self) -> dict:
        return self._expect("GET", "/healthz")


def _float_header(response, name: str, default: float) -> float:
    raw = response.getheader(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


class RemoteJob:
    """The client-side handle on one remote job (mirrors ``JobHandle``)."""

    def __init__(self, client: ServiceClient, job_id: str, info: dict | None = None):
        self.client = client
        self.job_id = job_id
        self.info = info or {}
        #: id of the last event yielded by :meth:`events`; reconnects
        #: resume after it.
        self.cursor = 0

    def status(self) -> dict:
        """Live status snapshot (``status``, ``events``, ``finished``)."""
        return self.client._expect("GET", f"/jobs/{self.job_id}")

    def cancel(self) -> bool:
        payload = self.client._expect("POST", f"/jobs/{self.job_id}/cancel", {})
        return bool(payload.get("cancelled"))

    def result(self, timeout: float | None = None) -> MultiPropReport:
        """Block for the job's decoded report (long-polls the server).

        Raises :class:`TimeoutError` if the job stays unfinished,
        :class:`RemoteError` if it failed server-side (a 404 saying
        "retired" once the job left the server's last ``KEPT_FINISHED_JOBS``).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            leg = RESULT_POLL_S
            if deadline is not None:
                leg = min(leg, max(deadline - time.monotonic(), 0.0))
            status, payload = self.client._request(
                "GET",
                f"/jobs/{self.job_id}/result?timeout={leg:g}",
                timeout=leg + REQUEST_TIMEOUT_S,
            )
            if status == 200:
                return decode_report(payload["report"])
            if status == 202:
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"job {self.job_id} unfinished after {timeout}s "
                        f"(status {payload.get('status')!r})"
                    )
                continue
            raise RemoteError(status, payload.get("error", "request failed"), payload)

    def events(self, *, follow_reconnects: bool = True) -> Iterator[ProgressEvent]:
        """Decoded event stream from the current cursor to JobFinished.

        Resumable end to end: the cursor advances only as events are
        yielded, every (re)connection passes it as ``Last-Event-ID``,
        and with ``follow_reconnects`` (the default) dropped or
        timed-out connections are re-opened transparently.  Events the
        codec cannot decode (opaque plugin events) advance the cursor
        but are not yielded.
        """
        while True:
            finished_clean = False
            try:
                for seq, payload in self._stream_once(self.cursor):
                    try:
                        event = decode_event(payload)
                    except CodecError:
                        self.cursor = seq
                        continue
                    # Advance before the yield: once the consumer holds
                    # the event it counts as delivered, even if the
                    # generator is closed without resuming.
                    self.cursor = seq
                    yield event
                    if isinstance(event, JobFinished):
                        return
                finished_clean = True
            except (OSError, http.client.HTTPException, TimeoutError):
                if not follow_reconnects:
                    raise
            if finished_clean:
                # Stream closed without JobFinished: server drained the
                # log it had.  Stop if the job is over, else resume.
                if self.status().get("finished"):
                    return
            if not follow_reconnects:
                return

    def _stream_once(self, after: int) -> Iterator[tuple[int, dict]]:
        """One SSE connection: yields ``(id, payload)`` until EOF."""
        conn = http.client.HTTPConnection(
            self.client.host, self.client.port, timeout=STREAM_READ_TIMEOUT_S
        )
        try:
            conn.request(
                "GET",
                f"/jobs/{self.job_id}/events",
                headers={"Last-Event-ID": str(after)},
            )
            response = conn.getresponse()
            if response.status != 200:
                raw = response.read()
                try:
                    decoded = json.loads(raw.decode("utf-8"))
                except ValueError:
                    decoded = {}
                raise RemoteError(
                    response.status, decoded.get("error", "stream refused"), decoded
                )
            event_id: int | None = None
            data_lines: list[str] = []
            while True:
                raw_line = response.readline()
                if not raw_line:
                    return  # EOF: server closed the finished stream
                line = raw_line.decode("utf-8", "replace").rstrip("\r\n")
                if not line:
                    if event_id is not None and data_lines:
                        yield event_id, json.loads("\n".join(data_lines))
                    event_id = None
                    data_lines = []
                    continue
                if line.startswith("id:"):
                    try:
                        event_id = int(line[3:].strip())
                    except ValueError:
                        event_id = None
                elif line.startswith("data:"):
                    data_lines.append(line[5:].strip())
                # ``retry:`` and comment lines are ignored.
        except socket.timeout:
            raise TimeoutError(
                f"event stream for {self.job_id} idle over "
                f"{STREAM_READ_TIMEOUT_S:g}s"
            ) from None
        finally:
            conn.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RemoteJob({self.job_id!r} @ "
            f"{self.client.host}:{self.client.port}, cursor={self.cursor})"
        )


def submit_manifest(
    client: ServiceClient, jobs: list[dict], *, retry_busy: int = 20
) -> list[RemoteJob]:
    """Submit every job of a manifest, absorbing 429 back-pressure.

    A :class:`ServiceBusy` answer sleeps the server's ``Retry-After``
    hint and retries (up to ``retry_busy`` times per job) — the client
    end of the admission-queue contract.
    """
    handles: list[RemoteJob] = []
    for spec in jobs:
        attempts = 0
        while True:
            try:
                handles.append(client.submit_spec(dict(spec)))
                break
            except ServiceBusy as exc:
                attempts += 1
                if attempts > retry_busy:
                    raise
                time.sleep(max(exc.retry_after, 0.1))
    return handles
