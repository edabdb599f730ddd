"""Job handles: the client-side view of one submitted verification.

A :meth:`~repro.service.VerificationService.submit` returns a
:class:`JobHandle` immediately; the verification runs in the service's
scheduler while the caller holds the handle.  The handle exposes the
job's lifecycle four ways:

* :attr:`JobHandle.status` — the current :class:`JobStatus`;
* :meth:`JobHandle.result` — block (with optional timeout) for the
  job's :class:`~repro.multiprop.report.MultiPropReport`, re-raising
  whatever the strategy raised;
* :attr:`JobHandle.done` — a :class:`concurrent.futures.Future`
  resolved with the report (or the strategy's exception), for callers
  composing with executor pipelines or ``wait``/``as_completed``;
* :meth:`JobHandle.events` — a live iterator over the job's
  :class:`~repro.progress.ProgressEvent` stream, terminating on the
  job's :class:`~repro.progress.JobFinished`.

Cancellation (:meth:`JobHandle.cancel`) is cooperative and never
perturbs sibling jobs: a queued job is cancelled outright (its report
marks every property UNKNOWN), a running pooled job stops feeding
seats, records its remaining properties UNKNOWN and stops the seats
that hold its in-flight properties — the running attempt reports
UNKNOWN at its next budget check and the one queued behind it is
declined unstarted — and a running *threaded* job cannot be preempted
(``cancel`` returns False).
"""

from __future__ import annotations

import enum
import queue
import threading
from concurrent.futures import Future
from collections.abc import Iterator

from ..multiprop.report import MultiPropReport
from ..progress import Emit, JobFinished, ProgressEvent

#: How often event streams wake to re-check for a terminally-ended job
#: whose final event never arrived (dispatcher death).
_EVENT_POLL_TIMEOUT = 0.5


class JobStatus(enum.Enum):
    """Lifecycle of one submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED)


class QueueFull(RuntimeError):
    """``submit(block=False)`` found the bounded admission queue full."""

    def __init__(self, pending: int, limit: int) -> None:
        super().__init__(
            f"admission queue is full ({pending}/{limit} jobs pending); "
            f"retry, submit(block=True), or raise max_pending"
        )
        self.pending = pending
        self.limit = limit


class JobHandle:
    """The caller's handle on one submitted job (thread-safe)."""

    def __init__(
        self, job_id: str, design_name: str, strategy: str, priority: float
    ) -> None:
        self.job_id = job_id
        self.design_name = design_name
        self.strategy = strategy
        self.priority = priority
        self.done: "Future[MultiPropReport]" = Future()
        self.done.set_running_or_notify_cancel()  # never Future-cancelled
        self._status = JobStatus.QUEUED
        self._lock = threading.Lock()
        self._subscribers: list[Emit] = []
        self._event_queues: list["queue.Queue"] = []
        # set by the service: called on cancel() to request cancellation
        self._cancel_request = None

    # ------------------------------------------------------------------
    # Status and results
    # ------------------------------------------------------------------
    @property
    def status(self) -> JobStatus:
        return self._status

    def result(self, timeout: float | None = None) -> MultiPropReport:
        """The job's report; blocks, re-raises strategy exceptions."""
        return self.done.result(timeout=timeout)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is terminal; True if it finished in time."""
        try:
            self.done.exception(timeout=timeout)
        except TimeoutError:
            return False
        return True

    def cancel(self) -> bool:
        """Request cancellation; True if the request could take effect.

        Queued jobs and running *pooled* jobs are cancellable; a
        running threaded job has no preemption point and a terminal job
        is past cancelling (both return False).  A pooled job's seats
        are stopped, so its attempts in flight give up at their next
        budget check.  The job still resolves normally: :meth:`result`
        returns the partial report with the cancelled remainder UNKNOWN.
        """
        request = self._cancel_request
        if request is None or self._status.terminal:
            return False
        return bool(request(self))

    # ------------------------------------------------------------------
    # Event channel
    # ------------------------------------------------------------------
    def subscribe(self, callback: Emit) -> Emit:
        """Register a callback for this job's events; returns it."""
        with self._lock:
            self._subscribers.append(callback)
        return callback

    def events(self) -> Iterator[ProgressEvent]:
        """Live stream of this job's events, ending on its JobFinished.

        Subscribing is lazy: events emitted before the first
        :meth:`events` call are not replayed (this is a live stream,
        not a log).  A stream opened on a terminal job yields nothing.
        """
        events: "queue.Queue" = queue.Queue()
        with self._lock:
            if self._status.terminal:
                return
            self._event_queues.append(events)
        try:
            while True:
                try:
                    event = events.get(timeout=_EVENT_POLL_TIMEOUT)
                except queue.Empty:
                    # No event and the job already ended: the dispatcher
                    # died between the terminal transition and the
                    # JobFinished emit — bail out instead of hanging.
                    if self._status.terminal:
                        return
                    continue
                yield event
                if isinstance(event, JobFinished):
                    return
        finally:
            with self._lock:
                if events in self._event_queues:
                    self._event_queues.remove(events)

    # ------------------------------------------------------------------
    # Service-side plumbing
    # ------------------------------------------------------------------
    def _emit(self, event: ProgressEvent) -> None:
        with self._lock:
            subscribers = list(self._subscribers)
            queues = list(self._event_queues)
        for callback in subscribers:
            callback(event)
        for events in queues:
            events.put(event)

    def _transition(self, status: JobStatus) -> None:
        self._status = status

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobHandle({self.job_id!r}, {self.strategy!r} on "
            f"{self.design_name!r}, {self._status.value})"
        )
