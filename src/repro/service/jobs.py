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
* :meth:`JobHandle.events` — the job's
  :class:`~repro.progress.ProgressEvent` log, from
  :class:`~repro.progress.JobQueued` on: it replays what was emitted
  so far, then follows the job live, and ends after its
  :class:`~repro.progress.JobFinished` (also on a job long finished).

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
import threading
from concurrent.futures import Future
from collections.abc import Iterator

from ..multiprop.report import MultiPropReport
from ..progress import Emit, JobFinished, ProgressEvent

#: How long an event reader waits for a new event before it yields an
#: empty batch, and how long a job already terminal may take to log its
#: JobFinished before its readers stop waiting for it.
EVENT_POLL_S = 0.5


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
        # Guards the subscribers and the log; notified on every append
        # and every transition.
        self._changed = threading.Condition()
        self._subscribers: list[Emit] = []
        self._log: list[ProgressEvent] = []
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
        threaded job that is running (or being started) has no
        preemption point and a terminal job is past cancelling (both
        return False).  A pooled job's seats are stopped, so its
        attempts in flight give up at their next budget check.  The
        job still resolves normally: :meth:`result` returns the partial
        report with the cancelled remainder UNKNOWN.
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
        with self._changed:
            self._subscribers.append(callback)
        return callback

    def events(self, after: int = 0) -> Iterator[ProgressEvent]:
        """The job's events from id ``after + 1`` on, ending after its
        JobFinished: the log replayed, then followed live."""
        for batch in self.follow(after):
            yield from batch

    def logged(self) -> tuple[int, bool]:
        """How many events are logged (an event's id is its 1-based
        position), and whether the last is the job's JobFinished."""
        with self._changed:
            return len(self._log), _finished(self._log)

    def follow(self, after: int = 0) -> Iterator[list[ProgressEvent]]:
        """The log from id ``after + 1`` on, in batches: each holds what
        was logged since the last, and an empty one means no event came
        within ``EVENT_POLL_S`` seconds or the job changed state.
        Ends after the batch holding JobFinished, or once a terminal job
        has logged nothing for that long (its JobFinished never came)."""
        while True:
            with self._changed:
                ended = self._status.terminal
                if len(self._log) <= after and not _finished(self._log):
                    self._changed.wait(timeout=EVENT_POLL_S)
                batch = self._log[after:]
                finished = _finished(self._log)
            after += len(batch)
            yield batch
            if finished or (ended and not batch):
                return

    # ------------------------------------------------------------------
    # Service-side plumbing
    # ------------------------------------------------------------------
    def _emit(self, event: ProgressEvent) -> None:
        # Logged before any subscriber runs: one that raises leaves no
        # gap in what readers see.
        with self._changed:
            self._log.append(event)
            self._changed.notify_all()
            subscribers = list(self._subscribers)
        for callback in subscribers:
            callback(event)

    def _transition(self, status: JobStatus) -> None:
        with self._changed:
            self._status = status
            self._changed.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobHandle({self.job_id!r}, {self.strategy!r} on "
            f"{self.design_name!r}, {self._status.value})"
        )


def _finished(log: list[ProgressEvent]) -> bool:
    return bool(log) and isinstance(log[-1], JobFinished)
