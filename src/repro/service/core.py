"""The job-oriented verification service.

:class:`VerificationService` is the server-regime entry point: many
jobs — each a whole multi-property verification of some design under
some :class:`~repro.session.VerificationConfig` — run *concurrently*
against one shared :class:`~repro.parallel.WorkerPool`.

Execution model
---------------

``submit(design, config, priority=...)`` returns a
:class:`~repro.service.JobHandle` immediately.  Jobs wait in a
**bounded admission queue** (``max_pending``; a full queue emits
:class:`~repro.progress.ServiceSaturated` and either blocks the
submitter or raises :class:`~repro.service.QueueFull` with
``block=False``) until one of ``max_concurrent_jobs`` slots frees up.
Admitted jobs execute one of two ways:

* **pooled** — a strategy registered with ``pooled = True``
  (``parallel-ja``, ``portfolio``): the job's per-property proofs are
  *interleaved with every other pooled job's* onto the shared pool's
  worker seats by the
  :class:`~repro.parallel.engine.SeatScheduler` — weighted fair share
  across jobs (seats held per unit of ``priority``), LPT within each
  job, per-job run-id isolation, watchdogs, crash re-dispatch and
  per-job clause exchange;
* **threaded** — every other strategy runs to completion on a service
  thread (sequential engines have no seat-level parallelism to
  multiplex; they still gain concurrent admission, handles, events and
  cancellation).

A single dispatcher thread owns the scheduler, so all seat decisions
are serialized and — with one worker and one job — deterministic.

The service either *owns* its pool (constructed lazily from
``workers=...``, shut down on :meth:`close`) or *attaches* to a caller
pool (left running on close).  While a service is attached, the pool's
message stream is leased to its scheduler — a second service (so also
a one-shot run) on the same pool is refused, not silently corrupted.

:class:`~repro.session.Session` and the ``parallel_ja_verify`` /
``portfolio_verify`` drivers are :func:`run_one` — one job on a service
opened and closed around it — so the one-shot API and the server API
are the same machinery.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Deque

import queue as queue_mod

from ..multiprop.report import MultiPropReport, PropOutcome
from ..engines.result import PropStatus
from ..parallel.engine import SeatScheduler, empty_report
from ..parallel.pool import WorkerPool
from ..parallel.stats import PoolStats
from ..progress import (
    Emit,
    JobFinished,
    JobQueued,
    JobStarted,
    ProgressEvent,
    ServiceSaturated,
    StatsSnapshot,
)
from ..config import VerificationConfig
from ..session.core import prepare
from ..session.registry import get_strategy
from ..ts.system import TransitionSystem
from .jobs import JobHandle, JobStatus, QueueFull
from .stats import JobStats, ServiceStats, latency_summary


class _JobRecord:
    """Service-side state of one submitted job."""

    __slots__ = (
        "handle",
        "ts",
        "config",
        "order",
        "priority",
        "kind",
        "local",
        "submitted_at",
        "started_at",
        "finished_at",
        "cancel_requested",
        "thread",
        "pooled_job",
        "emit_failure",
        "announced",
        "resolver",
        "cached_outcomes",
        "remaining_order",
        "warm_clauses",
    )

    def __init__(self, handle, ts, config, order, priority, kind, local) -> None:
        self.handle = handle
        self.ts = ts
        self.config = config
        self.order = order  # resolved property-name list
        self.priority = priority
        self.kind = kind  # "pool" | "thread"
        self.local = local  # does the strategy assume the other properties?
        self.submitted_at = time.monotonic()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.cancel_requested = False
        self.thread: threading.Thread | None = None
        self.pooled_job = None  # PooledJob while executing on seats
        # Cross-run proof cache state (set at start when the job's
        # config names a cache_dir): the certification-gated resolver,
        # the cache-served outcomes, the properties left to prove, and
        # warm-start clauses for the job's clause DBs.
        self.resolver = None
        self.cached_outcomes: dict[str, PropOutcome] = {}
        self.remaining_order: list[str] = order
        self.warm_clauses: tuple = ()
        # First exception a subscriber raised while consuming this
        # job's events (e.g. BrokenPipeError from a print callback);
        # surfaced through the handle's future, never allowed to kill
        # the dispatcher or leave the future unresolved.
        self.emit_failure: BaseException | None = None
        # The dispatcher may not admit this record until its JobQueued
        # has been emitted (on the submitting thread) — otherwise a
        # fast job could stream JobStarted before its own JobQueued.
        self.announced = False


class _StatsRequest:
    """A ``stats()`` call parked on the command queue.

    The dispatcher thread owns the scheduler, so seat assignments and
    backoff timers can only be read race-free between its steps; user
    threads post one of these and wait for :attr:`ready`.
    """

    __slots__ = ("ready", "result")

    def __init__(self) -> None:
        self.ready = threading.Event()
        self.result: ServiceStats | None = None


class VerificationService:
    """Concurrent multi-job verification over one shared worker pool."""

    def __init__(
        self,
        pool: WorkerPool | None = None,
        *,
        workers: int | None = None,
        start_method: str | None = None,
        max_concurrent_jobs: int = 8,
        max_pending: int = 64,
        seat_backoff_base: float = 0.5,
        seat_backoff_cap: float = 30.0,
        cache_dir: str | None = None,
        cache_mode: str = "readwrite",
        on_event: Emit | None = None,
    ) -> None:
        if max_concurrent_jobs < 1:
            raise ValueError(
                f"max_concurrent_jobs must be >= 1, got {max_concurrent_jobs}"
            )
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if not 0 < seat_backoff_base <= seat_backoff_cap:
            raise ValueError(
                "need 0 < seat_backoff_base <= seat_backoff_cap, got "
                f"base={seat_backoff_base!r} cap={seat_backoff_cap!r}"
            )
        if cache_mode not in ("off", "read", "readwrite"):
            raise ValueError(f"bad cache mode {cache_mode!r}")
        if pool is not None and pool.closed:
            raise ValueError("pool has been shut down")
        # Service-level proof-cache default: jobs whose config names no
        # cache_dir inherit this one (a job-level cache_mode of "off"
        # still opts the job out).
        self.cache_dir = cache_dir
        self.cache_mode = cache_mode
        self.max_concurrent_jobs = max_concurrent_jobs
        self.max_pending = max_pending
        self.seat_backoff_base = seat_backoff_base
        self.seat_backoff_cap = seat_backoff_cap
        self._pool = pool
        self._owns_pool = pool is None
        self._workers = workers
        self._start_method = start_method
        self._scheduler: SeatScheduler | None = None
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._pending: Deque[_JobRecord] = deque()
        self._running: set[_JobRecord] = set()
        self._records: list[_JobRecord] = []
        self._commands: "queue_mod.Queue" = queue_mod.Queue()
        self._wake = threading.Event()
        self._dispatcher: threading.Thread | None = None
        self._subscribers: list[Emit] = []
        self._stores: dict[str, object] = {}  # cache_dir -> ProofStore
        self._job_ids = 0
        self._closed = False
        self._stopping = False
        self._torn_down = False
        if on_event is not None:
            self.subscribe(on_event)

    # ------------------------------------------------------------------
    # Introspection and events
    # ------------------------------------------------------------------
    @property
    def pool(self) -> WorkerPool | None:
        """The shared pool (None until the first pooled job creates it)."""
        return self._pool

    @property
    def closed(self) -> bool:
        return self._closed

    def jobs(self) -> list[JobHandle]:
        """Handles of every job ever submitted, in submission order."""
        with self._lock:
            return [record.handle for record in self._records]

    def stats(self) -> ServiceStats:
        """A consistent snapshot of queue, seats, latencies and traffic.

        When the dispatcher thread is alive the snapshot is taken *on*
        it (via the command queue) so seat assignments and backoff
        timers are read between scheduler steps, never mid-mutation; a
        dead or absent dispatcher — or a subscriber calling back in
        from dispatcher-delivered events — falls back to a best-effort
        direct read.  For a plain dict (``["pool"]["runs"]``, JSON) call
        :meth:`ServiceStats.as_dict` on the snapshot.
        """
        dispatcher = self._dispatcher
        if (
            self._scheduler is not None
            and dispatcher is not None
            and dispatcher.is_alive()
            and dispatcher is not threading.current_thread()
        ):
            request = _StatsRequest()
            self._commands.put(("stats", request))
            self._wake.set()
            if request.ready.wait(timeout=2.0) and request.result is not None:
                return request.result
        return self._build_stats()

    def emit_stats(self) -> ServiceStats:
        """Snapshot and broadcast a :class:`StatsSnapshot` event."""
        stats = self.stats()
        self._emit_service(StatsSnapshot(stats=stats.as_dict()))
        return stats

    def _build_stats(self) -> ServiceStats:
        now = time.monotonic()
        with self._lock:
            pending = len(self._pending)
            running = len(self._running)
            records = list(self._records)
        scheduler = self._scheduler
        if scheduler is not None:
            pool_stats = scheduler.stats()
            exchange = scheduler.exchange_traffic()
        elif self._pool is not None:
            pool_stats = PoolStats.from_pool(self._pool)
            exchange = None
        else:
            pool_stats, exchange = None, None
        jobs = tuple(self._job_stats(record, now) for record in records)
        finished = len(
            [job for job in jobs if job.status not in ("queued", "running")]
        )
        return ServiceStats(
            pending=pending,
            running=running,
            finished=finished,
            submitted=len(records),
            max_concurrent_jobs=self.max_concurrent_jobs,
            max_pending=self.max_pending,
            jobs=jobs,
            latency=latency_summary(jobs),
            pool=pool_stats,
            exchange=exchange,
            cache=self._cache_stats(),
        )

    def _cache_stats(self) -> dict | None:
        """Aggregated proof-cache counters across every attached store."""
        with self._lock:
            stores = list(self._stores.values())
        if not stores:
            return None
        merged: dict = {"stores": len(stores)}
        for store in stores:
            for key, value in store.stats().items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    merged[key] = merged.get(key, 0) + value
        if len(stores) == 1:
            merged["root"] = stores[0].stats()["root"]
        return merged

    def _resolver_for(self, record: _JobRecord):
        """The job's cache resolver, or ``None`` when caching is off."""
        config = record.config
        if config.cache_mode == "off":
            return None
        if config.cache_dir:
            cache_dir, mode = config.cache_dir, config.cache_mode
        elif self.cache_dir and self.cache_mode != "off":
            cache_dir, mode = self.cache_dir, self.cache_mode
        else:
            return None
        from ..cache import CacheResolver, ProofStore

        with self._lock:
            store = self._stores.get(cache_dir)
            if store is None:
                store = ProofStore(cache_dir)
                self._stores[cache_dir] = store
        return CacheResolver(
            store,
            mode,
            solver_backend=config.solver_backend,
            local=record.local,
        )

    @staticmethod
    def _job_stats(record: _JobRecord, now: float) -> JobStats:
        handle = record.handle
        started = record.started_at
        finished_at = record.finished_at
        if started is None:
            # Never started: its whole life (so far) was queue wait.
            wait = (finished_at if finished_at is not None else now)
            wait -= record.submitted_at
            run = 0.0
        else:
            wait = started - record.submitted_at
            run = (finished_at if finished_at is not None else now) - started
        return JobStats(
            job=handle.job_id,
            design=handle.design_name,
            strategy=handle.strategy,
            status=handle.status.value,
            kind=record.kind,
            priority=record.priority,
            started=started is not None,
            wait_s=max(0.0, wait),
            run_s=max(0.0, run),
        )

    def subscribe(self, callback: Emit) -> Emit:
        """Register a callback for every job's events; returns it."""
        with self._lock:
            self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: Emit) -> None:
        with self._lock:
            self._subscribers.remove(callback)

    def _emit_service(self, event: ProgressEvent) -> None:
        with self._lock:
            subscribers = list(self._subscribers)
        for callback in subscribers:
            callback(event)

    def _emit_job(self, record: _JobRecord, event: ProgressEvent) -> None:
        record.handle._emit(event)
        self._emit_service(event)

    def _guarded_job_emit(self, record: _JobRecord):
        """An emit router that survives raising subscribers.

        Pooled jobs' events are delivered on the dispatcher thread,
        which must outlive any one job — so a subscriber exception
        (``BrokenPipeError`` from a print callback is the classic) is
        recorded as the job's failure and later events are dropped,
        instead of unwinding the scheduler.  The job's result is that
        exception from then on, so its queued attempts are cancelled
        (by command: this may be running mid scheduler step).  Threaded
        jobs keep the raise-at-call-site behaviour (it aborts the
        strategy early, exactly like the pre-service ``Session`` did).
        """

        def emit(event: ProgressEvent) -> None:
            if record.emit_failure is not None:
                return
            try:
                self._emit_job(record, event)
            except BaseException as exc:  # surfaced via the job's future
                record.emit_failure = exc
                self._commands.put(("cancel", record))
                self._wake.set()

        return emit

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        design,
        config: VerificationConfig | None = None,
        *,
        priority: float | None = None,
        block: bool = True,
        timeout: float | None = None,
        on_event: Emit | None = None,
        **overrides: object,
    ) -> JobHandle:
        """Queue one verification job; returns its handle immediately.

        ``design`` is anything :class:`~repro.session.Session` accepts
        (path, AIG, or TransitionSystem); ``overrides`` are config
        fields applied on top of ``config``.  ``priority`` (default:
        ``config.priority``) weights the job's fair share of worker
        seats.  When the admission queue is full, ``block=True`` waits
        (up to ``timeout`` seconds) for space and ``block=False``
        raises :class:`QueueFull`; either way a
        :class:`~repro.progress.ServiceSaturated` event records the
        back-pressure.
        """
        ts, base, strategy, order = prepare(design, config, overrides)
        if order is None:
            order = [p.name for p in ts.properties]
        weight = float(priority) if priority is not None else float(base.priority)
        if weight <= 0:
            raise ValueError(f"priority must be > 0, got {weight!r}")
        kind = "pool" if getattr(strategy, "pooled", False) else "thread"
        local = getattr(strategy, "local", True)

        deadline = None if timeout is None else time.monotonic() + timeout
        saturation_announced = False
        while True:
            with self._not_full:
                if self._closed:
                    raise RuntimeError("VerificationService is closed")
                pending_now = len(self._pending)
                if pending_now < self.max_pending:
                    self._job_ids += 1
                    handle = JobHandle(
                        f"job-{self._job_ids - 1}",
                        base.design_name,
                        base.strategy,
                        weight,
                    )
                    record = _JobRecord(handle, ts, base, order, weight, kind, local)
                    handle._cancel_request = (
                        lambda _h: self._request_cancel(record)
                    )
                    self._pending.append(record)
                    self._records.append(record)
                    break
            # Queue full: announce the back-pressure OUTSIDE the lock (a
            # subscriber may call back into the service), then refuse or
            # wait for space.
            if not saturation_announced:
                saturation_announced = True
                self._emit_service(
                    ServiceSaturated(
                        pending=pending_now, limit=self.max_pending
                    )
                )
            if not block:
                raise QueueFull(pending_now, self.max_pending)
            with self._not_full:
                if self._closed:
                    raise RuntimeError("VerificationService is closed")
                if len(self._pending) >= self.max_pending:
                    remaining = (
                        None
                        if deadline is None
                        else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        raise QueueFull(len(self._pending), self.max_pending)
                    if not self._not_full.wait(timeout=remaining):
                        raise QueueFull(len(self._pending), self.max_pending)
        if on_event is not None:
            handle.subscribe(on_event)
        try:
            self._emit_job(
                record,
                JobQueued(
                    job=handle.job_id,
                    design=base.design_name,
                    strategy=base.strategy,
                    priority=weight,
                ),
            )
        finally:
            # Only now may the dispatcher touch the record; without the
            # gate a fast job could finish before its JobQueued is out.
            record.announced = True
            self._ensure_dispatcher()
            self._wake.set()
        return handle

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def _request_cancel(self, record: _JobRecord) -> bool:
        queued = False
        with self._lock:
            if record.handle.status is JobStatus.QUEUED:
                if record not in self._pending:  # being admitted right now
                    return False
                self._pending.remove(record)
                record.cancel_requested = True
                queued = True
                self._not_full.notify()
            elif (
                record.handle.status is JobStatus.RUNNING
                and record.kind == "pool"
            ):
                record.cancel_requested = True
                self._commands.put(("cancel", record))
                self._wake.set()
                return True
            else:
                return False
        if queued:
            self._finalize(record, self._cancelled_report(record), None)
        return queued

    def _cancelled_report(self, record: _JobRecord) -> MultiPropReport:
        """All-UNKNOWN report for a job cancelled before it started."""
        report = MultiPropReport(
            method=record.config.strategy, design=record.config.design_name
        )
        for name in record.order:
            report.outcomes[name] = PropOutcome(
                name=name, status=PropStatus.UNKNOWN, local=record.local
            )
        report.stats = {"cancelled": len(record.order), "mode": "cancelled"}
        return report

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _ensure_dispatcher(self) -> None:
        with self._lock:
            if self._dispatcher is None:
                self._dispatcher = threading.Thread(
                    target=self._serve, name="repro-service", daemon=True
                )
                self._dispatcher.start()

    def _serve(self) -> None:
        while True:
            self._drain_commands()
            self._admit_ready()
            if self._stopping:
                with self._lock:
                    # A running record with no pooled_job yet may be mid
                    # cache-resolution on a helper thread; its "admit"
                    # command still needs this loop, so stop only when
                    # the running set is empty (not merely thread-kind
                    # free).
                    stop = not self._pending and not self._running
                if stop:
                    return  # every job is final
            scheduler = self._scheduler
            if scheduler is not None and scheduler.jobs:
                scheduler.step(timeout=0.05)
                continue
            if scheduler is not None:
                # Idle upkeep: a crashed seat whose backoff expires
                # between jobs is revived now, not at the next admission.
                scheduler.maintain()
            self._wake.wait(timeout=0.05)
            self._wake.clear()

    def _drain_commands(self) -> None:
        while True:
            try:
                command = self._commands.get_nowait()
            except queue_mod.Empty:
                return
            if command[0] == "cancel":
                # A user's cancel, or a failed subscriber: nobody wants
                # the verdicts in flight, so their seats are stopped.
                record = command[1]
                job = record.pooled_job
                if job is not None:
                    self._scheduler.cancel_job(job, stop=True)
                # pooled_job is None while the job is still in cache
                # resolution; _start_pooled honours the request.
            elif command[0] == "admit":
                # A pooled job finished cache resolution off-thread and
                # is ready for its (possibly reduced) seat admission.
                record = command[1]
                try:
                    self._start_pooled(record)
                except BaseException as exc:
                    self._finalize(record, None, exc)
            elif command[0] == "stats":
                request = command[1]
                try:
                    request.result = self._build_stats()
                finally:
                    request.ready.set()

    def _admit_ready(self) -> None:
        while True:
            with self._lock:
                if (
                    not self._pending
                    or not self._pending[0].announced
                    or len(self._running) >= self.max_concurrent_jobs
                ):
                    return
                record = self._pending.popleft()
                self._running.add(record)
                self._not_full.notify()
            self._start_job(record)

    def _start_job(self, record: _JobRecord) -> None:
        handle = record.handle
        record.started_at = time.monotonic()
        handle._transition(JobStatus.RUNNING)
        try:
            record.resolver = self._resolver_for(record)
            self._emit_job(
                record,
                JobStarted(
                    job=handle.job_id,
                    design=record.config.design_name,
                    strategy=record.config.strategy,
                    mode=record.kind,
                ),
            )
            if record.kind == "thread":
                target = self._run_threaded
            elif record.resolver is not None and record.resolver.readable:
                # Cache resolution certifies stored witnesses (SAT
                # work); it must not run on the dispatcher thread.
                target = self._resolve_pooled
            else:
                self._start_pooled(record)
                return
            record.thread = threading.Thread(
                target=target,
                args=(record,),
                name=f"repro-{handle.job_id}",
                daemon=True,
            )
            record.thread.start()
        except BaseException as exc:  # admission failed: fail the job
            self._finalize(record, None, exc)

    def _resolve(self, record: _JobRecord, emit: Emit) -> MultiPropReport | None:
        """The job's cache pass; its report if the cache served it whole.

        Serves certified hits and notes what is left to prove.  A
        pooled remainder also gets the store's warm-start clauses for
        its seats' clause DBs.
        """
        resolver = record.resolver
        if resolver is None or not resolver.readable:
            return None
        record.cached_outcomes, record.remaining_order = resolver.resolve(
            record.ts, record.order, emit
        )
        if not record.remaining_order:
            return self._cache_report(record)
        if record.kind == "pool":
            record.warm_clauses = tuple(resolver.warm_clauses(record.ts))
        return None

    def _resolve_pooled(self, record: _JobRecord) -> None:
        """Off-dispatcher cache pass for a pooled job: what it leaves to
        prove goes back to the dispatcher as an ``admit`` command."""
        try:
            report = self._resolve(record, self._guarded_job_emit(record))
        except BaseException as exc:
            self._finalize(record, None, exc)
        else:
            if report is None:
                self._commands.put(("admit", record))
            else:
                self._finalize(record, report, None)
        self._wake.set()

    def _cache_report(self, record: _JobRecord) -> MultiPropReport:
        """Report for a job fully served from the proof cache."""
        return MultiPropReport(
            method=record.config.strategy,
            design=record.config.design_name,
            outcomes={},  # cached outcomes merged in _finalize
            total_time=time.monotonic() - record.started_at,
            stats={"mode": "cache", "cache_hits": len(record.cached_outcomes)},
        )

    def _start_pooled(self, record: _JobRecord) -> None:
        """Seat what is left to prove of a pooled job (dispatcher thread)."""
        if record.cancel_requested or record.emit_failure is not None:
            # Settled while it was still resolving: cancelled, or failed
            # by its own subscriber.
            self._finalize(record, self._cancelled_report(record), None)
            return
        if not record.remaining_order:
            self._finalize(record, empty_report(record.config), None)
            return
        self._ensure_scheduler(record)
        record.pooled_job = self._scheduler.admit(
            record.ts,
            record.config,
            self._guarded_job_emit(record),
            record.remaining_order,
            warm_clauses=record.warm_clauses,
            priority=record.priority,
            job_id=record.handle.job_id,
            on_finish=lambda job: self._pooled_finished(record, job),
        )

    def _ensure_scheduler(self, record: _JobRecord) -> None:
        if self._scheduler is not None:
            return
        if self._pool is None:
            # Size by the service's own knob, the first job's explicit
            # worker count, or one seat per CPU — deliberately NOT
            # clamped by the first job's property count (a 1-property
            # first job must not cap the whole service at one seat).
            workers = (
                self._workers
                if self._workers is not None
                else record.config.workers
            )
            self._pool = WorkerPool(
                workers=workers, start_method=self._start_method
            )

        def safe_service_emit(event: ProgressEvent) -> None:
            # Scheduler-originated events (revived seats) are delivered
            # on the dispatcher thread; a raising subscriber must not
            # kill it.
            try:
                self._emit_service(event)
            except Exception:
                pass

        self._scheduler = SeatScheduler(
            self._pool,
            service_emit=safe_service_emit,
            backoff_base=self.seat_backoff_base,
            backoff_cap=self.seat_backoff_cap,
        )
        if self._owns_pool:
            self._scheduler.pool_label = "ephemeral"

    def _pooled_finished(self, record: _JobRecord, job) -> None:
        record.pooled_job = None
        if job.error is not None:
            self._finalize(record, None, job.error)
        else:
            self._finalize(record, job.build_report(self._pool), None)

    def _run_threaded(self, record: _JobRecord) -> None:
        """A sequential strategy, cache pass to report, on its own thread."""

        def emit(event: ProgressEvent) -> None:
            self._emit_job(record, event)

        try:
            report = self._resolve(record, emit)
            if report is None:
                config = record.config
                if record.cached_outcomes:
                    config = config.with_overrides(order=record.remaining_order)
                report = get_strategy(config.strategy).run(record.ts, config, emit)
            error = None
        except BaseException as exc:  # re-raised at handle.result()
            report, error = None, exc
        self._finalize(record, report, error)
        self._wake.set()

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _finalize(self, record: _JobRecord, report, error) -> None:
        handle = record.handle
        record.finished_at = time.monotonic()
        failure = error if error is not None else record.emit_failure
        if failure is not None:
            status = JobStatus.FAILED
        elif record.cancel_requested:
            status = JobStatus.CANCELLED
        else:
            status = JobStatus.DONE
        if report is not None and record.cached_outcomes:
            # Splice cache-served verdicts back in, preserving the
            # original submission order of the property list.
            merged = dict(record.cached_outcomes)
            merged.update(report.outcomes)
            report.outcomes = {
                name: merged[name] for name in record.order if name in merged
            }
            for name, outcome in merged.items():  # safety: never drop one
                if name not in report.outcomes:
                    report.outcomes[name] = outcome
            report.stats = dict(report.stats)
            report.stats["cache_hits"] = len(record.cached_outcomes)
        if (
            failure is None
            and status is JobStatus.DONE
            and report is not None
            and record.resolver is not None
            and record.ts is not None
        ):
            try:
                record.resolver.record_outcomes(
                    record.ts, report.outcomes, record.config.design_name
                )
            except Exception:
                # A broken cache write-back (disk full, permissions)
                # must never fail a successfully verified job.
                pass
        # Transition BEFORE emitting JobFinished: an ``events()`` stream
        # opened in between sees a terminal handle and yields nothing,
        # instead of registering a queue that would never receive its
        # terminating event.  Queues registered earlier still get it.
        handle._transition(status)
        try:
            self._emit_job(
                record,
                JobFinished(
                    job=handle.job_id,
                    status=status.value,
                    total_time=report.total_time if report is not None else 0.0,
                    num_true=len(report.true_props()) if report is not None else 0,
                    num_false=len(report.false_props())
                    if report is not None
                    else 0,
                    num_unknown=len(report.unsolved())
                    if report is not None
                    else 0,
                ),
            )
        except BaseException as exc:
            # A raising subscriber must never leave the future pending
            # (the caller would block forever); it becomes the result.
            if failure is None:
                failure = exc
                handle._transition(JobStatus.FAILED)
        with self._lock:
            self._running.discard(record)
        record.ts = None  # free the design; the report stands alone
        if failure is not None:
            handle.done.set_exception(failure)
        else:
            handle.done.set_result(report)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> None:
        """Block until every submitted job is terminal."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for handle in self.jobs():
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            if not handle.wait(timeout=remaining):
                raise TimeoutError(
                    f"jobs still running after {timeout} seconds"
                )

    def close(self, timeout: float | None = 30.0) -> None:
        """Stop admission, cancel queued jobs, wait for running ones.

        Running jobs finish normally (pooled jobs keep their seats
        until done); queued jobs resolve as CANCELLED.  An owned pool
        is shut down; an attached pool is released but left running.
        Idempotent.
        """
        with self._lock:
            if self._torn_down:
                return
            self._torn_down = True
            self._closed = True
            self._stopping = True
            cancelled = list(self._pending)
            self._pending.clear()
            self._not_full.notify_all()
        for record in cancelled:
            record.cancel_requested = True
            self._finalize(record, self._cancelled_report(record), None)
        self._wake.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout)
        for record in list(self._records):
            if record.thread is not None:
                record.thread.join(timeout)
        if self._scheduler is not None:
            self._scheduler.close()
            self._scheduler = None
        if self._owns_pool and self._pool is not None:
            self._pool.shutdown()

    def __enter__(self) -> "VerificationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"VerificationService({state}, "
            f"{len(self._running)} running, {len(self._pending)} pending)"
        )


def run_one(
    ts: TransitionSystem,
    config: VerificationConfig,
    emit: Emit | None = None,
) -> MultiPropReport:
    """One job, start to report, on a service opened and closed around it.

    The service attaches to ``config.pool`` if set; else a pooled
    strategy gets its own pool for the run: ``config.workers`` seats
    (default one per CPU), never more than there are properties.
    """
    order = config.order
    properties = ts.properties if order is None or isinstance(order, str) else order
    workers = config.workers if config.workers is not None else os.cpu_count() or 1
    service = VerificationService(
        pool=config.pool,
        workers=min(workers, len(properties)),
        max_concurrent_jobs=1,
        max_pending=1,
    )
    try:
        return service.submit(ts, config, on_event=emit).result()
    finally:
        service.close()
