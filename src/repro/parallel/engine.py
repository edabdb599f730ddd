"""Seat scheduling behind the pooled strategies (``parallel-ja``, ``portfolio``).

A pooled job hands one local-proof attempt per property to a pool of
worker processes (Section 11's "one processor per property",
generalized to ``workers <= len(properties)``), merges the workers'
progress-event streams into the job's ``emit`` channel, aggregates the
per-property verdicts into one
:class:`~repro.multiprop.report.MultiPropReport`, and cancels the
still-queued remainder early when

* the run-level verdict is decided: ``stop_on_failure`` is set and a
  property came back FAILS (the aggregate "all properties hold" is then
  false, and per Section 3 the debugging set must be fixed before the
  rest is worth finishing), or
* the ``total_time`` budget expired (the watchdog also clamps each
  job's per-property budget, so no single worker can overrun the total
  by more than one property's worth of work).

Cancelled properties are reported UNKNOWN, exactly like the sequential
driver's budget-exhausted tail.

Design notes
------------

* **One route to a seat.**  A served ``repro submit``, a one-shot
  ``Session`` and a direct :func:`parallel_ja_verify` call are all one
  :class:`PooledJob` on the :class:`SeatScheduler` of a
  :class:`~repro.service.VerificationService`; the one-shot ones open
  and close that service around their job
  (:func:`repro.service.core.run_one`), on ``VerificationConfig.pool``
  when given (workers and cached designs are reused across runs), else
  on a pool of their own.
* **Parent-side scheduling.**  The scheduler keeps each job's property
  backlog and assigns the next property to whichever worker reports
  idle, through that worker's private queue (see
  :mod:`repro.parallel.pool` for why a shared task queue cannot survive
  worker crashes) — weighted fair share across jobs, LPT within one.
  One output queue carries events, results and errors, so the parent
  needs no auxiliary threads and, with one worker and one job, the
  message stream — and so the session's event sequence — is
  deterministic.  Messages carry their run id; a previous run's
  stragglers on a shared pool are discarded by the pool.
* **One run per job, one unit of work per seat.**  Every job — a
  ``parallel-ja`` batch or a ``portfolio`` race alike — is one
  :class:`PooledJob` on one pool run, and its backlog is a list of
  :class:`~repro.parallel.worker.PropertyJob` *attempts*, one per
  property and slate engine (the slate is ``(None,)``, the local
  proof, unless the config's strategy is ``portfolio``).  The scheduler
  tracks which attempt each seat holds and hands every terminal
  message to the job's *policy* — :class:`LocalProofs` or
  :class:`~repro.parallel.portfolio.EngineRace` — which says what it
  means for the property.  A job's report is delivered when every
  property is **decided**; its run is closed when the last attempt
  still on a seat has **drained** (the two differ only for a race
  whose losers are still running).  A decision stops the seats that
  still run the property's other attempts
  (:meth:`~repro.parallel.pool.WorkerPool.stop_seat`), so a loser
  drains within one budget check of its engine.
* **Size-aware dispatch**: with no explicit property order, the backlog
  is ordered by *descending* estimated cone-of-influence size, the
  classic LPT list-scheduling heuristic — big proofs start first, so
  the last running worker holds a small job and the straggler tail
  shrinks.  Verdicts are order-independent; the report always follows
  the property order.
* **Worker crashes** (a killed process, an OOM) are detected by polling
  worker liveness while the queue is idle; because assignment is
  parent-side, the scheduler knows exactly which job a dead worker held
  and **re-dispatches it once** — the very attempt object, engine and
  seed included — onto a live seat or the dead seat's respawn (emitting
  :class:`~repro.progress.PropertyRequeued`); only a second crash on
  the same attempt degrades it to UNKNOWN.  Dead seats respawn under a
  backoff schedule; a job's remainder degrades to UNKNOWN only when the
  pool was shut down or every seat is in a crash loop.
* **Sharded clause exchange** (``exchange=True`` with ``clause_reuse``)
  routes clause traffic through one
  :class:`~repro.parallel.exchange.ExchangeShard` per property cluster
  (``exchange_shards``: a count, or ``"auto"`` for one shard per
  structural cluster).  Shard ``i`` of every job lives in manager
  process ``i`` of the scheduler's
  :class:`~repro.parallel.exchange.ShardHost` (started by the first
  exchanging job, stopped by :meth:`SeatScheduler.close`) —
  publish/fetch throughput scales with the shard count and clauses
  never cross cluster boundaries.  With ``exchange=False`` each worker
  still re-uses its *own* proofs' clauses, Section 6 style, but nothing
  crosses process boundaries (Table X's independent-proof mode).
"""

from __future__ import annotations

import queue as queue_mod
import time
from dataclasses import dataclass, replace
from collections.abc import Sequence

from ..config import VerificationConfig
from ..engines.randomwalk import derive_seed
from ..engines.result import PropStatus
from ..multiprop.ordering import cone_latches
from ..multiprop.report import MultiPropReport, PropOutcome
from ..progress import (
    BudgetCheckpoint,
    Emit,
    PoolAttached,
    PropertyCancelled,
    PropertyRequeued,
    ShardOpened,
    WorkerStarted,
    emit_or_null,
)
from ..ts.system import TransitionSystem
from .exchange import ShardHost, build_shard_map
from .pool import WorkerPool
from .portfolio import EngineRace, parse_engine_slate, race_stats
from .stats import PoolStats, SeatStats
from .worker import PropertyJob, WorkerSettings


class PooledJob:
    """Parent-side state of one admitted job (= one open run on the pool).

    Everything tracked per run lives here, so a :class:`SeatScheduler`
    can keep any number of them in flight: the backlog of
    :class:`~repro.parallel.worker.PropertyJob` attempts, the seats
    that acked this run's setup, the undecided property names and the
    verdicts so far, crash/retry bookkeeping, the watchdog deadline,
    and the job's sharded-exchange handle.  What an attempt's terminal
    message *means* for its property is the job's ``policy``:
    :class:`LocalProofs` (one attempt per property, whatever ends it
    is the verdict) or :class:`~repro.parallel.portfolio.EngineRace`
    (several engines per property, first definitive verdict wins).
    """

    def __init__(
        self,
        run_id: int,
        ts: TransitionSystem,
        config: VerificationConfig,
        emit: Emit,
        order: list[str],
        *,
        weight: float = 1.0,
        job_id: str | None = None,
        on_finish=None,
    ) -> None:
        self.run_id = run_id
        self.ts = ts
        self.config = config
        self.emit = emit
        self.order = list(order)
        self.weight = weight
        self.max_seats = config.max_seats
        self.job_id = job_id
        self.on_finish = on_finish
        self.start = time.monotonic()
        self.deadline = (
            None
            if config.total_time is None
            else self.start + config.total_time
        )
        self.pending = set(order)  # properties not yet decided
        self.outcomes: dict[str, PropOutcome] = {}
        self.backlog: list[PropertyJob] = []
        self.ready: set = set()  # seats that acked this run's setup
        self.retried: set = set()  # attempts already re-dispatched once
        self.errors: list[str] = []
        self.error: BaseException | None = None
        self.cancelled = False
        self.cancelled_count = 0
        self.crashes = 0
        self.redispatched = 0
        self.finished = False  # every property decided, report deliverable
        self.total_time = 0.0
        self.dispatch_mode = "fifo"
        self.pool_label = "persistent"
        self.use_exchange = False
        self.num_shards = 0
        self.exchange = None
        self.exchange_stats: dict = {}
        self.policy = None  # LocalProofs or EngineRace, set at admission

    def record(self, outcome: PropOutcome, checkpoint: bool = True) -> None:
        """Decide ``outcome.name``: the property leaves ``pending``."""
        if outcome.name not in self.pending:  # pragma: no cover - defensive
            return
        self.pending.discard(outcome.name)
        self.outcomes[outcome.name] = outcome
        if checkpoint:
            self.emit(
                BudgetCheckpoint(
                    scope="total", elapsed=time.monotonic() - self.start
                )
            )

    def build_report(self, pool: WorkerPool) -> MultiPropReport:
        """The job's :class:`MultiPropReport` (property order preserved)."""
        report = MultiPropReport(
            method=self.policy.method, design=self.config.design_name
        )
        for name in self.order:  # property order, not completion order
            report.outcomes[name] = self.outcomes[name]
        report.total_time = self.total_time
        report.stats = self.policy.stats(pool)
        return report


class LocalProofs:
    """The ``parallel-ja`` policy: one attempt per property.

    Whatever ends the attempt — the worker's verdict, a cancellation,
    a verifier exception, a second seat crash — is the property's
    verdict; anything but a result degrades it to UNKNOWN.  The worker
    already streamed the ``PropertyStarted``/``PropertySolved`` pair of
    an attempt that ran, so only the degraded endings emit here.
    """

    method = "parallel-ja"

    def __init__(self, job: PooledJob) -> None:
        self.job = job

    def forward(self, attempt: PropertyJob, event) -> None:
        self.job.emit(event)

    def result(self, attempt: PropertyJob, outcome: PropOutcome) -> PropOutcome:
        self.job.record(outcome)
        return outcome

    def cancelled(
        self, attempt: PropertyJob, worker_id: int | None, checkpoint: bool = True
    ) -> None:
        self.job.cancelled_count += 1
        self.job.emit(PropertyCancelled(name=attempt.name, worker=worker_id))
        self.lost(attempt, checkpoint)

    def error(self, attempt: PropertyJob, detail: str) -> None:
        self.job.errors.append(f"{attempt.name}: {detail}")
        self.job.record(
            PropOutcome(name=attempt.name, status=PropStatus.UNKNOWN, local=True)
        )

    def lost(self, attempt: PropertyJob, checkpoint: bool = False) -> None:
        outcome = PropOutcome(name=attempt.name, status=PropStatus.UNKNOWN, local=True)
        self.job.emit(outcome.solved_event())
        self.job.record(outcome, checkpoint)

    def stats(self, pool: WorkerPool) -> dict:
        job = self.job
        return {
            "mode": "process",
            "workers": pool.workers,
            "exchange": int(job.use_exchange),
            "exchange_clauses": job.exchange_stats.get("clauses", 0),
            "exchange_shards": job.num_shards,
            "exchange_per_shard": job.exchange_stats.get("shards", []),
            "cancelled": job.cancelled_count,
            "worker_crashes": job.crashes,
            "dispatch": job.dispatch_mode,
            "max_seats": job.max_seats,
            "redispatched": job.redispatched,
            "pool": job.pool_label,
            "pool_runs": pool.stats["runs"],
            "design_pickles": pool.stats["design_pickles"],
        }


#: Consecutive crashes, with no property served in between, after which
#: a dead seat no longer keeps jobs waiting for its respawn.
CRASH_LOOP = 3


@dataclass
class _SeatHealth:
    """Crash/backoff bookkeeping of one seat, as one scheduler sees it.

    ``consecutive`` counts crashes since the seat last served a full
    property (a ``result`` message resets it); the backoff schedule is
    keyed on it: the first crash respawns immediately, every further
    consecutive crash doubles the delay from ``backoff_base`` up to
    ``backoff_cap``.  ``down`` marks a crash already accounted, so
    repeated reaps of the same corpse cannot inflate the counters.
    """

    crashes: int = 0  # lifetime crashes attributed to this seat
    consecutive: int = 0  # crashes since the seat last served a property
    served: int = 0  # properties this seat completed (result messages)
    down: bool = False  # dead and accounted, respawn still owed
    delay: float = 0.0  # backoff delay the current crash earned
    not_before: float = 0.0  # monotonic instant the respawn unlocks


class SeatScheduler:
    """Fair multiplexer of many jobs' property backlogs onto pool seats.

    Each admitted job opens its own run (:meth:`WorkerPool.open_run`),
    and whenever a seat reports idle the scheduler picks which job
    feeds it by **weighted fair share** — the job minimizing
    ``(seats it holds + 1) / priority`` wins, ties to the oldest run —
    with LPT order inside each job's backlog.  One scheduler owns the
    pool's message stream (:meth:`WorkerPool.acquire_messages`); a
    :class:`~repro.service.VerificationService` keeps one alive across
    arbitrarily many concurrent jobs.

    Jobs are isolated from each other: run-id tagged messages, per-job
    watchdog deadlines, per-job sharded exchanges, exact crash
    attribution with one bounded re-dispatch,
    and per-job cancellation that never touches sibling jobs.  A
    crashed seat is respawned *mid-flight* and re-attached to every
    open run, under per-seat exponential backoff: the first crash
    respawns immediately, each further crash without a served property
    in between doubles the delay (``backoff_base`` up to
    ``backoff_cap``), and a seat that completes a property resets its
    schedule.  A crash-looping seat therefore costs a bounded respawn
    rate — never a hot loop — while a long-lived service is never
    *permanently* degraded; jobs stop waiting for such a seat after
    :data:`CRASH_LOOP` crashes in a row (see :meth:`_revival_pending`).
    """

    def __init__(
        self,
        pool: WorkerPool,
        *,
        service_emit: Emit | None = None,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
    ) -> None:
        if backoff_base <= 0 or backoff_cap < backoff_base:
            raise ValueError(
                f"need 0 < backoff_base <= backoff_cap, got "
                f"{backoff_base!r}/{backoff_cap!r}"
            )
        pool.acquire_messages(self)
        self.pool = pool
        # "ephemeral" when set by whoever created the pool just for this
        # scheduler; lands in PoolAttached and ``report.stats["pool"]``.
        self.pool_label = "persistent"
        self.service_emit = service_emit
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        # Manager processes hosting every job's exchange shards; none
        # are started until a job asks for an exchange.
        self._shard_host = ShardHost(ctx=pool.context)
        self.jobs: dict[int, PooledJob] = {}
        # seat -> (run id, attempt) it is currently executing
        self.assignments: dict[int, tuple[int, PropertyJob]] = {}
        self.idle: set = set()
        # seat -> crash/backoff record (created lazily, kept forever)
        self.seat_health: dict[int, _SeatHealth] = {}
        # clause-exchange totals of finished jobs (stats surface)
        self._exchange_totals = {
            "clauses": 0,
            "publishes": 0,
            "fetches": 0,
            "fetch_batches": 0,
        }
        self._last_reap = time.monotonic()

    def _seat_health(self, worker_id: int) -> _SeatHealth:
        health = self.seat_health.get(worker_id)
        if health is None:
            health = self.seat_health[worker_id] = _SeatHealth()
        return health

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(
        self,
        ts: TransitionSystem,
        config: VerificationConfig,
        emit: Emit | None,
        order: list[str],
        *,
        warm_clauses: Sequence = (),
        priority: float = 1.0,
        job_id: str | None = None,
        on_finish=None,
    ) -> PooledJob:
        """Open one job (one run) on the pool and queue its whole backlog.

        The backlog holds one attempt per property and slate engine
        (see :func:`slate_of`).  ``warm_clauses`` — a cross-run proof
        cache's clause log for this exact design — seed every per-shard
        ClauseDB a seat opens for the run, re-validated on insertion
        and backstopped by the engine's ``SeedCertificateError`` retry.
        """
        if priority <= 0:
            raise ValueError(f"priority must be > 0, got {priority!r}")
        if config.max_seats is not None and config.max_seats < 1:
            raise ValueError(
                f"max_seats must be >= 1, got {config.max_seats!r}"
            )
        pool = self.pool
        emit = emit_or_null(emit)
        # Fill never-started seats, then run a full reap — even with no
        # jobs registered — so a seat that died between jobs is
        # *accounted* before it is revived: an admission must never
        # hot-respawn a seat that is waiting out its backoff delay.
        started = pool.start_missing_workers()
        self._reap_crashed(emit)
        for worker_id in started:
            emit(WorkerStarted(worker=worker_id))
        emit(
            PoolAttached(
                workers=pool.workers,
                persistent=self.pool_label == "persistent",
                runs=pool.stats["runs"],
            )
        )

        # Per-property budget, clamped by the total budget so a single
        # worker cannot overrun the watchdog by an unbounded amount.
        job_time = config.per_property_time
        if config.total_time is not None:
            job_time = (
                config.total_time
                if job_time is None
                else min(job_time, config.total_time)
            )
        slate = slate_of(config)
        racing = slate != (None,)
        # Dispatch order: LPT (descending cone size) unless the caller
        # pinned an explicit order.  Races keep property order: a race
        # costs what its fastest engine costs, which cone size does not
        # predict.  The report keeps ``order``.
        if config.order is None and not racing:
            dispatch = _cone_descending(ts, order)
            dispatch_mode = "cone-desc"
        else:
            dispatch = list(order)
            dispatch_mode = "fifo"

        exchange = None
        num_shards = 0
        # Racing attempts compete; only plain local proofs exchange.
        use_exchange = config.exchange and config.clause_reuse and not racing
        if use_exchange:
            shard_map = build_shard_map(ts, order, config.exchange_shards)
            num_shards = shard_map.num_shards
            exchange = self._shard_host.open_shards(shard_map)
            for shard in range(num_shards):
                emit(
                    ShardOpened(
                        shard=shard, members=len(shard_map.members(shard))
                    )
                )

        proof = replace(config.proof_options(), per_property_time=job_time)
        settings = WorkerSettings(**vars(proof), warm_clauses=tuple(warm_clauses))
        run_id = pool.open_run(ts, settings, exchange)

        job = PooledJob(
            run_id,
            ts,
            config,
            emit,
            order,
            weight=priority,
            job_id=job_id,
            on_finish=on_finish,
        )
        job.dispatch_mode = dispatch_mode
        job.pool_label = self.pool_label
        job.use_exchange = use_exchange
        job.num_shards = num_shards
        job.exchange = exchange
        job.backlog = [
            PropertyJob(
                name=name,
                engine=engine,
                seed=(
                    derive_seed(config.seed, config.design_name, name)
                    if engine == "rw"
                    else None
                ),
            )
            for name in dispatch
            for engine in slate
        ]
        job.policy = EngineRace(job, slate) if racing else LocalProofs(job)
        self.jobs[run_id] = job
        return job

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    @property
    def live_jobs(self) -> list[PooledJob]:
        """Jobs with undecided properties.

        ``jobs`` additionally holds finished jobs whose run is still
        open because a losing attempt is draining on a seat.
        """
        return [job for job in self.jobs.values() if not job.finished]

    def step(self, timeout: float = 0.2, max_messages: int = 64) -> None:
        """One pump iteration: watchdogs, a message burst, crash reaping.

        The deadline check walks every live job, and an idle (or
        long-silent) queue triggers the crash sweep so a dead seat in a
        *busy* multi-job scheduler is still noticed promptly.  Only the
        first message blocks (up to ``timeout``); whatever else is
        already queued is drained in the same step, up to
        ``max_messages`` — with many jobs streaming progress events,
        the per-step bookkeeping cost is paid per burst, not per event.
        """
        now = time.monotonic()
        for job in self.live_jobs:
            if (
                job.deadline is not None
                and now > job.deadline
                and not job.cancelled
            ):
                self.cancel_job(job)
        if now - self._last_reap > 1.0:
            self._reap_crashed()
        try:
            message = self.pool.next_message(timeout=timeout)
        except queue_mod.Empty:
            self._reap_crashed()
            return
        self._dispatch_message(message)
        for _ in range(max_messages - 1):
            try:
                message = self.pool.next_message(timeout=0)
            except queue_mod.Empty:
                return
            self._dispatch_message(message)

    def _dispatch_message(self, message) -> None:
        kind, run_id, worker_id = message[0], message[1], message[2]
        job = self.jobs.get(run_id)
        if job is None:  # pragma: no cover - defensive
            return
        if kind == "ready":
            job.ready.add(worker_id)
            if worker_id not in self.assignments:
                self._feed_seat(worker_id)
        elif kind == "event":
            held = self.assignments.get(worker_id)
            if held is not None and held[0] == run_id:
                job.policy.forward(held[1], message[3])
        elif kind == "result":
            outcome = message[3]
            attempt = self._release(worker_id, run_id, outcome.name)
            if attempt is None:
                return
            # A seat that served a full property is healthy: its crash
            # streak — and therefore its backoff schedule — resets.
            health = self._seat_health(worker_id)
            health.served += 1
            health.consecutive = 0
            health.delay = 0.0
            verdict = job.policy.result(attempt, outcome)
            if verdict is not None:
                self._stop_losers(job, verdict.name)
                if (
                    job.config.stop_on_failure
                    and verdict.status is PropStatus.FAILS
                ):
                    self.cancel_job(job)
            self._feed_seat(worker_id)
        elif kind == "cancelled":
            attempt = self._release(worker_id, run_id, message[3])
            if attempt is None:
                return
            job.policy.cancelled(attempt, worker_id)
            self._feed_seat(worker_id)
        elif kind == "error":
            name, detail = message[3], message[4]
            attempt = self._release(worker_id, run_id, name)
            if attempt is None:
                # A run-setup failure: no attempt to pin it on.
                job.errors.append(f"{name}: {detail}")
            else:
                job.policy.error(attempt, detail)
            self._feed_seat(worker_id)
        self._maybe_finish(job)

    def _release(
        self, worker_id: int, run_id: int, name: str
    ) -> PropertyJob | None:
        """Free the seat a terminal message speaks for; the attempt it held.

        ``None`` for a straggler — the message of a process that
        crashed, written before it died and read after its attempt was
        re-dispatched: the seat's current assignment is not its to end.
        """
        held = self.assignments.get(worker_id)
        if held is None or held[0] != run_id or held[1].name != name:
            return None
        del self.assignments[worker_id]
        return held[1]

    def _stop_losers(self, job: PooledJob, name: str) -> None:
        """Stop every seat still running an attempt of a decided property.

        Only a race ever has one: ``LocalProofs`` queues one attempt per
        property, and it has just reported.  A stopped attempt reports
        UNKNOWN at its engine's next budget check, which frees the seat.
        """
        for worker_id, (run_id, attempt) in self.assignments.items():
            if run_id == job.run_id and attempt.name == name:
                self.pool.stop_seat(worker_id)

    # ------------------------------------------------------------------
    # Seat feeding (weighted fair share across jobs, LPT within one)
    # ------------------------------------------------------------------
    def _feed_seat(self, worker_id: int) -> None:
        """Hand an idle seat the fairest job's next property (or park it)."""
        if worker_id in self.assignments:
            return
        if not self.pool.worker_alive(worker_id):
            self.idle.discard(worker_id)
            return
        job = self._pick_job(worker_id)
        if job is None:
            self.idle.add(worker_id)
            return
        attempt = job.backlog.pop(0)
        self.assignments[worker_id] = (job.run_id, attempt)
        self.idle.discard(worker_id)
        self.pool.assign(worker_id, attempt, run_id=job.run_id)

    def _pick_job(self, worker_id: int) -> PooledJob | None:
        """Weighted fair share: fewest held seats per unit of priority.

        Only jobs whose setup this seat has acked are eligible (the
        FIFO control queue guarantees a worker never sees a job before
        its run's design), a job already holding its ``max_seats``
        quota is skipped outright, and ties go to the oldest run so
        admission order breaks symmetry deterministically.
        """
        busy: dict[int, int] = {}
        for run_id, _ in self.assignments.values():
            busy[run_id] = busy.get(run_id, 0) + 1
        best = None
        best_key = None
        for job in self.jobs.values():
            if job.finished or job.cancelled or not job.backlog:
                continue
            if worker_id not in job.ready:
                continue
            held = busy.get(job.run_id, 0)
            if job.max_seats is not None and held >= job.max_seats:
                continue
            key = ((held + 1) / job.weight, job.run_id)
            if best_key is None or key < best_key:
                best, best_key = job, key
        return best

    # ------------------------------------------------------------------
    # Cancellation and completion
    # ------------------------------------------------------------------
    def cancel_job(self, job: PooledJob) -> None:
        """Cancel one job: drain its backlog, let assigned seats report.

        Sibling jobs are untouched — the pool's per-run cancel either
        raises the epoch (oldest run, monotonic ids protect the rest)
        or sends run-targeted cancel messages.  Attempts already on a
        seat still report (their per-property budget is clamped by this
        job's total).
        """
        if job.finished or job.cancelled:
            return
        job.cancelled = True
        self.pool.cancel_run(job.run_id)
        self._drain_backlog(job)
        self._maybe_finish(job)

    def _drain_backlog(self, job: PooledJob, checkpoint: bool = True) -> None:
        backlog, job.backlog = job.backlog, []
        for attempt in backlog:
            job.policy.cancelled(attempt, None, checkpoint)

    def _maybe_finish(self, job: PooledJob) -> None:
        """Deliver the report once decided; close the run once drained.

        The two coincide unless a decided property's losing attempt is
        still on a seat: the run stays open — and the seat ``busy`` —
        until that attempt reports, so its message frees the seat
        instead of being discarded as a closed run's straggler.
        """
        if not job.finished and not job.pending:
            self._finish_job(job)
        if job.finished and job.run_id in self.jobs:
            seated = {run_id for run_id, _ in self.assignments.values()}
            if job.run_id not in seated:
                del self.jobs[job.run_id]
                self.pool.close_run(job.run_id)

    def _finish_job(self, job: PooledJob) -> None:
        job.finished = True
        job.total_time = time.monotonic() - job.start
        if job.exchange is not None:
            try:
                job.exchange_stats = job.exchange.stats()
            except Exception:  # pragma: no cover - managers died
                job.exchange_stats = {}
            for key in self._exchange_totals:
                self._exchange_totals[key] += job.exchange_stats.get(key, 0)
            # Dropping the proxies releases the host's shard objects.
            job.exchange = None
        if job.errors:
            job.error = RuntimeError(
                "parallel JA worker failure(s): " + "; ".join(job.errors)
            )
        if job.on_finish is not None:
            job.on_finish(job)

    # ------------------------------------------------------------------
    # Crash handling
    # ------------------------------------------------------------------
    def _reap_crashed(self, emit: Emit | None = None) -> None:
        """Account for dead seats, revive the due ones, degrade if none can.

        A crash (OOM kill, hard fault) is a degraded-but-valid run: the
        property the dead seat held is re-dispatched once within its
        job (``stats["redispatched"]``); a second crash on the same
        property — or a retry with nobody to run it — reports it
        UNKNOWN and counts in ``stats["worker_crashes"]`` either way.
        Only *verifier exceptions* (the ``error`` message kind) fail a
        job, matching the sequential driver's propagation.  Revived
        seats are announced on ``emit`` (the job being admitted), else
        on ``service_emit``.
        """
        self._last_reap = time.monotonic()
        failed = self.pool.failed_workers()
        for worker_id in failed:
            health = self._seat_health(worker_id)
            if not health.down:
                # Transition alive -> crashed: account exactly once per
                # crash (a corpse reaped again must not inflate the
                # streak) and price the respawn by the backoff schedule.
                health.down = True
                health.crashes += 1
                health.consecutive += 1
                health.delay = (
                    0.0
                    if health.consecutive <= 1
                    else min(
                        self.backoff_cap,
                        self.backoff_base * 2 ** (health.consecutive - 2),
                    )
                )
                health.not_before = self._last_reap + health.delay
            self.idle.discard(worker_id)
            for job in self.live_jobs:
                job.ready.discard(worker_id)
            held = self.assignments.pop(worker_id, None)
            if held is None:
                continue
            run_id, attempt = held
            job = self.jobs[run_id]
            if attempt.name in job.pending:
                job.crashes += 1
                self._retry_or_give_up(job, attempt, worker_id)
            else:
                # A decided property's loser died draining: nothing to
                # retry, but it may have been the run's last attempt.
                job.policy.lost(attempt)
                self._maybe_finish(job)
        if not self.pool.closed:
            self._revive(emit or self.service_emit)
        if not self.pool.any_alive() and not self._revival_pending():
            self._degrade_all()

    def maintain(self) -> None:
        """Idle-time upkeep: account crashes and fire due respawns.

        The service dispatcher calls this between jobs so a seat whose
        backoff expires while the pool sits idle is revived promptly —
        returning to full strength must not wait for the next
        admission.  Throttled to a few liveness sweeps per second.
        """
        if time.monotonic() - self._last_reap >= 0.2:
            self._reap_crashed()

    def _revival_pending(self) -> bool:
        """True while a crashed seat's respawn is worth waiting for.

        Keeps :meth:`_degrade_all` honest under delayed revival: with
        every seat dead but a respawn merely waiting out its backoff,
        jobs must wait for the revived seat, not degrade to UNKNOWN.
        A seat :data:`CRASH_LOOP` crashes into a streak still respawns
        on schedule, but no job waits for it — they end UNKNOWN instead
        of hanging.
        """
        return not self.pool.closed and any(
            self._seat_health(worker_id).consecutive < CRASH_LOOP
            for worker_id in self.pool.failed_workers()
        )

    def _retry_or_give_up(
        self, job: PooledJob, attempt: PropertyJob, worker_id: int
    ) -> None:
        """One bounded retry for an attempt lost to a seat crash.

        The attempt goes back to its job's backlog *front* (it already
        waited its turn once) and straight to an idle live seat when
        one is parked; with no live seat it stays queued — the next
        revived seat's ``ready`` ack drains the seatless backlog.  On a
        pool shut down under the scheduler it degrades to UNKNOWN here,
        never claiming a re-dispatch that could not execute.
        """
        if (
            attempt not in job.retried
            and not job.cancelled
            and not self.pool.closed
        ):
            job.retried.add(attempt)
            job.redispatched += 1
            job.backlog.insert(0, attempt)
            job.emit(PropertyRequeued(name=attempt.name, worker=worker_id))
            for idle_worker in sorted(self.idle):
                if self.pool.worker_alive(idle_worker):
                    self._feed_seat(idle_worker)
                    break
            return
        job.policy.lost(attempt)
        self._maybe_finish(job)

    def _revive(self, emit: Emit | None) -> None:
        """Respawn dead seats whose backoff has elapsed; re-attach runs.

        Only seats the scheduler actually lost are touched (and hence
        accounted), via :meth:`WorkerPool.respawn_workers` — never seats
        another path happened to start.  A crash-looping seat is throttled
        by its own exponential schedule while healthy seats respawn
        immediately, so a long-lived service recovers full strength the
        moment the faulty environment heals.  Revived seats drain the
        backlogs of seatless jobs through their ``ready`` acks.
        """
        now = time.monotonic()
        due = [
            worker_id
            for worker_id in self.pool.failed_workers()
            if self._seat_health(worker_id).not_before <= now
        ]
        if not due:
            return
        fresh = self.pool.respawn_workers(due)
        for worker_id in fresh:
            self._seat_health(worker_id).down = False
            for job in self.live_jobs:
                self.pool.attach_worker(job.run_id, worker_id)
            if emit is not None:
                emit(WorkerStarted(worker=worker_id))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> PoolStats:
        """Snapshot pool occupancy and per-seat crash/backoff state."""
        pool = self.pool
        now = time.monotonic()
        job_ids = {
            job.run_id: (job.job_id or f"run-{job.run_id}")
            for job in self.jobs.values()
        }
        seats = []
        for worker_id in range(pool.workers):
            held = self.assignments.get(worker_id)
            health = self.seat_health.get(worker_id)
            down = health is not None and health.down
            seats.append(
                SeatStats(
                    worker=worker_id,
                    alive=pool.worker_alive(worker_id),
                    busy=held is not None,
                    job=job_ids.get(held[0]) if held else None,
                    prop=held[1].name if held else None,
                    crashes=health.crashes if health else 0,
                    consecutive_crashes=health.consecutive if health else 0,
                    backoff_s=health.delay if down else 0.0,
                    respawn_in_s=(
                        max(0.0, health.not_before - now) if down else 0.0
                    ),
                    properties_served=health.served if health else 0,
                )
            )
        alive = sum(1 for seat in seats if seat.alive)
        return PoolStats(
            workers=pool.workers,
            alive=alive,
            busy=len(self.assignments),
            idle=max(0, alive - len(self.assignments)),
            open_runs=len(pool.open_runs),
            seats=tuple(seats),
            counters=dict(pool.stats),
        )

    def exchange_traffic(self) -> dict:
        """Clause-exchange totals: finished jobs plus live shard reads.

        Live jobs' shard managers can die mid-read; those are skipped
        rather than failing the snapshot.
        """
        totals = dict(self._exchange_totals)
        live = []
        for job in self.live_jobs:
            if job.exchange is None:
                continue
            try:
                stats = job.exchange.stats()
            except Exception:  # pragma: no cover - managers died
                continue
            live.append(
                {
                    "job": job.job_id or f"run-{job.run_id}",
                    "clauses": stats.get("clauses", 0),
                    "fetch_batches": stats.get("fetch_batches", 0),
                    "shards": stats.get("shards", []),
                }
            )
            for key in totals:
                totals[key] += stats.get(key, 0)
        return {**totals, "live": live}

    def _degrade_all(self) -> None:
        """No seat left alive: every open job's remainder goes UNKNOWN.

        That includes attempts a seat took with it without crashing (a
        pool shut down under the scheduler): nobody will report them.
        """
        for run_id, attempt in self.assignments.values():
            self.jobs[run_id].backlog.insert(0, attempt)
        self.assignments.clear()
        for job in list(self.jobs.values()):
            self.pool.cancel_run(job.run_id)
            job.cancelled = True
            self._drain_backlog(job, checkpoint=False)
            self._maybe_finish(job)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the message lease; stop the shard managers.

        A run still open here belongs to a job abandoned on an
        exception path, or to a decided one whose losers are draining —
        close it so no open-run state outlives the scheduler.
        """
        for run_id in self.jobs:
            if not self.pool.closed:
                self.pool.cancel_run(run_id)
                self.pool.close_run(run_id)
        self._shard_host.shutdown()
        self.pool.release_messages(self)


# ----------------------------------------------------------------------
def _cone_descending(ts: TransitionSystem, order: list[str]) -> list[str]:
    """Jobs sorted by descending estimated COI size (ties keep order).

    Uses the same proof-hardness proxy as the ``"cone"`` property order
    (:func:`~repro.multiprop.ordering.cone_latches`) — here inverted:
    longest-processing-time-first list scheduling bounds the makespan
    much tighter than FIFO when property sizes are skewed.
    """
    position = {name: i for i, name in enumerate(order)}
    return sorted(order, key=lambda n: (-cone_latches(ts, n), position[n]))


def slate_of(config: VerificationConfig) -> tuple:
    """The engines attempted per property: the config's strategy being
    ``portfolio`` is what makes a pooled job a race; ``(None,)`` is the
    one local proof."""
    if config.strategy == "portfolio":
        return parse_engine_slate(config.portfolio_engines)
    return (None,)


def empty_report(config: VerificationConfig) -> MultiPropReport:
    """A pooled job with no property to prove: no pool, no run, no seat."""
    slate = slate_of(config)
    if slate == (None,):
        method = LocalProofs.method
        stats = {"mode": "process", "workers": 0, "exchange": 0}
    else:
        method = EngineRace.method
        stats = race_stats(0, slate, config.seed, {})
    return MultiPropReport(method=method, design=config.design_name, stats=stats)


def parallel_ja_verify(
    ts: TransitionSystem,
    config: VerificationConfig | None = None,
    emit: Emit | None = None,
) -> MultiPropReport:
    """Process-parallel JA-verification with live clause exchange (Sec. 11).

    Verdicts are the same as sequential JA-verification produces (local
    proofs are independent; clause exchange only changes how fast they
    finish), which the integration suite checks property-by-property.
    """
    from ..service.core import run_one

    config = replace(config or VerificationConfig(), strategy="parallel-ja")
    return run_one(ts, config, emit)
