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
  A busy seat also holds its *next* attempt (:attr:`SeatScheduler.queued`,
  at most one), so it starts proving again as soon as it reports,
  without waiting for the parent's reply — but only from the job it is
  running, and only while that job's backlog still holds more than
  ``2 × workers`` attempts, so each job's last rounds are dealt on
  demand to whichever seat frees first.  Queueing behind the seat's own
  job keeps a cancel's wait within that job's budgets: a queued
  attempt never waits on another job's proof, and never adds a seat to
  a job's ``max_seats`` count.  A seat's messages arrive in FIFO order,
  so its running attempt's terminal message always precedes the queued
  one's first event: on it the queued attempt becomes the running one.
  Each seat's own output queue carries its events, results and
  errors, and the pool reads them all in one wait, so the parent needs
  no auxiliary threads and, with one worker and one job, the message
  stream — and so the session's event sequence — is deterministic.
  Messages carry their run id; a previous run's stragglers on a shared
  pool are discarded by the pool.
* **One run per job, one attempt per property.**  Every job — a
  ``parallel-ja`` batch or a ``portfolio`` one alike — is one
  :class:`PooledJob` on one pool run, and its backlog is a list of
  :class:`~repro.parallel.worker.PropertyJob` *attempts*, one per
  property: the local proof, or — when the config's strategy is
  ``portfolio`` — a race of the engine slate that the seat runs by
  itself (:func:`~repro.parallel.portfolio.race`).  The scheduler
  tracks which attempt each seat holds, and whatever ends an attempt
  decides its property on the :class:`PooledJob`.  When the last
  property is decided, no attempt of the job is left on a seat: the
  report is delivered and the run closed together.
* **One way to stop work: the seat's stop mark**
  (:meth:`~repro.parallel.pool.WorkerPool.stop_seat`, by an attempt's
  sequence number; it stops that attempt and every earlier one on the
  seat).  A user's cancel marks each seat that holds the job's attempts
  at its newest one — the queued attempt's when there is one — so the
  running attempt reports UNKNOWN within one budget check of its engine
  and the queued one is declined unstarted, together, whatever the
  job's age.  The watchdog and ``stop_on_failure`` let the running
  attempt finish, since its verdict still counts, and stop a queued
  attempt only once it becomes its seat's running one.
* **Size-aware dispatch**: with no explicit property order, the backlog
  is ordered by *descending* estimated cone-of-influence size, the
  classic LPT list-scheduling heuristic — big proofs start first, so
  the last running worker holds a small job and the straggler tail
  shrinks.  Lookahead stops while the last ``2 × workers`` attempts
  remain, so the tail stays LPT: a queued attempt never waits behind a
  long proof while another seat sits idle.  Verdicts are
  order-independent; the report always follows the property order.
* **Worker crashes** (a killed process, an OOM) are detected by polling
  worker liveness while the queue is idle; because assignment is
  parent-side, the scheduler knows exactly which job a dead worker held
  and **re-dispatches it once** — the very attempt object, engine and
  seed included — onto a live seat or the dead seat's respawn (emitting
  :class:`~repro.progress.PropertyRequeued`); only a second crash on
  the same attempt degrades it to UNKNOWN.  The seat's queued attempt
  never ran: it goes back to the front of its job's backlog, counted
  neither as a crash nor as a re-dispatch.  Dead seats respawn under a
  backoff schedule; a job's remainder degrades to UNKNOWN only when the
  pool was shut down or every seat is in a crash loop.
* **Clause exchange is a relay** (``exchange=True`` with
  ``clause_reuse``; races never exchange).  Each job keeps one
  append-only, deduplicated clause log (:attr:`PooledJob.clause_log`):
  the proof cache's warm-start clauses first, then the invariant of
  every HOLDS result, which the ``result`` message carries anyway.
  Every job message takes along the part of the log its seat has not
  received yet (:meth:`PooledJob.unsent`), packed as one blob, and the
  seat adds it to the run's clause database before it proves — a
  queued attempt carries the log as of when it was sent.  With
  ``exchange=False`` nothing is appended, so seats get the warm start
  only and otherwise re-use their *own* proofs' clauses, Section 6
  style (Table X's independent-proof mode).
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
    WorkerStarted,
    emit_or_null,
)
from ..ts.system import TransitionSystem
from .exchange import pack_clauses
from .pool import WorkerPool
from .portfolio import parse_engine_slate, race_stats
from .stats import PoolStats, SeatStats
from .worker import PropertyJob


class PooledJob:
    """Parent-side state of one admitted job (= one open run on the pool).

    Everything tracked per run lives here, so a :class:`SeatScheduler`
    can keep any number of them in flight: the backlog of
    :class:`~repro.parallel.worker.PropertyJob` attempts, the seats
    that acked this run's setup, the undecided property names and the
    verdicts so far, crash/retry bookkeeping, the watchdog deadline,
    and the job's clause log.  ``slate`` is the engine slate a portfolio
    job races (``None`` for ``parallel-ja``); it decides the report's
    ``method`` and ``stats``.

    Whatever ends an attempt — the worker's verdict (a local proof's or
    a whole race's), a cancellation, a verifier exception, a second
    seat crash — is its property's verdict; anything but a result
    degrades it to UNKNOWN.  The worker already streamed the
    ``PropertyStarted``/``PropertySolved`` pair of an attempt that ran,
    so only the degraded endings emit here.
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
        slate: tuple[str, ...] | None = None,
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
        self.finished = False  # every property decided, run closed
        self.total_time = 0.0
        self.dispatch_mode = "fifo"
        self.pool_label = "persistent"
        self.use_exchange = False
        # Warm-start clauses, then (exchange on) every HOLDS invariant;
        # append-only, so what a seat has received is a log prefix.
        self.clause_log: list[tuple[int, ...]] = []
        self._logged: set = set()
        self.relayed: dict[int, int] = {}  # seat -> log prefix it holds
        self.exchanged = 0  # clauses the job's own proofs appended
        self.slate = slate

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

    def cancel_attempt(
        self, attempt: PropertyJob, worker_id: int | None, checkpoint: bool = True
    ) -> None:
        """``attempt`` was cancelled (on ``worker_id``, or still queued)."""
        self.cancelled_count += 1
        self.emit(PropertyCancelled(name=attempt.name, worker=worker_id))
        self.lose_attempt(attempt, checkpoint)

    def fail_attempt(self, attempt: PropertyJob, detail: str) -> None:
        """``attempt`` raised in its worker: UNKNOWN, and the job errs."""
        self.errors.append(f"{attempt.name}: {detail}")
        self.record(
            PropOutcome(
                name=attempt.name,
                status=PropStatus.UNKNOWN,
                local=True,
                errors=[detail],
            )
        )

    def lose_attempt(self, attempt: PropertyJob, checkpoint: bool = False) -> None:
        """``attempt`` ended without a verdict: its property is UNKNOWN."""
        outcome = PropOutcome(name=attempt.name, status=PropStatus.UNKNOWN, local=True)
        self.emit(outcome.solved_event())
        self.record(outcome, checkpoint)

    def log(self, clauses) -> int:
        """Append the clauses not logged yet (sorted by variable); #new."""
        added = 0
        for clause in clauses:
            key = tuple(sorted(clause, key=abs))
            if key and key not in self._logged:
                self._logged.add(key)
                self.clause_log.append(key)
                added += 1
        return added

    def unsent(self, worker_id: int) -> bytes:
        """The packed log entries ``worker_id`` has not received; now sent.

        A seat's ``ready`` ack resets its prefix: the run setup it
        acknowledges built a fresh clause database.
        """
        start = self.relayed.get(worker_id, 0)
        self.relayed[worker_id] = len(self.clause_log)
        return pack_clauses(self.clause_log[start:])

    def build_report(self, pool: WorkerPool) -> MultiPropReport:
        """The job's :class:`MultiPropReport` (property order preserved)."""
        report = MultiPropReport(
            method="parallel-ja" if self.slate is None else "portfolio",
            design=self.config.design_name,
        )
        for name in self.order:  # property order, not completion order
            report.outcomes[name] = self.outcomes[name]
        report.total_time = self.total_time
        if self.slate is not None:
            report.stats = race_stats(
                pool.workers,
                self.slate,
                self.config.seed,
                list(report.outcomes.values()),
            )
            return report
        report.stats = {
            "mode": "process",
            "workers": pool.workers,
            "exchange": int(self.use_exchange),
            "exchange_clauses": self.exchanged,
            "cancelled": self.cancelled_count,
            "worker_crashes": self.crashes,
            "dispatch": self.dispatch_mode,
            "max_seats": self.max_seats,
            "redispatched": self.redispatched,
            "pool": self.pool_label,
            "pool_runs": pool.stats["runs"],
            "design_pickles": pool.stats["design_pickles"],
            "design_ships": pool.stats["design_ships"],
        }
        return report


class _Held(tuple):
    """``(run id, attempt)`` on a seat; ``seq`` is its job message's number.

    A pair, so readers unpack ``run_id, attempt = held``; ``seq`` is
    what :meth:`WorkerPool.stop_seat` takes to stop this very attempt.
    """

    seq: int

    def __new__(cls, run_id: int, attempt: PropertyJob, seq: int) -> "_Held":
        held = super().__new__(cls, (run_id, attempt))
        held.seq = seq
        return held


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
    ``(seats running its attempts + 1) / priority`` wins, ties to the
    oldest run — with LPT order inside each job's backlog.  A busy seat
    is topped up with one queued attempt of the job it runs while that
    job's backlog exceeds ``2 × workers`` (see the module notes).  One
    scheduler owns the pool's message stream
    (:meth:`WorkerPool.acquire_messages`); a
    :class:`~repro.service.VerificationService` keeps one alive across
    arbitrarily many concurrent jobs.

    Jobs are isolated from each other: run-id tagged messages, per-job
    watchdog deadlines, per-job clause logs, exact crash
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
        self.jobs: dict[int, PooledJob] = {}
        # seat -> (run id, attempt) it is currently executing
        self.assignments: dict[int, _Held] = {}
        # seat -> (run id, attempt) sent behind its running attempt
        self.queued: dict[int, _Held] = {}
        self.idle: set = set()
        # seat -> crash/backoff record (created lazily, kept forever)
        self.seat_health: dict[int, _SeatHealth] = {}
        # clause-exchange traffic since this scheduler opened: clauses
        # appended to logs, results that appended, job messages relayed
        self._exchange = {"clauses": 0, "publishes": 0, "fetches": 0}
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

        The backlog holds one attempt per property, carrying the slate
        of a portfolio job (see :func:`slate_of`).  ``warm_clauses`` — a
        cross-run proof cache's clause log for this exact design — head
        the job's clause log, so every seat's clause DB for the run
        receives them, re-validated on insertion and backstopped by the
        engine's ``SeedCertificateError`` retry.
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
        # Dispatch order: LPT (descending cone size) unless the caller
        # pinned an explicit order.  Races keep property order: a race
        # costs what its fastest engine costs, which cone size does not
        # predict.  The report keeps ``order``.
        if config.order is None and slate is None:
            dispatch = _cone_descending(ts, order)
            dispatch_mode = "cone-desc"
        else:
            dispatch = list(order)
            dispatch_mode = "fifo"

        proof = replace(config.proof_options(), per_property_time=job_time)
        run_id = pool.open_run(ts, proof)

        job = PooledJob(
            run_id,
            ts,
            config,
            emit,
            order,
            weight=priority,
            job_id=job_id,
            on_finish=on_finish,
            slate=slate,
        )
        job.dispatch_mode = dispatch_mode
        job.pool_label = self.pool_label
        # A race's seat keeps its engines' clauses to itself; only plain
        # local proofs exchange.
        job.use_exchange = config.exchange and config.clause_reuse and slate is None
        job.log(warm_clauses)
        job.backlog = [
            PropertyJob(
                name=name,
                slate=slate,
                seed=(
                    None
                    if slate is None
                    else derive_seed(config.seed, config.design_name, name)
                ),
            )
            for name in dispatch
        ]
        self.jobs[run_id] = job
        return job

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
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
        for job in list(self.jobs.values()):
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
            job.relayed[worker_id] = 0
            self._feed_seat(worker_id)
        elif kind == "event":
            held = self.assignments.get(worker_id)
            if held is not None and held[0] == run_id:
                job.emit(message[3])
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
            self._publish(job, outcome)
            job.record(outcome)
            if job.config.stop_on_failure and outcome.status is PropStatus.FAILS:
                self.cancel_job(job)
            self._advance(worker_id)
        elif kind == "cancelled":
            attempt = self._release(worker_id, run_id, message[3])
            if attempt is None:
                return
            job.cancel_attempt(attempt, worker_id)
            self._advance(worker_id)
        elif kind == "error":
            name, detail = message[3], message[4]
            attempt = self._release(worker_id, run_id, name)
            if attempt is None:
                # A run-setup failure: no attempt to pin it on.
                job.errors.append(f"{name}: {detail}")
                self._feed_seat(worker_id)
            else:
                job.fail_attempt(attempt, detail)
                self._advance(worker_id)
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

    def _publish(self, job: PooledJob, outcome: PropOutcome) -> None:
        """Append an exchanging job's new invariant to its clause log."""
        if (
            job.use_exchange
            and outcome.status is PropStatus.HOLDS
            and outcome.invariant
        ):
            added = job.log(outcome.invariant)
            job.exchanged += added
            self._exchange["clauses"] += added
            self._exchange["publishes"] += 1

    # ------------------------------------------------------------------
    # Seat feeding (weighted fair share across jobs, LPT within one)
    # ------------------------------------------------------------------
    def _feed_seat(self, worker_id: int) -> None:
        """Give a seat an attempt to run, and one of that job to queue.

        The queued one only while the job's backlog holds more than
        ``2 × workers`` attempts (see the module notes).
        """
        if not self.pool.worker_alive(worker_id):
            self.idle.discard(worker_id)
            return
        if worker_id not in self.assignments:
            job = self._pick_job(worker_id)
            if job is None:
                self.idle.add(worker_id)
                return
            self.idle.discard(worker_id)
            self.assignments[worker_id] = self._send(worker_id, job)
        if worker_id not in self.queued:
            job = self.jobs[self.assignments[worker_id][0]]
            if len(job.backlog) > 2 * self.pool.workers:
                self.queued[worker_id] = self._send(worker_id, job)

    def _send(self, worker_id: int, job: PooledJob) -> _Held:
        """Put ``job``'s next attempt on the seat's queue."""
        attempt = job.backlog.pop(0)
        if job.use_exchange:
            self._exchange["fetches"] += 1
        seq = self.pool.assign(
            worker_id, attempt, run_id=job.run_id, clauses=job.unsent(worker_id)
        )
        return _Held(job.run_id, attempt, seq)

    def _advance(self, worker_id: int) -> None:
        """The seat's running attempt ended: its queued one runs now.

        The seat may already be proving it.  If its job was cancelled
        meanwhile, it is stopped here, by its own seq: the job wants no
        further work.  A user's cancel marked it already; the watchdog
        and ``stop_on_failure`` could not while the attempt ahead of it,
        whose verdict counts, was running.
        """
        queued = self.queued.pop(worker_id, None)
        if queued is not None:
            self.assignments[worker_id] = queued
            if self.jobs[queued[0]].cancelled:
                self.pool.stop_seat(worker_id, queued.seq)
        self._feed_seat(worker_id)

    def _pick_job(self, worker_id: int) -> PooledJob | None:
        """Weighted fair share: fewest held seats per unit of priority.

        Only jobs whose setup this seat has acked are eligible (the
        FIFO control queue guarantees a worker never sees a job before
        its run's design), a job already running on its ``max_seats``
        quota is skipped outright, and ties go to the oldest run so
        admission order breaks symmetry deterministically.
        """
        busy: dict[int, int] = {}
        for run_id, _ in self.assignments.values():
            busy[run_id] = busy.get(run_id, 0) + 1
        best = None
        best_key = None
        for job in self.jobs.values():
            if not job.backlog:
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
    def cancel_job(self, job: PooledJob, *, stop: bool = False) -> None:
        """Cancel one job: drain its backlog, let assigned seats report.

        Sibling jobs are untouched: a seat holds attempts of one job
        only, and its stop mark reaches no later attempt.  Attempts
        already on a seat still report: with ``stop`` (a user's cancel)
        their seats are stopped at once (:meth:`_stop_seats`), so the
        running attempt reports UNKNOWN at its next budget check and the
        queued one is declined; without it (the watchdog,
        ``stop_on_failure``) running ones run on and their verdicts
        count — their per-property budget is clamped by this job's
        total — and a queued one is stopped once it runs
        (:meth:`_advance`).
        """
        if job.finished:
            return
        if stop:
            self._stop_seats(job)
        if job.cancelled:
            return
        job.cancelled = True
        self._drain_backlog(job)
        self._maybe_finish(job)

    def _stop_seats(self, job: PooledJob) -> None:
        """Mark each seat holding ``job``'s attempts at its newest one.

        The queued attempt's seq when the seat has one: that stops the
        running attempt and declines the queued one.
        """
        for worker_id, held in self.assignments.items():
            if held[0] == job.run_id:
                newest = self.queued.get(worker_id, held)
                self.pool.stop_seat(worker_id, newest.seq)

    def _drain_backlog(self, job: PooledJob, checkpoint: bool = True) -> None:
        backlog, job.backlog = job.backlog, []
        for attempt in backlog:
            job.cancel_attempt(attempt, None, checkpoint)

    def _maybe_finish(self, job: PooledJob) -> None:
        """Once every property is decided: close the run, deliver the report.

        A decided property has no attempt left on a seat, so nothing of
        the job can still report.
        """
        if job.finished or job.pending:
            return
        job.finished = True
        del self.jobs[job.run_id]
        self.pool.close_run(job.run_id)
        job.total_time = time.monotonic() - job.start
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
            for job in self.jobs.values():
                job.ready.discard(worker_id)
            queued = self.queued.pop(worker_id, None)
            if queued is not None:
                self._unqueue(queued[0], queued[1])
            held = self.assignments.pop(worker_id, None)
            if held is None:
                continue
            run_id, attempt = held
            job = self.jobs[run_id]
            job.crashes += 1
            self._retry_or_give_up(job, attempt, worker_id)
        if failed:
            for idle_worker in sorted(self.idle):
                self._feed_seat(idle_worker)
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
        waited its turn once), which :meth:`_reap_crashed` then offers
        to the parked live seats; with no live seat it stays queued —
        the next revived seat's ``ready`` ack drains the seatless
        backlog.  On a pool shut down under the scheduler it degrades
        to UNKNOWN here, never claiming a re-dispatch that could not
        execute.
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
            return
        job.lose_attempt(attempt)
        self._maybe_finish(job)

    def _unqueue(self, run_id: int, attempt: PropertyJob) -> None:
        """A queued attempt its seat will never run: back to the backlog front.

        It never started, so it is no crash and no re-dispatch; a job
        cancelled meanwhile has no backlog left to rejoin, so there it
        is cancelled like the rest of that backlog was.
        """
        job = self.jobs[run_id]
        if job.cancelled:
            job.cancel_attempt(attempt, None)
            self._maybe_finish(job)
        else:
            job.backlog.insert(0, attempt)

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
            for job in self.jobs.values():
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
        busy = sum(1 for seat in seats if seat.alive and seat.busy)
        return PoolStats(
            workers=pool.workers,
            alive=alive,
            busy=busy,
            idle=alive - busy,
            open_runs=len(pool.open_runs),
            seats=tuple(seats),
            counters=dict(pool.stats),
        )

    def exchange_traffic(self) -> dict:
        """Clause-exchange totals, plus what each live job has logged."""
        live = [
            {"job": job.job_id or f"run-{job.run_id}", "clauses": job.exchanged}
            for job in self.jobs.values()
            if job.use_exchange
        ]
        return {**self._exchange, "live": live}

    def _degrade_all(self) -> None:
        """No seat left alive: every open job's remainder goes UNKNOWN.

        That includes attempts a seat took with it without crashing (a
        pool shut down under the scheduler), running or queued: nobody
        will report them.
        """
        for run_id, attempt in [*self.queued.values(), *self.assignments.values()]:
            self.jobs[run_id].backlog.insert(0, attempt)
        self.queued.clear()
        self.assignments.clear()
        for job in list(self.jobs.values()):
            job.cancelled = True
            self._drain_backlog(job, checkpoint=False)
            self._maybe_finish(job)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the message lease.

        A run still open here belongs to a job abandoned on an
        exception path — stop its seats and close it, so no attempt
        and no open-run state outlives the scheduler.
        """
        if not self.pool.closed:
            for job in self.jobs.values():
                self._stop_seats(job)
                self.pool.close_run(job.run_id)
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


def slate_of(config: VerificationConfig) -> tuple[str, ...] | None:
    """The engines raced per property: the config's strategy being
    ``portfolio`` is what makes a pooled job a race; ``None`` is the
    local proof."""
    if config.strategy == "portfolio":
        return parse_engine_slate(config.portfolio_engines)
    return None


def empty_report(config: VerificationConfig) -> MultiPropReport:
    """A pooled job with no property to prove: no pool, no run, no seat."""
    slate = slate_of(config)
    if slate is None:
        method = "parallel-ja"
        stats = {"mode": "process", "workers": 0, "exchange": 0}
    else:
        method = "portfolio"
        stats = race_stats(0, slate, config.seed, [])
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
