"""Per-property engine racing on the seat scheduler (portfolio mode).

The portfolio strategy races an *engine slate* — by default the random
walk falsifier, BMC, k-induction and the full IC3/JA ladder — on every
property: one :class:`~repro.parallel.engine.PooledJob` per
(property, engine) pair, admitted as siblings under one
:class:`~repro.parallel.engine.SeatScheduler`.  The first *definitive*
verdict (anything but UNKNOWN; the falsifier and BMC never return
HOLDS, so nothing unsound can win) decides the property; the losing
attempts are cancelled through the existing per-run cancellation path
(:meth:`SeatScheduler.cancel_job` -> ``WorkerPool.cancel_run``), and a
loser whose verdict still arrives after the decision is rejected by an
attempt *epoch* check — the race outcome can never be overwritten.

Arbitration is event-driven, not loop-driven: every attempt job's
``on_finish`` hook enqueues a tagged message on the controller's
``_attempt_queue`` and pumps it.  The pump is reentrancy-guarded —
cancelling a loser inside a decision synchronously finishes that
loser, whose hook enqueues its own message; the outer pump drains it.
That is what lets the controller run unchanged under both drivers: the
standalone :func:`portfolio_verify` loop and the
:class:`~repro.service.VerificationService` dispatcher, which only
ever calls ``scheduler.step()``.

The report finalizes as soon as every property is decided — losers
still occupying seats drain in the background (their per-property
budgets are clamped by the job's total), so portfolio wall-clock
tracks the *fastest* engine per property, not the slowest.
``report.stats["portfolio"]`` records, per property, the winning
engine, the race wall-clock and each loser's cancel latency (``None``
while the cancel is still in flight at report time).
"""

from __future__ import annotations

import queue as queue_mod
import time
from dataclasses import dataclass, field, replace
from collections.abc import Sequence

from ..engines.randomwalk import derive_seed
from ..engines.result import PropStatus
from ..multiprop.report import MultiPropReport, PropOutcome
from ..progress import (
    AttemptCancelled,
    AttemptStarted,
    BudgetCheckpoint,
    Emit,
    PoolAttached,
    PortfolioDecided,
    ProgressEvent,
    PropertyCancelled,
    PropertySolved,
    PropertyStarted,
    ShardOpened,
    WorkerStarted,
    emit_or_null,
)
from ..ts.projection import assumption_names
from ..ts.system import TransitionSystem
from .engine import ParallelOptions, PooledJob, SeatScheduler
from .pool import WorkerPool

__all__ = [
    "ENGINE_NAMES",
    "PortfolioController",
    "admit_portfolio",
    "parse_engine_slate",
    "portfolio_verify",
]

#: Engines the portfolio can race, in default (cheap-first) race order.
#: Cheap-first admission matters on a narrow pool: with fewer seats
#: than slate entries, the falsifier and BMC get seats first and decide
#: shallow failures before IC3 ever leaves the queue.
ENGINE_NAMES: tuple[str, ...] = ("rw", "bmc", "kind", "ic3")


def parse_engine_slate(spec: str | Sequence[str] | None) -> tuple[str, ...]:
    """Validate an engine-slate spec (comma string or sequence).

    ``None`` or an empty string means the full default slate.  Raises
    ``ValueError`` on unknown names, duplicates, or an empty explicit
    slate — the same message the config/CLI layers surface verbatim.
    """
    if spec is None:
        return ENGINE_NAMES
    if isinstance(spec, str):
        names = [part.strip() for part in spec.split(",") if part.strip()]
        if not names and not spec.strip():
            return ENGINE_NAMES
    else:
        names = list(spec)
    if not names:
        raise ValueError("portfolio engine slate must name at least one engine")
    unknown = sorted(set(names) - set(ENGINE_NAMES))
    if unknown:
        raise ValueError(
            f"unknown portfolio engine(s) {unknown}; "
            f"known: {list(ENGINE_NAMES)}"
        )
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate portfolio engine(s) in {names}")
    return tuple(names)


@dataclass
class _PropertyRace:
    """Controller-side state of one property's engine race."""

    name: str
    slate: tuple[str, ...]
    started_at: float
    #: Bumped exactly once, at decision time; an attempt whose stamped
    #: epoch no longer matches delivers a *stale* verdict.
    epoch: int = 0
    stamped: dict[str, int] = field(default_factory=dict)
    attempts: dict[str, PooledJob] = field(default_factory=dict)
    settled: set = field(default_factory=set)
    outcomes: dict[str, PropOutcome] = field(default_factory=dict)
    cancel_latencies: dict[str, float | None] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    decided: bool = False
    decided_at: float = 0.0
    winner: str | None = None
    wall_s: float = 0.0
    outcome: PropOutcome | None = None


class PortfolioController:
    """First-verdict-wins arbitration over sibling engine attempts.

    Duck-typed like a :class:`PooledJob` where the service touches it
    (``finished``, ``error``, ``cancel_all``/``build_report``), but it
    owns no run itself — every run belongs to one attempt job, so all
    pool bookkeeping stays on the existing per-run paths.
    """

    def __init__(
        self,
        scheduler: SeatScheduler,
        ts: TransitionSystem,
        options: ParallelOptions,
        design_name: str,
        emit: Emit | None,
        order: list[str],
        *,
        priority: float = 1.0,
        pool_label: str = "persistent",
        start: float | None = None,
        job_id: str | None = None,
        on_finish=None,
    ) -> None:
        self.scheduler = scheduler
        self.ts = ts
        self.options = options
        self.design_name = design_name
        self.emit = emit_or_null(emit)
        self.order = list(order)
        self.engines = parse_engine_slate(options.portfolio_engines)
        self.seed = options.seed
        self.job_id = job_id
        self.on_finish = on_finish
        self.run_id = None  # duck-typing: not a run-owning job
        self.start = time.monotonic() if start is None else start
        self.error: BaseException | None = None
        self.cancel_requested = False
        self._finished = False
        self._groups: dict[str, _PropertyRace] = {}
        self._attempt_queue: queue_mod.SimpleQueue = queue_mod.SimpleQueue()
        self._pumping = False
        # Each attempt is its own scheduler job; split the job's weight
        # over the slate so one racing property collectively competes
        # like one parallel-ja property would.
        attempt_priority = priority / len(self.engines)
        first = True
        for name in self.order:
            group = _PropertyRace(
                name=name, slate=self.engines, started_at=self.start
            )
            self._groups[name] = group
            self.emit(
                PropertyStarted(
                    name=name, assumed=tuple(assumption_names(ts, name))
                )
            )
            for engine in self.engines:
                attempt_options = replace(
                    options,
                    order=[name],
                    exchange=False,  # attempts are single-property runs
                    portfolio_engines=None,
                )
                attempt_job_id = (
                    f"{job_id}:{name}:{engine}"
                    if job_id is not None
                    else f"{name}:{engine}"
                )
                sub_seed = (
                    derive_seed(self.seed, design_name, name)
                    if engine == "rw"
                    else None
                )
                job = scheduler.admit(
                    ts,
                    attempt_options,
                    design_name,
                    self._attempt_emit(name, engine, passthrough_setup=first),
                    [name],
                    priority=attempt_priority,
                    pool_label=pool_label,
                    start=self.start,
                    job_id=attempt_job_id,
                    on_finish=self._attempt_hook(name, engine),
                    engine=engine,
                    seed=sub_seed,
                )
                first = False
                group.attempts[engine] = job
                group.stamped[engine] = group.epoch
                self.emit(AttemptStarted(name=name, engine=engine))

    # ------------------------------------------------------------------
    # Attempt-side callbacks (run inside scheduler dispatch)
    # ------------------------------------------------------------------
    def _attempt_emit(self, name: str, engine: str, passthrough_setup: bool):
        """Per-attempt event filter: one canonical stream per property.

        Attempt-local lifecycle events are dropped (the controller
        emits the canonical ``PropertyStarted``/``PropertySolved`` and
        the attempt-level ``AttemptStarted``/``AttemptCancelled``);
        engine progress (frames, checkpoints, clause traffic) passes
        through.  Pool/worker setup events pass through only for the
        first attempt, so the pool attaches once, not once per attempt.
        """

        def attempt_emit(event: ProgressEvent) -> None:
            if isinstance(event, (PropertyStarted, PropertySolved, PropertyCancelled)):
                return
            if isinstance(event, BudgetCheckpoint) and event.scope == "total":
                return
            if isinstance(event, (WorkerStarted, PoolAttached, ShardOpened)):
                if passthrough_setup:
                    self.emit(event)
                return
            if self._groups[name].decided:
                return  # straggling loser progress: the race is over
            self.emit(event)

        return attempt_emit

    def _attempt_hook(self, name: str, engine: str):
        """The attempt job's ``on_finish``: enqueue its terminal tag, pump."""

        def attempt_finished(job: PooledJob) -> None:
            if job.error is not None:
                self._attempt_queue.put(("error", name, engine, job))
            elif job.cancelled:
                self._attempt_queue.put(("cancelled", name, engine, job))
            else:
                self._attempt_queue.put(("result", name, engine, job))
            self._pump()

        return attempt_finished

    def _pump(self) -> None:
        """Drain the attempt queue; reentrancy-safe.

        A decision cancels losers *inside* the pump; a queued loser
        finishes synchronously and its hook enqueues while we are still
        draining — the nested call just returns and the outer loop
        picks the message up.
        """
        if self._pumping:
            return
        self._pumping = True
        try:
            while True:
                try:
                    message = self._attempt_queue.get_nowait()
                except queue_mod.Empty:
                    break
                self._dispatch_attempt(message)
        finally:
            self._pumping = False

    # ------------------------------------------------------------------
    # Arbitration
    # ------------------------------------------------------------------
    def _dispatch_attempt(self, message) -> None:
        kind = message[0]
        name, engine, job = message[1], message[2], message[3]
        group = self._groups[name]
        group.settled.add(engine)
        self.scheduler.forget(job)
        if kind == "result":
            outcome = job.outcomes.get(name)
            if group.epoch != group.stamped[engine]:
                # Stale loser: the race was decided while this verdict
                # was in flight.  Reject it — record only the cancel
                # acknowledgement latency.
                self._ack_loser(group, engine)
            elif outcome is not None and outcome.status is not PropStatus.UNKNOWN:
                group.outcomes[engine] = outcome
                self._decide(group, engine, outcome)
            else:
                if outcome is not None:
                    group.outcomes[engine] = outcome
                self._maybe_exhausted(group)
        elif kind == "cancelled":
            if group.decided:
                self._ack_loser(group, engine)
            else:
                # Cancelled without a decision: watchdog deadline or an
                # explicit job cancel.  No latency — nothing was raced.
                self.emit(AttemptCancelled(name=name, engine=engine))
                self._maybe_exhausted(group)
        elif kind == "error":
            group.errors.append(f"{engine}: {job.error}")
            if group.decided:
                self._ack_loser(group, engine)
            else:
                self._maybe_exhausted(group)
        self._maybe_finish()

    def _ack_loser(self, group: _PropertyRace, engine: str) -> None:
        latency = time.monotonic() - group.decided_at
        group.cancel_latencies[engine] = latency
        self.emit(
            AttemptCancelled(name=group.name, engine=engine, latency_s=latency)
        )

    def _decide(
        self, group: _PropertyRace, engine: str, outcome: PropOutcome
    ) -> None:
        group.decided = True
        group.epoch += 1
        group.decided_at = time.monotonic()
        group.winner = engine
        group.wall_s = group.decided_at - group.started_at
        group.outcome = outcome
        losers = tuple(e for e in group.slate if e != engine)
        self.emit(
            PortfolioDecided(
                name=group.name,
                winner=engine,
                status=outcome.status,
                wall_s=group.wall_s,
                losers=losers,
            )
        )
        self.emit(
            PropertySolved(
                name=group.name,
                status=outcome.status,
                local=outcome.local,
                time_seconds=outcome.time_seconds,
                cex_depth=outcome.cex_depth,
                assumed=tuple(outcome.assumed),
            )
        )
        for loser in losers:
            job = group.attempts[loser]
            if loser not in group.settled:
                group.cancel_latencies.setdefault(loser, None)
            if not job.finished and not job.cancelled:
                self.scheduler.cancel_job(job)

    def _maybe_exhausted(self, group: _PropertyRace) -> None:
        """Every attempt settled without a definitive verdict: UNKNOWN."""
        if group.decided or group.settled != set(group.slate):
            return
        group.decided = True
        group.epoch += 1
        group.decided_at = time.monotonic()
        group.winner = None
        group.wall_s = group.decided_at - group.started_at
        frames = max(
            (o.frames for o in group.outcomes.values()), default=0
        )
        group.outcome = PropOutcome(
            name=group.name,
            status=PropStatus.UNKNOWN,
            local=True,
            frames=frames,
            time_seconds=group.wall_s,
            expected_to_fail=self.ts.prop_by_name[group.name].expected_to_fail,
        )
        self.emit(
            PortfolioDecided(
                name=group.name,
                winner=None,
                status=PropStatus.UNKNOWN,
                wall_s=group.wall_s,
                losers=group.slate,
            )
        )
        self.emit(
            PropertySolved(
                name=group.name, status=PropStatus.UNKNOWN, local=True
            )
        )

    def _maybe_finish(self) -> None:
        if self._finished:
            return
        if not all(group.decided for group in self._groups.values()):
            return
        self._finished = True
        failures = [
            f"{group.name}: {error}"
            for group in self._groups.values()
            if group.winner is None and not self.cancel_requested
            for error in group.errors
        ]
        if failures:
            # An attempt raised *and* nobody else decided its property:
            # surface it exactly like a parallel-ja worker failure.
            self.error = RuntimeError(
                "portfolio attempt failure(s): " + "; ".join(failures)
            )
        if self.on_finish is not None:
            self.on_finish(self)

    # ------------------------------------------------------------------
    # Job-like surface (service duck-typing)
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def cancelled(self) -> bool:
        return self.cancel_requested

    def cancel_all(self) -> None:
        """Cancel every live attempt (service job cancel, watchdogs aside).

        Undecided properties settle to UNKNOWN as their attempts
        acknowledge; the controller finishes when the last one does.
        """
        if self._finished:
            return
        self.cancel_requested = True
        for group in self._groups.values():
            for job in group.attempts.values():
                if not job.finished and not job.cancelled:
                    self.scheduler.cancel_job(job)
        self._pump()

    def build_report(self, pool: WorkerPool) -> MultiPropReport:
        """The race's :class:`MultiPropReport` (property order preserved)."""
        report = MultiPropReport(method="portfolio", design=self.design_name)
        races: dict[str, dict] = {}
        for name in self.order:
            group = self._groups[name]
            outcome = group.outcome
            if outcome is None:  # pragma: no cover - defensive
                outcome = PropOutcome(
                    name=name, status=PropStatus.UNKNOWN, local=True
                )
            report.outcomes[name] = outcome
            races[name] = {
                "winner": group.winner,
                "status": outcome.status.value,
                "wall_s": group.wall_s,
                "cancelled": dict(group.cancel_latencies),
                "errors": list(group.errors),
            }
        report.total_time = time.monotonic() - self.start
        report.stats = {
            "mode": "portfolio",
            "workers": pool.workers,
            "engines": list(self.engines),
            "seed": self.seed,
            "exchange": 0,
            "portfolio": races,
        }
        return report


def admit_portfolio(
    scheduler: SeatScheduler,
    ts: TransitionSystem,
    options: ParallelOptions,
    design_name: str,
    emit: Emit | None,
    order: list[str],
    *,
    priority: float = 1.0,
    pool_label: str = "persistent",
    start: float | None = None,
    job_id: str | None = None,
    on_finish=None,
) -> PortfolioController:
    """Admit one portfolio race onto a (possibly shared) seat scheduler."""
    return PortfolioController(
        scheduler,
        ts,
        options,
        design_name,
        emit,
        order,
        priority=priority,
        pool_label=pool_label,
        start=start,
        job_id=job_id,
        on_finish=on_finish,
    )


def portfolio_verify(
    ts: TransitionSystem,
    options: ParallelOptions | None = None,
    design_name: str = "design",
    emit: Emit | None = None,
) -> MultiPropReport:
    """Race the engine slate on every property; first verdict wins.

    Verdict parity with sequential JA-verification is structural: every
    engine in the slate decides under the same local (``T^P``)
    semantics, provers (IC3/k-induction) alone may return HOLDS, and
    falsifier counterexamples are replay-validated before they are
    reported — so whichever attempt wins, the verdict is one sequential
    ``ja`` would also reach.  The parity suite asserts it end to end.
    """
    opts = options or ParallelOptions()
    emit = emit_or_null(emit)
    order = list(opts.order) if opts.order else [p.name for p in ts.properties]
    unknown = set(order) - {p.name for p in ts.properties}
    if unknown:
        raise KeyError(f"unknown properties in order: {sorted(unknown)}")
    if not order:
        report = MultiPropReport(method="portfolio", design=design_name)
        report.stats = {
            "mode": "portfolio",
            "workers": 0,
            "engines": list(parse_engine_slate(opts.portfolio_engines)),
            "seed": opts.seed,
            "exchange": 0,
            "portfolio": {},
        }
        return report
    start = time.monotonic()
    slate = parse_engine_slate(opts.portfolio_engines)
    pool = opts.pool
    ephemeral = pool is None
    if ephemeral:
        pool = WorkerPool(
            workers=opts.resolve_workers(len(order) * len(slate)),
            start_method=opts.start_method,
        )
    scheduler = None
    controller = None
    try:
        scheduler = SeatScheduler(pool)
        controller = admit_portfolio(
            scheduler,
            ts,
            opts,
            design_name,
            emit,
            order,
            pool_label="ephemeral" if ephemeral else "persistent",
            start=start,
        )
        while not controller.finished:
            if not scheduler.live_jobs:  # pragma: no cover - defensive
                raise RuntimeError(
                    "portfolio race stalled: no live attempts but "
                    "undecided properties remain"
                )
            scheduler.step()
    finally:
        # The report is decided; attempts still draining are torn down
        # with their runs (losers by design never outlive the race).
        if scheduler is not None:
            scheduler.close()
        if ephemeral:
            pool.shutdown()
    if controller.error is not None:
        raise controller.error
    return controller.build_report(pool)
