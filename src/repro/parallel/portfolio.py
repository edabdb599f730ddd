"""Per-property engine racing as a scheduling policy (portfolio mode).

The portfolio strategy races an *engine slate* — by default the random
walk falsifier, BMC, k-induction and the full IC3/JA ladder — on every
property.  A race is not a job of its own: the whole portfolio job is
one :class:`~repro.parallel.engine.PooledJob` on one pool run, whose
backlog :meth:`SeatScheduler.admit` fills with one
:class:`~repro.parallel.worker.PropertyJob` attempt per (property,
engine) pair, and whose ``policy`` is the :class:`EngineRace` below —
so fair share, ``max_seats``, ``stop_on_failure``, the watchdog and
crash re-dispatch act on a portfolio job exactly as they do on a
``parallel-ja`` one.

The policy splits *decide* from *drain*.  The first **definitive**
verdict (anything but UNKNOWN; the falsifier and BMC never return
HOLDS, so nothing unsound can win) decides the property, and its
still-queued siblings are dropped from the backlog on the spot — no
message to any worker.  A sibling already on a seat cannot be
interrupted; it drains under its per-property budget, and whatever it
reports is rejected because the property is already decided — only the
latency of that acknowledgement is recorded.  The report is delivered
as soon as every property is decided, so portfolio wall-clock tracks
the *fastest* engine per property; the scheduler keeps the run open,
and the seat busy, until the last draining attempt has reported.

``report.stats["portfolio"]`` records, per property, the winning
engine, the race wall-clock and each loser's cancel latency (``None``
while the loser is still draining at report time).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..config import VerificationConfig
from ..engines.result import PropStatus
from ..multiprop.report import MultiPropReport, PropOutcome
from ..progress import (
    AttemptCancelled,
    AttemptStarted,
    Emit,
    PortfolioDecided,
    PropertyCancelled,
    PropertySolved,
    PropertyStarted,
)
from ..ts.projection import assumption_names
from ..ts.system import TransitionSystem
from .worker import PropertyJob

if TYPE_CHECKING:  # pragma: no cover - engine imports this module
    from .engine import PooledJob
    from .pool import WorkerPool

__all__ = [
    "ENGINE_NAMES",
    "EngineRace",
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
class _Race:
    """One property's engine race."""

    started_at: float
    open: set  # engines whose attempt is still queued or on a seat
    frames: int = 0  # deepest inconclusive attempt
    cancelled: dict[str, float | None] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    decided_at: float | None = None
    winner: str | None = None


class EngineRace:
    """The ``portfolio`` policy: first definitive verdict wins.

    Called by the :class:`~repro.parallel.engine.SeatScheduler` with
    each attempt's terminal message, like
    :class:`~repro.parallel.engine.LocalProofs`.  It emits one
    canonical stream per property — ``PropertyStarted``, one
    ``AttemptStarted`` per engine, ``PortfolioDecided`` +
    ``PropertySolved`` at the decision, one ``AttemptCancelled`` per
    loser — and passes engine progress through until the decision.
    """

    method = "portfolio"

    def __init__(self, job: PooledJob, slate: tuple[str, ...]) -> None:
        self.job = job
        self.slate = slate
        self.races: dict[str, _Race] = {}
        for name in job.order:
            self.races[name] = _Race(job.start, set(self.slate))
            job.emit(
                PropertyStarted(
                    name=name, assumed=tuple(assumption_names(job.ts, name))
                )
            )
            for engine in self.slate:
                job.emit(AttemptStarted(name=name, engine=engine))

    def forward(self, attempt: PropertyJob, event) -> None:
        # The attempt's own lifecycle events would double the canonical
        # pair, and a loser's progress after the decision is noise.
        if isinstance(event, (PropertyStarted, PropertySolved, PropertyCancelled)):
            return
        if self.races[attempt.name].decided_at is None:
            self.job.emit(event)

    # -- terminal messages ---------------------------------------------
    def result(
        self, attempt: PropertyJob, outcome: PropOutcome
    ) -> PropOutcome | None:
        """The property's verdict if this attempt decided it, else None."""
        race = self.races[attempt.name]
        if race.decided_at is None and outcome.status is not PropStatus.UNKNOWN:
            return self._decide(attempt.name, attempt.engine, outcome)
        race.frames = max(race.frames, outcome.frames)
        return self._inconclusive(attempt)

    def cancelled(
        self, attempt: PropertyJob, worker_id: int | None, checkpoint: bool = True
    ) -> None:
        if self.races[attempt.name].decided_at is None:
            # Watchdog deadline or job cancel: nothing was raced against.
            self.job.emit(AttemptCancelled(name=attempt.name, engine=attempt.engine))
        self._inconclusive(attempt)

    def error(self, attempt: PropertyJob, detail: str) -> None:
        self.races[attempt.name].errors.append(f"{attempt.engine}: {detail}")
        self._inconclusive(attempt)

    def lost(self, attempt: PropertyJob) -> None:
        self._inconclusive(attempt)

    # -- arbitration ---------------------------------------------------
    def _inconclusive(self, attempt: PropertyJob) -> PropOutcome | None:
        """An attempt ended without deciding: a late loser, or one less
        engine standing between the property and UNKNOWN."""
        name, race = attempt.name, self.races[attempt.name]
        race.open.discard(attempt.engine)
        if race.decided_at is not None:
            self._drop(name, attempt.engine)
            return None
        if race.open:
            return None
        # An attempt raised *and* nobody else decided the property:
        # surface it exactly like a parallel-ja worker failure.
        self.job.errors += [f"{name}: {error}" for error in race.errors]
        return self._decide(
            name,
            None,
            PropOutcome(
                name=name,
                status=PropStatus.UNKNOWN,
                local=True,
                frames=race.frames,
                time_seconds=time.monotonic() - race.started_at,
                expected_to_fail=self.job.ts.prop_by_name[name].expected_to_fail,
            ),
        )

    def _decide(self, name: str, winner: str | None, outcome: PropOutcome) -> PropOutcome:
        job, race = self.job, self.races[name]
        race.decided_at = time.monotonic()
        race.winner = winner
        race.open.discard(winner)
        job.emit(
            PortfolioDecided(
                name=name,
                winner=winner,
                status=outcome.status,
                wall_s=race.decided_at - race.started_at,
                losers=tuple(e for e in self.slate if e != winner),
            )
        )
        job.emit(outcome.solved_event())
        job.record(outcome, checkpoint=False)
        # Decide: queued siblings never run.  Drain: siblings on a seat
        # report when they report; until then their latency is unknown.
        queued = {a.engine for a in job.backlog if a.name == name}
        job.backlog = [a for a in job.backlog if a.name != name]
        for engine in self.slate:
            if engine in queued:
                race.open.discard(engine)
                self._drop(name, engine)
            elif engine in race.open:
                race.cancelled[engine] = None
        return outcome

    def _drop(self, name: str, engine: str) -> None:
        race = self.races[name]
        latency = time.monotonic() - race.decided_at
        race.cancelled[engine] = latency
        self.job.emit(AttemptCancelled(name=name, engine=engine, latency_s=latency))

    def stats(self, pool: WorkerPool) -> dict:
        return race_stats(
            pool.workers,
            self.slate,
            self.job.config.seed,
            {
                name: {
                    "winner": race.winner,
                    "status": self.job.outcomes[name].status.value,
                    "wall_s": race.decided_at - race.started_at,
                    "cancelled": dict(race.cancelled),
                    "errors": list(race.errors),
                }
                for name, race in self.races.items()
            },
        )


def race_stats(workers: int, slate: tuple[str, ...], seed: int | None, races: dict) -> dict:
    return {
        "mode": "portfolio",
        "workers": workers,
        "engines": list(slate),
        "seed": seed,
        "exchange": 0,
        "portfolio": races,
    }


def portfolio_verify(
    ts: TransitionSystem,
    config: VerificationConfig | None = None,
    emit: Emit | None = None,
) -> MultiPropReport:
    """Per-property engine racing: first definitive verdict wins.

    Races the configured slate (``portfolio_engines``, default
    ``rw,bmc,kind,ic3``) per property as one job on the seat scheduler;
    a decided property's queued losers are dropped, running ones drain,
    and the winning engine per property lands in
    ``report.stats["portfolio"]``.

    Verdict parity with sequential JA-verification is structural: every
    engine in the slate decides under the same local (``T^P``)
    semantics, provers (IC3/k-induction) alone may return HOLDS, and
    falsifier counterexamples are replay-validated before they are
    reported — so whichever attempt wins, the verdict is one sequential
    ``ja`` would also reach.  The parity suite asserts it end to end.
    """
    from ..service.core import run_one

    # The strategy name is what makes the pooled job a race.
    config = replace(config or VerificationConfig(), strategy="portfolio")
    return run_one(ts, config, emit)
