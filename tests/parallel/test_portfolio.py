"""Portfolio arbitration: parity, fault injection, the service path.

Four layers, mirroring how a portfolio job runs in production:

* **Parity** — real worker processes, Hypothesis design mixes, both SAT
  backends: whatever engine wins the race, the verdicts must equal what
  sequential JA-verification reports for the same design.
* **Arbitration fault injection** — ``test_backoff``'s stub pool makes the races fully deterministic: a hung
  loser cannot block the decision, queued losers are dropped by it,
  cancel latencies are recorded as the drained losers report, and a
  loser's verdict arriving after the decision is rejected.
* **One job on the scheduler** — the whole slate rides one pool run,
  so ``max_seats``, ``stop_on_failure``, crash re-dispatch and seat
  occupancy act on the job, not on each attempt.
* **Service** — real :class:`VerificationService` runs, where the job
  is stepped by the service dispatcher rather than the engine's own
  drive loop.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.randomwalk import derive_seed
from repro.engines.result import PropStatus
from repro.multiprop.ja import JAVerifier
from repro.multiprop.report import PropOutcome
from repro.gen.random_designs import random_design
from repro.parallel import (
    ENGINE_NAMES,
    SeatScheduler,
    parse_engine_slate,
    portfolio_verify,
)
from repro.progress import AttemptCancelled, AttemptStarted, PortfolioDecided
from repro.session import ConfigError, VerificationConfig
from repro.ts.system import TransitionSystem
from tests.parallel.test_backoff import _pump, _StubPool

BACKENDS = ("cdcl", "cdcl-compact")


class TestSlateParsing:
    def test_none_and_blank_mean_full_slate(self):
        assert parse_engine_slate(None) == ENGINE_NAMES
        assert parse_engine_slate("") == ENGINE_NAMES
        assert parse_engine_slate("  ") == ENGINE_NAMES

    def test_subset_preserves_race_order(self):
        assert parse_engine_slate("bmc, rw") == ("bmc", "rw")
        assert parse_engine_slate(["ic3"]) == ("ic3",)

    def test_rejects_unknown_duplicate_and_empty(self):
        with pytest.raises(ValueError, match="unknown portfolio engine"):
            parse_engine_slate("rw,magic")
        with pytest.raises(ValueError, match="duplicate"):
            parse_engine_slate("rw,rw")
        with pytest.raises(ValueError, match="at least one"):
            parse_engine_slate([])

    def test_config_validation_surfaces_slate_errors(self):
        with pytest.raises(ConfigError, match="unknown portfolio engine"):
            VerificationConfig(
                strategy="portfolio", portfolio_engines="rw,magic"
            ).validate()
        with pytest.raises(ConfigError, match="seed"):
            VerificationConfig(strategy="portfolio", seed=-1).validate()
        VerificationConfig(
            strategy="portfolio", portfolio_engines="rw,ic3", seed=11
        ).validate()


class TestParityWithSequentialJA:
    """Race verdicts == sequential JA verdicts, per property."""

    @staticmethod
    def _sequential(ts: TransitionSystem, backend: str) -> dict[str, PropStatus]:
        report = JAVerifier(ts, VerificationConfig(solver_backend=backend)).run()
        return {name: o.status for name, o in report.outcomes.items()}

    @given(design_seed=st.integers(min_value=0, max_value=400))
    @settings(max_examples=5, deadline=None)
    def test_random_design_mix(self, design_seed: int):
        ts = TransitionSystem(random_design(design_seed))
        for backend in BACKENDS:
            expected = self._sequential(ts, backend)
            report = portfolio_verify(
                ts,
                VerificationConfig(
                    workers=2, solver_backend=backend, seed=design_seed
                ),
            )
            got = {name: o.status for name, o in report.outcomes.items()}
            assert got == expected, (design_seed, backend)
            races = report.stats["portfolio"]
            for name, race in races.items():
                assert race["winner"] in ENGINE_NAMES
                assert race["status"] == got[name].value
                assert report.outcomes[name].engine == race["winner"]

    def test_counter_both_backends(self, counter4):
        for backend in BACKENDS:
            expected = self._sequential(counter4, backend)
            report = portfolio_verify(
                counter4,
                VerificationConfig(workers=2, solver_backend=backend, seed=0),
            )
            assert {n: o.status for n, o in report.outcomes.items()} == expected
            assert report.stats["mode"] == "portfolio"
            assert report.stats["seed"] == 0


def _race(ts, order, engines, *, workers=2, events=None, **options):
    """One portfolio job admitted on a stub pool, its seats fed."""
    pool = _StubPool(workers=workers)
    scheduler = SeatScheduler(pool)
    job = scheduler.admit(
        ts,
        VerificationConfig(
            strategy="portfolio",
            design_name="stub-design",
            workers=workers,
            portfolio_engines=",".join(engines),
            order=list(order),
            **options,
        ),
        events.append if events is not None else None,
        list(order),
        job_id="race",
    )
    _pump(scheduler)
    return pool, scheduler, job


def _seat_of(scheduler, name: str, engine: str | None) -> int:
    for worker_id, (_, attempt) in scheduler.assignments.items():
        if (attempt.name, attempt.engine) == (name, engine):
            return worker_id
    raise AssertionError(f"{name}:{engine} holds no seat")


def _answer(scheduler, job, name, engine, status: PropStatus, **fields) -> None:
    """Serve one attempt's assignment with a scripted verdict."""
    scheduler._dispatch_message(
        (
            "result",
            job.run_id,
            _seat_of(scheduler, name, engine),
            PropOutcome(
                name=name, status=status, local=True, engine=engine, **fields
            ),
        )
    )


def _seated(scheduler) -> list[tuple[str, str | None]]:
    return [
        (attempt.name, attempt.engine)
        for _, (_, attempt) in sorted(scheduler.assignments.items())
    ]


class TestArbitrationFaultInjection:
    """Deterministic races on the stub pool — no processes, no sleeps.

    Attempts are addressed as (property, engine) on the job's one run.
    """

    def test_first_verdict_wins_despite_hung_loser(self, toggler):
        # bmc's attempt hangs (its seat never answers): the rw verdict
        # must decide the property and deliver the report anyway.
        events: list = []
        pool, scheduler, job = _race(
            toggler, ["never_q"], ("rw", "bmc"), events=events
        )
        assert _seated(scheduler) == [("never_q", "rw"), ("never_q", "bmc")]
        _answer(scheduler, job, "never_q", "rw", PropStatus.FAILS, cex_depth=2)
        assert job.finished
        assert job.outcomes["never_q"].status is PropStatus.FAILS
        # No cancel message goes out; the loser drains on its seat, the
        # run stays open for its report ...
        assert pool.cancelled_runs == []
        assert pool.open_runs == [job.run_id]
        # ... and until that arrives, its latency reads "in flight".
        report = job.build_report(pool)
        race = report.stats["portfolio"]["never_q"]
        assert race["winner"] == "rw" and race["cancelled"] == {"bmc": None}
        # The loser reports after the report: its verdict is dropped,
        # the latency becomes measurable, the run closes.
        _answer(scheduler, job, "never_q", "bmc", PropStatus.UNKNOWN)
        assert pool.open_runs == [] and not scheduler.jobs
        late = job.build_report(pool)
        latency = late.stats["portfolio"]["never_q"]["cancelled"]["bmc"]
        assert isinstance(latency, float) and latency >= 0.0
        cancelled = [e for e in events if isinstance(e, AttemptCancelled)]
        assert [e.engine for e in cancelled] == ["bmc"]
        assert cancelled[0].latency_s == latency

    def test_late_loser_verdict_is_rejected(self, toggler):
        # The loser's verdict — even a *conflicting definitive* one —
        # arrives after the decision and must not overwrite it.
        events: list = []
        pool, scheduler, job = _race(
            toggler, ["never_q"], ("rw", "bmc"), events=events
        )
        _answer(scheduler, job, "never_q", "rw", PropStatus.FAILS, cex_depth=2)
        _answer(scheduler, job, "never_q", "bmc", PropStatus.HOLDS)
        assert job.finished
        assert job.outcomes["never_q"].status is PropStatus.FAILS
        decided = [e for e in events if isinstance(e, PortfolioDecided)]
        assert len(decided) == 1 and decided[0].winner == "rw"
        stale = [e for e in events if isinstance(e, AttemptCancelled)]
        assert [e.engine for e in stale] == ["bmc"]
        assert stale[0].latency_s is not None
        assert pool.cancelled_runs == []
        race = job.build_report(pool).stats["portfolio"]["never_q"]
        assert race["winner"] == "rw"
        assert isinstance(race["cancelled"]["bmc"], float)

    def test_queued_losers_are_dropped_by_the_decision(self, toggler):
        # One seat: bmc is still queued when rw decides, so it never
        # runs and its cancellation is part of the decision itself.
        events: list = []
        pool, scheduler, job = _race(
            toggler, ["never_q"], ("rw", "bmc"), workers=1, events=events
        )
        _answer(scheduler, job, "never_q", "rw", PropStatus.FAILS, cex_depth=2)
        assert job.finished and job.backlog == []
        assert pool.open_runs == [] and not scheduler.assignments
        assert [a.engine for _, _, a in pool.assigned] == ["rw"]
        kinds = [type(e).__name__ for e in events]
        assert kinds[-3:] == [
            "PortfolioDecided", "PropertySolved", "AttemptCancelled"
        ]
        assert events[-1].engine == "bmc" and events[-1].latency_s is not None

    def test_all_attempts_exhausted_settles_unknown(self, toggler):
        events: list = []
        pool, scheduler, job = _race(
            toggler, ["never_q"], ("rw", "bmc"), events=events
        )
        _answer(scheduler, job, "never_q", "rw", PropStatus.UNKNOWN)
        assert not job.finished  # bmc still racing
        _answer(scheduler, job, "never_q", "bmc", PropStatus.UNKNOWN, frames=7)
        assert job.finished and job.error is None
        decided = [e for e in events if isinstance(e, PortfolioDecided)]
        assert decided[-1].winner is None
        assert decided[-1].losers == ("rw", "bmc")
        report = job.build_report(pool)
        assert report.outcomes["never_q"].status is PropStatus.UNKNOWN
        assert report.outcomes["never_q"].frames == 7
        assert report.stats["portfolio"]["never_q"]["winner"] is None

    def test_attempt_error_without_winner_fails_the_race(self, toggler):
        pool, scheduler, job = _race(toggler, ["never_q"], ("rw", "bmc"))
        scheduler._dispatch_message(
            (
                "error",
                job.run_id,
                _seat_of(scheduler, "never_q", "rw"),
                "never_q",
                "boom",
            )
        )
        _answer(scheduler, job, "never_q", "bmc", PropStatus.UNKNOWN)
        assert job.finished
        assert isinstance(job.error, RuntimeError)
        assert "never_q: rw: boom" in str(job.error)

    def test_attempt_error_masked_by_a_winner(self, toggler):
        # An engine blowing up is irrelevant once a sibling decided.
        pool, scheduler, job = _race(toggler, ["never_q"], ("rw", "bmc"))
        scheduler._dispatch_message(
            (
                "error",
                job.run_id,
                _seat_of(scheduler, "never_q", "rw"),
                "never_q",
                "boom",
            )
        )
        _answer(scheduler, job, "never_q", "bmc", PropStatus.FAILS, cex_depth=1)
        assert job.finished and job.error is None
        race = job.build_report(pool).stats["portfolio"]["never_q"]
        assert race["winner"] == "bmc"
        (entry,) = race["errors"]
        assert entry.startswith("rw:") and "boom" in entry

    def test_cancel_settles_every_race(self, toggler):
        events: list = []
        pool, scheduler, job = _race(
            toggler, ["never_r", "never_q"], ("rw", "bmc"), events=events
        )
        seated = _seated(scheduler)
        assert seated == [("never_r", "rw"), ("never_r", "bmc")]
        scheduler.cancel_job(job)
        # never_q's attempts were still queued: settled on the spot.
        assert "never_q" not in job.pending and not job.finished
        for name, engine in seated:  # the workers decline theirs
            scheduler._dispatch_message(
                ("cancelled", job.run_id, _seat_of(scheduler, name, engine), name)
            )
        assert job.finished and job.cancelled and job.error is None
        assert pool.cancelled_runs == [job.run_id]
        report = job.build_report(pool)
        for name in ("never_r", "never_q"):
            assert report.outcomes[name].status is PropStatus.UNKNOWN
        assert len([e for e in events if isinstance(e, AttemptStarted)]) == 4
        acks = [e for e in events if isinstance(e, AttemptCancelled)]
        assert len(acks) == 4 and all(e.latency_s is None for e in acks)

    def test_per_property_races_are_independent(self, toggler):
        # Deciding one property must not disturb the other's race.
        pool, scheduler, job = _race(
            toggler, ["never_r", "never_q"], ("rw", "bmc"), workers=4
        )
        _answer(scheduler, job, "never_q", "rw", PropStatus.FAILS, cex_depth=2)
        assert job.pending == {"never_r"} and not job.finished
        _answer(scheduler, job, "never_r", "bmc", PropStatus.HOLDS)
        assert job.finished
        report = job.build_report(pool)
        assert report.outcomes["never_q"].status is PropStatus.FAILS
        assert report.outcomes["never_r"].status is PropStatus.HOLDS
        races = report.stats["portfolio"]
        assert races["never_q"]["winner"] == "rw"
        assert races["never_r"]["winner"] == "bmc"


class TestOneJobOnTheScheduler:
    """A portfolio job is one ``PooledJob``: one run, job-level knobs."""

    def test_whole_slate_rides_one_run(self, toggler):
        pool, scheduler, job = _race(
            toggler, ["never_r", "never_q"], ENGINE_NAMES, workers=2
        )
        assert pool.stats["runs"] == 1
        assert len(scheduler.jobs) == 1
        queued = [(a.name, a.engine) for a in job.backlog]
        assert _seated(scheduler) + queued == [
            (name, engine)
            for name in ("never_r", "never_q")
            for engine in ENGINE_NAMES
        ]
        assert {run_id for _, run_id, _ in pool.assigned} == {job.run_id}

    def test_max_seats_caps_the_whole_job(self, toggler):
        # The quota is the job's, not each attempt's: a max_seats=1
        # race on two seats holds one of them.
        pool, scheduler, job = _race(
            toggler, ["never_r", "never_q"], ("rw", "bmc"), max_seats=1
        )
        assert _seated(scheduler) == [("never_r", "rw")]
        _answer(scheduler, job, "never_r", "rw", PropStatus.UNKNOWN)
        assert _seated(scheduler) == [("never_r", "bmc")]

    def test_stop_on_failure_cancels_the_remaining_races(self, toggler):
        events: list = []
        pool, scheduler, job = _race(
            toggler,
            ["never_q", "never_r"],
            ("rw", "bmc"),
            events=events,
            stop_on_failure=True,
        )
        _answer(scheduler, job, "never_q", "rw", PropStatus.FAILS, cex_depth=2)
        # The failure cancels the job: never_r's queued attempts are
        # drained unrun, never_q's loser is left to report.
        assert pool.cancelled_runs == [job.run_id]
        assert job.finished and job.cancelled and job.backlog == []
        assert [a.name for _, _, a in pool.assigned] == ["never_q", "never_q"]
        report = job.build_report(pool)
        assert report.outcomes["never_q"].status is PropStatus.FAILS
        assert report.outcomes["never_r"].status is PropStatus.UNKNOWN
        assert report.stats["portfolio"]["never_r"]["winner"] is None
        assert _seated(scheduler) == [("never_q", "bmc")]

    def test_draining_loser_keeps_its_seat_busy_until_it_reports(self, toggler):
        # The settle() contract: after the report is delivered the
        # loser's seat still counts as busy, and only its report frees
        # it for the next job.
        delivered: list = []
        pool = _StubPool(workers=2)
        scheduler = SeatScheduler(pool)
        options = VerificationConfig(
            design_name="stub-design", workers=2, order=["never_q"]
        )
        race = scheduler.admit(
            toggler,
            replace(options, strategy="portfolio", portfolio_engines="rw,bmc"),
            None,
            ["never_q"],
            job_id="race",
            on_finish=delivered.append,
        )
        _pump(scheduler)
        _answer(scheduler, race, "never_q", "rw", PropStatus.FAILS, cex_depth=2)
        assert delivered == [race]
        stats = scheduler.stats()
        assert stats.busy == 1 and stats.open_runs == 1
        (busy,) = [seat for seat in stats.seats if seat.busy]
        assert (busy.job, busy.prop) == ("race", "never_q")
        # The next job gets the free seat now, the loser's seat later.
        follow = scheduler.admit(
            toggler,
            replace(options, order=["never_r", "never_q"]),
            None,
            ["never_r", "never_q"],
            job_id="follow",
        )
        _pump(scheduler)
        assert _seated(scheduler).count(("never_r", None)) == 1
        assert [a.name for a in follow.backlog] == ["never_q"]
        _answer(scheduler, race, "never_q", "bmc", PropStatus.UNKNOWN)
        assert pool.open_runs == [follow.run_id]
        assert sorted(_seated(scheduler)) == [("never_q", None), ("never_r", None)]
        assert delivered == [race]  # delivered once, not again on close

    def test_crashed_attempt_is_redispatched_once_as_it_was(self, toggler):
        events: list = []
        pool, scheduler, job = _race(
            toggler, ["never_q"], ("rw", "bmc"), events=events, seed=9
        )
        seat = _seat_of(scheduler, "never_q", "rw")
        (lost,) = [a for w, _, a in pool.assigned if w == seat]
        assert lost.seed == derive_seed(9, "stub-design", "never_q")
        pool.kill(seat)
        scheduler._reap_crashed()
        # The held object goes back to the backlog front, untouched.
        assert job.redispatched == 1 and job.backlog == [lost]
        assert [type(e).__name__ for e in events][-1] == "PropertyRequeued"
        # The surviving seat picks it up after its own attempt ...
        _answer(scheduler, job, "never_q", "bmc", PropStatus.UNKNOWN)
        assert pool.assigned[-1][2] is lost
        # ... and a second crash on it is final: the race is exhausted.
        pool.kill(_seat_of(scheduler, "never_q", "rw"))
        scheduler._reap_crashed()
        assert job.redispatched == 1 and job.crashes == 2
        assert job.finished
        assert job.outcomes["never_q"].status is PropStatus.UNKNOWN

    def test_draining_loser_dying_with_its_seat_closes_the_run(self, toggler):
        pool, scheduler, job = _race(toggler, ["never_q"], ("rw", "bmc"))
        _answer(scheduler, job, "never_q", "rw", PropStatus.FAILS, cex_depth=2)
        outcomes = dict(job.outcomes)
        pool.kill(_seat_of(scheduler, "never_q", "bmc"))
        scheduler._reap_crashed()
        assert pool.open_runs == [] and not scheduler.assignments
        assert job.outcomes == outcomes and job.redispatched == 0


class TestServicePortfolio:
    """A portfolio job under the service dispatcher (real processes)."""

    def test_submit_portfolio_job(self, toggler):
        from repro.service import VerificationService

        with VerificationService(workers=2) as service:
            service.submit(toggler, strategy="parallel-ja").result(timeout=120)
            runs = service.stats().pool.counters["runs"]
            report = service.submit(
                toggler, strategy="portfolio", seed=5, exchange=False
            ).result(timeout=120)
            # Two properties x four engines, one pool run.
            assert service.stats().pool.counters["runs"] == runs + 1
        assert report.method == "portfolio"
        assert report.outcomes["never_r"].status is PropStatus.HOLDS
        assert report.outcomes["never_q"].status is PropStatus.FAILS
        races = report.stats["portfolio"]
        assert races["never_q"]["winner"] in ("rw", "bmc", "kind", "ic3")
        # Only a prover can certify the HOLDS verdict.
        assert races["never_r"]["winner"] in ("kind", "ic3")
        assert report.stats["seed"] == 5

    def test_seeded_service_runs_reproduce(self, counter4):
        from repro.service import VerificationService

        reports = []
        with VerificationService(workers=2) as service:
            for _ in range(2):
                reports.append(
                    service.submit(
                        counter4,
                        strategy="portfolio",
                        portfolio_engines="rw,ic3",
                        seed=42,
                        exchange=False,
                    ).result(timeout=120)
                )
        first, second = reports
        assert {n: o.status for n, o in first.outcomes.items()} == {
            n: o.status for n, o in second.outcomes.items()
        }
        assert first.stats["engines"] == ["rw", "ic3"]
