"""Portfolio racing: parity, the race on one seat, the scheduler, the service.

Five layers, mirroring how a portfolio job runs in production:

* **Parity** — real worker processes, Hypothesis design mixes, both SAT
  backends: whatever engine wins the race, the verdicts must equal what
  sequential JA-verification reports for the same design.
* **The race on one seat** — :func:`~repro.parallel.portfolio.race`
  in-process, no pool: which engine ran which slice is read from spies
  on the engine entry points, and budgets from a conflict-counting SAT
  backend — counters, not clocks.
* **Arbitration fault injection** — the same race with engines that
  hang, raise or would contradict the decision.
* **One job on the scheduler** — ``test_backoff``'s stub pool: one
  attempt per property carries the slate, so the watchdog, a user's
  cancel and crash re-dispatch act on a race as on any pooled attempt.
* **Service** — real :class:`VerificationService` runs, where the job
  is stepped by the service dispatcher.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import words
from repro.circuit.aig import AIG, aig_not
from repro.config import ProofOptions
from repro.engines.randomwalk import derive_seed
from repro.engines.result import EngineResult, PropStatus
from repro.gen import FAILING_SPECS, ALL_TRUE_SPECS
from repro.multiprop.clausedb import ClauseDB
from repro.multiprop.ja import JAVerifier
from repro.multiprop.report import PropOutcome
from repro.gen.random_designs import random_design
from repro.parallel import (
    ENGINE_NAMES,
    SeatScheduler,
    parse_engine_slate,
    portfolio_verify,
)
from repro.parallel import portfolio as portfolio_mod
from repro.parallel.portfolio import race
from repro.progress import (
    AttemptStarted,
    ClauseExport,
    PortfolioDecided,
    PropertyCancelled,
    PropertySolved,
    PropertyStarted,
)
from repro.sat import Solver, register_backend, unregister_backend
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
            for name, race_stats in races.items():
                assert race_stats["winner"] in ENGINE_NAMES
                assert race_stats["status"] == got[name].value
                assert report.outcomes[name].engine == race_stats["winner"]

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


# ----------------------------------------------------------------------
# The race on one seat, in-process
# ----------------------------------------------------------------------
def _deep_counter(bits: int, target: int) -> TransitionSystem:
    """One property, false at depth ``target + 1``: an enabled counter
    must reach ``target`` (no other property, so nothing is assumed)."""
    aig = AIG()
    enable = aig.add_input("enable")
    val = words.word_latches(aig, "val", bits, init=0)
    words.set_next_word(
        aig, val, words.mux_word(aig, enable, words.inc(aig, val), val)
    )
    aig.add_property("below", aig_not(words.eq_const(aig, val, target)))
    return TransitionSystem(aig)


class _Slices(list):
    """Every non-IC3 slice a race ran — (engine, size, status, frames,
    walks), in order — with ``fakes`` to stand in for engines by name."""

    def __init__(self) -> None:
        super().__init__()
        self.fakes: dict = {}


@pytest.fixture
def slices(monkeypatch) -> _Slices:
    ran = _Slices()
    entry = {"rw": "randomwalk_check", "bmc": "bmc_check", "kind": "kinduction_check"}
    size_of = {"rw": "restarts", "bmc": "max_depth", "kind": "max_k"}
    for engine, attr in entry.items():
        real = getattr(portfolio_mod, attr)

        def spy(*args, _engine=engine, _real=real, **kwargs):
            result = ran.fakes.get(_engine, _real)(*args, **kwargs)
            ran.append(
                (
                    _engine,
                    kwargs[size_of[_engine]],
                    result.status,
                    result.frames,
                    result.stats.get("walks"),
                )
            )
            return result

        monkeypatch.setattr(portfolio_mod, attr, spy)
    return ran


def _race(ts, name, slate, events=None, seed=0, **options):
    return race(
        ts,
        name,
        slate,
        ProofOptions(**options),
        None,
        None if events is None else events.append,
        seed=seed,
    )


class TestRaceOnOneSeat:
    def test_kind_wins_round_0_on_a_true_property(self, toggler, slices):
        events: list = []
        outcome = _race(toggler, "never_r", ENGINE_NAMES, events)
        assert (outcome.status, outcome.engine) == (PropStatus.HOLDS, "kind")
        # Round 0: exactly 16 walks, BMC to depth 8, then k = 4 decides;
        # IC3 never gets a slice.
        assert slices == [
            ("rw", 16, PropStatus.UNKNOWN, 0, 16),
            ("bmc", 8, PropStatus.UNKNOWN, 8, None),
            ("kind", 4, PropStatus.HOLDS, 1, None),
        ]
        started = [e.engine for e in events if isinstance(e, AttemptStarted)]
        assert started == ["rw", "bmc", "kind"]
        (decided,) = [e for e in events if isinstance(e, PortfolioDecided)]
        assert decided.winner == "kind" and decided.losers == ("rw", "bmc")

    def test_a_cex_deeper_than_8_is_found_by_bmc_in_a_later_round(self, slices):
        outcome = _race(_deep_counter(4, 12), "below", ("bmc", "kind"))
        assert (outcome.status, outcome.engine) == (PropStatus.FAILS, "bmc")
        assert outcome.cex_depth == 13
        assert slices == [
            ("bmc", 8, PropStatus.UNKNOWN, 8, None),
            ("kind", 4, PropStatus.UNKNOWN, 4, None),
            ("bmc", 16, PropStatus.FAILS, 13, None),
        ]

    def test_per_property_conflicts_bound_the_whole_race(self):
        # Every solver the race creates counts its conflicts.  Left
        # alone the race spends thousands; with N = 50 it stops one SAT
        # call past N, where a budget per slice would spend N per slice.
        made: list = []

        @register_backend("race-conflict-counter")
        class Counting(Solver):
            def __init__(self) -> None:
                super().__init__()
                made.append(self)

        def spent(**options) -> tuple[PropStatus, int]:
            made.clear()
            outcome = _race(
                _deep_counter(6, 40),
                "below",
                ("bmc", "kind"),
                solver_backend="race-conflict-counter",
                **options,
            )
            return outcome.status, sum(s.stats()["conflicts"] for s in made)

        try:
            free = spent()
            bounded = spent(per_property_conflicts=50)
        finally:
            unregister_backend("race-conflict-counter")
        assert free[0] is PropStatus.FAILS and free[1] > 1000
        assert bounded[0] is PropStatus.UNKNOWN
        assert 50 < bounded[1] <= 2 * 50

    def test_one_started_and_one_solved_per_race(self, toggler):
        # IC3's slices run the whole ladder, which brackets itself: the
        # race keeps one pair however many engines and slices ran.
        events: list = []
        outcome = _race(toggler, "never_r", ("rw", "ic3"), events)
        assert outcome.engine == "ic3"
        kinds = [type(e) for e in events]
        assert kinds.count(PropertyStarted) == 1 and kinds[0] is PropertyStarted
        assert kinds.count(PropertySolved) == 1
        assert kinds[-2:] == [PortfolioDecided, PropertySolved]
        started = [e.engine for e in events if isinstance(e, AttemptStarted)]
        assert started == ["rw", "ic3"]


    def test_a_race_reads_the_seats_clauses_but_never_writes_them(self):
        # What a seat proved before must not seed a later race: winners
        # would then depend on which seat ran which property.
        ts = TransitionSystem(ALL_TRUE_SPECS["t135"].build())
        db = ClauseDB(ts)
        events: list = []
        outcome = race(ts, "r0_X0", ("ic3",), ProofOptions(), db, events.append, seed=0)
        assert (outcome.status, outcome.engine) == (PropStatus.HOLDS, "ic3")
        assert [e.count for e in events if isinstance(e, ClauseExport)] == [1]
        assert len(db) == 0


class TestArbitrationFaultInjection:
    """The seat's arbitration with injected faults — no processes."""

    def test_first_verdict_wins_despite_hung_loser(self, toggler, slices):
        # A BMC that would search forever only ever gets its slice; the
        # walk behind it decides in the same round.
        def hung_bmc(ts, name, max_depth, **_):
            return EngineResult(PropStatus.UNKNOWN, name, frames=max_depth)

        slices.fakes["bmc"] = hung_bmc
        outcome = _race(toggler, "never_q", ("bmc", "rw"))
        assert (outcome.status, outcome.engine) == (PropStatus.FAILS, "rw")
        assert [(engine, size) for engine, size, *_ in slices] == [
            ("bmc", 8),
            ("rw", 16),
        ]

    def test_late_loser_verdict_is_rejected(self, toggler, slices):
        # An engine behind the winner in the rotation would contradict
        # it: it is never asked, and one decision is announced.
        def contradicting_bmc(*_, **__):  # pragma: no cover - never runs
            raise AssertionError("a decided race consulted a later engine")

        slices.fakes["bmc"] = contradicting_bmc
        events: list = []
        outcome = _race(toggler, "never_q", ("rw", "bmc"), events)
        assert (outcome.status, outcome.engine) == (PropStatus.FAILS, "rw")
        assert outcome.errors == [] and [engine for engine, *_ in slices] == ["rw"]
        decided = [e for e in events if isinstance(e, PortfolioDecided)]
        assert len(decided) == 1 and decided[0].winner == "rw"

    def test_queued_losers_are_dropped_by_the_decision(self, toggler, slices):
        events: list = []
        outcome = _race(toggler, "never_q", ENGINE_NAMES, events)
        assert outcome.engine == "rw"
        assert [engine for engine, *_ in slices] == ["rw"]
        assert [e.engine for e in events if isinstance(e, AttemptStarted)] == ["rw"]
        assert [type(e) for e in events][-2:] == [PortfolioDecided, PropertySolved]
        assert events[-2].losers == ()

    def test_all_attempts_exhausted_settles_unknown(self, toggler, slices):
        # max_frames=7 caps BMC below its first slice, so it leaves after
        # round 0; the walk, left alone, then runs to its 512 walks at once.
        events: list = []
        outcome = _race(toggler, "never_r", ("rw", "bmc"), events, max_frames=7)
        assert [(engine, size) for engine, size, *_ in slices] == [
            ("rw", 16),
            ("bmc", 7),
            ("rw", 512),
        ]
        assert outcome.status is PropStatus.UNKNOWN and outcome.frames == 7
        assert outcome.engine is None and outcome.errors == []
        (decided,) = [e for e in events if isinstance(e, PortfolioDecided)]
        assert decided.winner is None and decided.losers == ("rw", "bmc")

    def test_attempt_error_without_winner_fails_the_race(self, toggler, slices):
        def boom(*_, **__):
            raise ValueError("boom")

        slices.fakes["rw"] = boom
        with pytest.raises(RuntimeError, match="rw: ValueError: boom"):
            _race(toggler, "never_r", ("rw", "bmc"), max_frames=7)
        # On the scheduler the seat's error message fails the job.
        pool, scheduler, job = _admit_race(toggler, ["never_r"], ("rw", "bmc"))
        scheduler._dispatch_message(
            ("error", job.run_id, 0, "never_r", "RuntimeError: rw: ValueError: boom")
        )
        assert job.finished and isinstance(job.error, RuntimeError)
        assert "never_r: RuntimeError: rw: ValueError: boom" in str(job.error)

    def test_attempt_error_masked_by_a_winner(self, toggler, slices):
        def boom(*_, **__):
            raise ValueError("boom")

        slices.fakes["rw"] = boom
        outcome = _race(toggler, "never_q", ("rw", "bmc"))
        assert (outcome.status, outcome.engine) == (PropStatus.FAILS, "bmc")
        assert outcome.errors == ["rw: ValueError: boom"]
        # The error rides the verdict into the report's race record.
        pool, scheduler, job = _admit_race(toggler, ["never_q"], ("rw", "bmc"))
        scheduler._dispatch_message(("result", job.run_id, 0, outcome))
        assert job.finished and job.error is None
        record = job.build_report(pool).stats["portfolio"]["never_q"]
        assert record["winner"] == "bmc"
        assert record["errors"] == ["rw: ValueError: boom"]

    def test_cancel_settles_every_race(self, toggler):
        # A user's cancel stops the seat of the race in flight, which
        # reports UNKNOWN; the queued race is settled on the spot.
        pool, scheduler, job = _admit_race(
            toggler, ["never_r", "never_q"], ENGINE_NAMES, workers=1
        )
        (seated,) = [a for _, a in scheduler.assignments.values()]
        scheduler.cancel_job(job, stop=True)
        assert [(seat, a.name) for seat, a in pool.stopped] == [(0, "never_r")]
        assert "never_q" not in job.pending and not job.finished
        _answer(scheduler, job, "never_r", PropStatus.UNKNOWN)
        assert job.finished and job.cancelled and job.error is None
        report = job.build_report(pool)
        for name in ("never_r", "never_q"):
            assert report.outcomes[name].status is PropStatus.UNKNOWN
            assert report.stats["portfolio"][name]["winner"] is None
        assert seated.slate == ENGINE_NAMES

    def test_cancel_stops_exactly_the_seats_of_its_job(self, toggler):
        pool = _StubPool(workers=4)
        scheduler = SeatScheduler(pool)
        jobs = [
            _admit_on(scheduler, toggler, ["never_r", "never_q"], ("rw", "bmc"))
            for _ in range(2)
        ]
        _pump(scheduler)
        assert len(scheduler.assignments) == 4
        held = {
            seat for seat, (run_id, _) in scheduler.assignments.items()
            if run_id == jobs[0].run_id
        }
        # The watchdog's cancel lets the races in flight finish ...
        scheduler.cancel_job(jobs[0])
        assert pool.stopped == []
        # ... a user's cancel, even after it, stops them: the job's own
        # seats, never its sibling's.
        scheduler.cancel_job(jobs[0], stop=True)
        assert {seat for seat, _ in pool.stopped} == held and len(held) == 2

    def test_per_property_races_are_independent(self, toggler):
        # Deciding one property must not disturb the other's race.
        pool, scheduler, job = _admit_race(
            toggler, ["never_r", "never_q"], ("rw", "bmc")
        )
        _answer(scheduler, job, "never_q", PropStatus.FAILS, engine="rw", cex_depth=2)
        assert job.pending == {"never_r"} and not job.finished
        assert pool.stopped == []
        _answer(scheduler, job, "never_r", PropStatus.HOLDS, engine="bmc")
        assert job.finished
        races = job.build_report(pool).stats["portfolio"]
        assert races["never_q"]["winner"] == "rw"
        assert races["never_r"]["winner"] == "bmc"


# ----------------------------------------------------------------------
# One job on the scheduler (stub pool)
# ----------------------------------------------------------------------
def _admit_on(scheduler, ts, order, engines, *, events=None, **options):
    return scheduler.admit(
        ts,
        VerificationConfig(
            strategy="portfolio",
            design_name="stub-design",
            portfolio_engines=",".join(engines),
            order=list(order),
            **options,
        ),
        events.append if events is not None else None,
        list(order),
        job_id="race",
    )


def _admit_race(ts, order, engines, *, workers=2, events=None, **options):
    """One portfolio job admitted on a stub pool, its seats fed."""
    pool = _StubPool(workers=workers)
    scheduler = SeatScheduler(pool)
    job = _admit_on(scheduler, ts, order, engines, events=events, **options)
    _pump(scheduler)
    return pool, scheduler, job


def _seat_of(scheduler, name: str) -> int:
    for worker_id, (_, attempt) in scheduler.assignments.items():
        if attempt.name == name:
            return worker_id
    raise AssertionError(f"{name} holds no seat")


def _answer(scheduler, job, name, status: PropStatus, **fields) -> None:
    """Serve one race's assignment with a scripted verdict."""
    scheduler._dispatch_message(
        (
            "result",
            job.run_id,
            _seat_of(scheduler, name),
            PropOutcome(name=name, status=status, local=True, **fields),
        )
    )


def _seated(scheduler) -> list[str]:
    return [attempt.name for _, (_, attempt) in sorted(scheduler.assignments.items())]


class TestOneJobOnTheScheduler:
    """A portfolio job is one ``PooledJob``: one run, one attempt per property."""

    def test_whole_slate_rides_one_run(self, toggler):
        pool, scheduler, job = _admit_race(
            toggler, ["never_r", "never_q"], ENGINE_NAMES, seed=9
        )
        assert pool.stats["runs"] == 1 and len(scheduler.jobs) == 1
        attempts = [attempt for _, _, attempt in pool.assigned]
        assert [(a.name, a.slate) for a in attempts] == [
            ("never_r", ENGINE_NAMES),
            ("never_q", ENGINE_NAMES),
        ]
        for attempt in attempts:
            assert attempt.seed == derive_seed(9, "stub-design", attempt.name)
        assert job.backlog == []
        assert {run_id for _, run_id, _ in pool.assigned} == {job.run_id}

    def test_the_watchdog_cancels_the_queued_races(self):
        # A failure cancels nothing.  Once the deadline has passed, the
        # watchdog drains the backlog unrun; the race in flight is not
        # stopped and its verdict counts; the one queued behind it is
        # stopped, by its own seq, when it becomes the seat's running one.
        events: list = []
        names = ["p0", "p1", "p2", "p3", "p4"]
        pool, scheduler, job = _admit_race(
            object(), names, ("rw", "bmc"), workers=1, events=events,
            total_time=3600.0,
        )
        _answer(scheduler, job, "p0", PropStatus.FAILS, engine="rw")
        assert not job.cancelled
        assert _seated(scheduler) == ["p1"]
        assert [a.name for _, a in scheduler.queued.values()] == ["p2"]
        job.deadline = job.start - 1.0  # the watchdog's deadline has passed
        scheduler.step(timeout=0)
        assert job.cancelled and job.backlog == [] and pool.stopped == []
        _answer(scheduler, job, "p1", PropStatus.HOLDS, engine="kind")
        assert [(seat, a.name) for seat, a in pool.stopped] == [(0, "p2")]
        scheduler._dispatch_message(("cancelled", job.run_id, 0, "p2"))
        assert job.finished
        report = job.build_report(pool)
        assert [report.outcomes[n].status for n in names] == [
            PropStatus.FAILS,
            PropStatus.HOLDS,
            PropStatus.UNKNOWN,
            PropStatus.UNKNOWN,
            PropStatus.UNKNOWN,
        ]
        assert [a.name for _, _, a in pool.assigned] == ["p0", "p1", "p2"]
        # Each cancelled race: PropertyCancelled, then one UNKNOWN verdict.
        for name in ("p2", "p3", "p4"):
            mine = [
                e for e in events
                if isinstance(e, (PropertyCancelled, PropertySolved))
                and e.name == name
            ]
            assert [type(e) for e in mine] == [PropertyCancelled, PropertySolved]
            assert mine[1].status is PropStatus.UNKNOWN

    def test_a_stopped_attempt_keeps_its_seat_busy_until_it_reports(self, toggler):
        delivered: list = []
        pool = _StubPool(workers=2)
        scheduler = SeatScheduler(pool)
        job = scheduler.admit(
            toggler,
            VerificationConfig(
                strategy="portfolio",
                design_name="stub-design",
                order=["never_q"],
            ),
            None,
            ["never_q"],
            job_id="race",
            on_finish=delivered.append,
        )
        _pump(scheduler)
        scheduler.cancel_job(job, stop=True)
        # Stopped, not yet reported: the seat is busy and nothing is
        # delivered.
        stats = scheduler.stats()
        assert stats.busy == 1 and stats.open_runs == 1 and delivered == []
        (busy,) = [seat for seat in stats.seats if seat.busy]
        assert (busy.job, busy.prop) == ("race", "never_q")
        _answer(scheduler, job, "never_q", PropStatus.UNKNOWN)
        assert delivered == [job] and pool.open_runs == []
        assert scheduler.stats().busy == 0

    def test_crashed_attempt_is_redispatched_once_as_it_was(self, toggler):
        events: list = []
        pool, scheduler, job = _admit_race(
            toggler, ["never_q"], ("rw", "bmc"), events=events, seed=9
        )
        seat = _seat_of(scheduler, "never_q")
        (lost,) = [a for w, _, a in pool.assigned if w == seat]
        assert lost.slate == ("rw", "bmc")
        assert lost.seed == derive_seed(9, "stub-design", "never_q")
        pool.kill(seat)
        scheduler._reap_crashed()
        # The held object goes back on a seat, untouched.
        assert job.redispatched == 1
        assert [type(e).__name__ for e in events][-1] == "PropertyRequeued"
        assert pool.assigned[-1][2] is lost
        # ... and a second crash on it is final: the race ends UNKNOWN.
        pool.kill(_seat_of(scheduler, "never_q"))
        scheduler._reap_crashed()
        assert job.redispatched == 1 and job.crashes == 2
        assert job.finished
        assert job.outcomes["never_q"].status is PropStatus.UNKNOWN

    def test_a_stopped_attempt_dying_with_its_seat_closes_the_run(self, toggler):
        pool, scheduler, job = _admit_race(toggler, ["never_q"], ("rw", "bmc"))
        scheduler.cancel_job(job, stop=True)
        pool.kill(_seat_of(scheduler, "never_q"))
        scheduler._reap_crashed()
        # A cancelled job's attempt is never re-dispatched.
        assert pool.open_runs == [] and not scheduler.assignments
        assert job.finished and job.redispatched == 0
        assert job.outcomes["never_q"].status is PropStatus.UNKNOWN


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
            # Two races, one pool run.
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

    @pytest.mark.parametrize("family", ["f175", "t135"])
    def test_winners_do_not_depend_on_the_seat_count(self, family):
        # Each race runs whole on one seat and reads nothing another
        # seat wrote, so the same seed picks the same winners at any
        # width.
        from repro.service import VerificationService

        spec = {**FAILING_SPECS, **ALL_TRUE_SPECS}[family]
        seen = {}
        for workers in (1, 2, 4):
            with VerificationService(workers=workers) as service:
                report = service.submit(
                    TransitionSystem(spec.build()), strategy="portfolio", seed=3
                ).result(timeout=120)
            seen[workers] = {
                name: (o.status, o.engine) for name, o in report.outcomes.items()
            }
        assert seen[1] == seen[2] == seen[4]
