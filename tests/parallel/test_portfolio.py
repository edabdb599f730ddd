"""Portfolio arbitration: parity, fault injection, the service path.

Three layers, mirroring how the controller is driven in production:

* **Parity** — real worker processes, Hypothesis design mixes, both SAT
  backends: whatever engine wins the race, the verdicts must equal what
  sequential JA-verification reports for the same design.
* **Arbitration fault injection** — a stub pool (the
  ``test_backoff`` idiom) makes the races fully deterministic: a hung
  loser cannot block the decision, cancel latencies are recorded as the
  acks arrive, and a stale loser verdict that was already in flight
  when the race was decided is rejected by the epoch check.
* **Service** — one real :class:`VerificationService` run, where the
  controller is stepped by the service dispatcher rather than the
  standalone drive loop.
"""

from __future__ import annotations

import queue as queue_mod
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.result import PropStatus
from repro.multiprop.ja import JAOptions, JAVerifier
from repro.multiprop.report import PropOutcome
from repro.gen.random_designs import random_design
from repro.parallel import (
    ENGINE_NAMES,
    ParallelOptions,
    SeatScheduler,
    admit_portfolio,
    parse_engine_slate,
    portfolio_verify,
)
from repro.progress import AttemptCancelled, AttemptStarted, PortfolioDecided
from repro.session.config import ConfigError, VerificationConfig
from repro.ts.system import TransitionSystem

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
        report = JAVerifier(ts, JAOptions(solver_backend=backend)).run("seq")
        return {name: o.status for name, o in report.outcomes.items()}

    @given(design_seed=st.integers(min_value=0, max_value=400))
    @settings(max_examples=5, deadline=None)
    def test_random_design_mix(self, design_seed: int):
        ts = TransitionSystem(random_design(design_seed))
        for backend in BACKENDS:
            expected = self._sequential(ts, backend)
            report = portfolio_verify(
                ts,
                ParallelOptions(
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
                ParallelOptions(workers=2, solver_backend=backend, seed=0),
            )
            assert {n: o.status for n, o in report.outcomes.items()} == expected
            assert report.stats["mode"] == "portfolio"
            assert report.stats["seed"] == 0


class _StubPool:
    """The scheduler-facing surface of ``WorkerPool``, in-process.

    One run per portfolio attempt; tests answer a chosen attempt's
    assignment to script the exact arrival order of verdicts.
    """

    def __init__(self, workers: int = 2) -> None:
        self.workers = workers
        self.closed = False
        self.context = None
        self._run_ids = 0
        self._open: set[int] = set()
        self._alive = set(range(workers))
        self.stats = {
            "runs": 0,
            "design_pickles": 0,
            "workers_spawned": workers,
            "workers_replaced": 0,
        }
        self.messages: deque = deque()
        self.cancelled_runs: list[int] = []

    def acquire_messages(self, owner) -> None:
        pass

    @property
    def open_runs(self) -> list[int]:
        return sorted(self._open)

    def open_run(self, ts, settings, exchange=None) -> int:
        run_id = self._run_ids
        self._run_ids += 1
        self._open.add(run_id)
        self.stats["runs"] += 1
        for worker_id in sorted(self._alive):
            self.messages.append(("ready", run_id, worker_id))
        return run_id

    def attach_worker(self, run_id: int, worker_id: int) -> None:
        self.messages.append(("ready", run_id, worker_id))

    def assign(self, worker_id, job, run_id=None) -> None:
        pass

    def next_message(self, timeout: float = 0.2):
        if self.messages:
            return self.messages.popleft()
        raise queue_mod.Empty

    def cancel_run(self, run_id: int) -> None:
        self.cancelled_runs.append(run_id)

    def close_run(self, run_id: int) -> None:
        self._open.discard(run_id)

    def worker_alive(self, worker_id: int) -> bool:
        return worker_id in self._alive

    def failed_workers(self) -> list[int]:
        return []

    def any_alive(self) -> bool:
        return bool(self._alive)

    def start_missing_workers(self) -> list[int]:
        return []

    def respawn_workers(self, worker_ids) -> list[int]:
        return []

    def ensure_workers(self):
        return [], []


def _drain(scheduler, limit: int = 200) -> None:
    for _ in range(limit):
        try:
            message = scheduler.pool.next_message(timeout=0)
        except queue_mod.Empty:
            return
        scheduler._dispatch_message(message)
    raise AssertionError("message pump did not drain")


def _seat_of(scheduler, run_id: int) -> tuple[int, str]:
    for worker_id, (rid, name) in scheduler.assignments.items():
        if rid == run_id:
            return worker_id, name
    raise AssertionError(f"run {run_id} holds no seat")


def _answer(scheduler, job, status: PropStatus, **fields) -> None:
    """Serve one attempt's assignment with a scripted verdict."""
    worker_id, name = _seat_of(scheduler, job.run_id)
    scheduler._dispatch_message(
        (
            "result",
            job.run_id,
            worker_id,
            PropOutcome(name=name, status=status, local=True, **fields),
        )
    )


def _ack_cancel(scheduler, job) -> None:
    """Deliver the worker-side acknowledgement of a run cancel."""
    worker_id, name = _seat_of(scheduler, job.run_id)
    scheduler._dispatch_message(("cancelled", job.run_id, worker_id, name))


class TestArbitrationFaultInjection:
    """Deterministic races on the stub pool — no processes, no sleeps."""

    def _race(self, ts, order, engines, *, workers=2, events=None):
        pool = _StubPool(workers=workers)
        scheduler = SeatScheduler(pool)
        controller = admit_portfolio(
            scheduler,
            ts,
            ParallelOptions(
                workers=workers,
                exchange=False,
                portfolio_engines=engines,
                order=list(order),
            ),
            "stub-design",
            events.append if events is not None else None,
            list(order),
        )
        _drain(scheduler)
        return pool, scheduler, controller

    def test_first_verdict_wins_despite_hung_loser(self, toggler):
        # bmc's attempt hangs (its seat never answers): the rw verdict
        # must decide the property and finish the race anyway.
        events: list = []
        pool, scheduler, controller = self._race(
            toggler, ["never_q"], ("rw", "bmc"), events=events
        )
        group = controller._groups["never_q"]
        rw, bmc = group.attempts["rw"], group.attempts["bmc"]
        assert len(scheduler.assignments) == 2  # both attempts seated
        _answer(scheduler, rw, PropStatus.FAILS, cex_depth=2)
        assert controller.finished
        assert group.winner == "rw"
        assert group.outcome.status is PropStatus.FAILS
        # The hung loser was cancelled through the per-run path ...
        assert pool.cancelled_runs == [bmc.run_id]
        # ... and until its ack arrives, its latency reads "in flight".
        report = controller.build_report(pool)
        assert report.stats["portfolio"]["never_q"]["cancelled"] == {"bmc": None}
        # The ack lands after the report: latency becomes measurable.
        _ack_cancel(scheduler, bmc)
        assert bmc.finished
        late = controller.build_report(pool)
        latency = late.stats["portfolio"]["never_q"]["cancelled"]["bmc"]
        assert isinstance(latency, float) and latency >= 0.0
        cancelled = [e for e in events if isinstance(e, AttemptCancelled)]
        assert [e.engine for e in cancelled] == ["bmc"]
        assert cancelled[0].latency_s == latency

    def test_stale_loser_verdict_rejected_by_epoch(self, toggler):
        # Both verdicts are already in flight when the pump runs: the
        # first decides, the second — even a *conflicting definitive*
        # verdict — must be dropped by the epoch check.
        events: list = []
        pool, scheduler, controller = self._race(
            toggler, ["never_q"], ("rw", "bmc"), events=events
        )
        group = controller._groups["never_q"]
        controller._pumping = True  # hold arbitration: verdicts race in
        _answer(scheduler, group.attempts["rw"], PropStatus.FAILS, cex_depth=2)
        _answer(scheduler, group.attempts["bmc"], PropStatus.HOLDS)
        controller._pumping = False
        controller._pump()
        assert controller.finished
        assert group.winner == "rw"
        assert group.outcome.status is PropStatus.FAILS
        decided = [e for e in events if isinstance(e, PortfolioDecided)]
        assert len(decided) == 1 and decided[0].winner == "rw"
        stale = [e for e in events if isinstance(e, AttemptCancelled)]
        assert [e.engine for e in stale] == ["bmc"]
        assert stale[0].latency_s is not None
        # Nothing was cancelled pool-side: the loser had already
        # finished; only its verdict was rejected.
        assert pool.cancelled_runs == []
        report = controller.build_report(pool)
        race = report.stats["portfolio"]["never_q"]
        assert race["winner"] == "rw"
        assert isinstance(race["cancelled"]["bmc"], float)

    def test_all_attempts_exhausted_settles_unknown(self, toggler):
        events: list = []
        pool, scheduler, controller = self._race(
            toggler, ["never_q"], ("rw", "bmc"), events=events
        )
        group = controller._groups["never_q"]
        _answer(scheduler, group.attempts["rw"], PropStatus.UNKNOWN)
        assert not controller.finished  # bmc still racing
        _answer(scheduler, group.attempts["bmc"], PropStatus.UNKNOWN)
        assert controller.finished
        assert group.winner is None
        decided = [e for e in events if isinstance(e, PortfolioDecided)]
        assert decided[-1].winner is None
        report = controller.build_report(pool)
        assert report.outcomes["never_q"].status is PropStatus.UNKNOWN
        assert controller.error is None

    def test_attempt_error_without_winner_fails_the_race(self, toggler):
        pool, scheduler, controller = self._race(
            toggler, ["never_q"], ("rw", "bmc")
        )
        group = controller._groups["never_q"]
        worker_id, name = _seat_of(scheduler, group.attempts["rw"].run_id)
        scheduler._dispatch_message(
            ("error", group.attempts["rw"].run_id, worker_id, name, "boom")
        )
        _answer(scheduler, group.attempts["bmc"], PropStatus.UNKNOWN)
        assert controller.finished
        assert isinstance(controller.error, RuntimeError)
        assert "boom" in str(controller.error)

    def test_attempt_error_masked_by_a_winner(self, toggler):
        # An engine blowing up is irrelevant once a sibling decided.
        pool, scheduler, controller = self._race(
            toggler, ["never_q"], ("rw", "bmc")
        )
        group = controller._groups["never_q"]
        worker_id, name = _seat_of(scheduler, group.attempts["rw"].run_id)
        scheduler._dispatch_message(
            ("error", group.attempts["rw"].run_id, worker_id, name, "boom")
        )
        _answer(scheduler, group.attempts["bmc"], PropStatus.FAILS, cex_depth=1)
        assert controller.finished and controller.error is None
        assert group.winner == "bmc"
        report = controller.build_report(pool)
        (entry,) = report.stats["portfolio"]["never_q"]["errors"]
        assert entry.startswith("rw:") and "boom" in entry

    def test_cancel_all_settles_every_race(self, toggler):
        events: list = []
        pool, scheduler, controller = self._race(
            toggler, ["never_r", "never_q"], ("rw", "bmc"), events=events
        )
        seated = [
            scheduler.jobs[rid] for rid, _ in scheduler.assignments.values()
        ]
        controller.cancel_all()
        for job in seated:  # backlogged attempts settled synchronously
            if not job.finished:
                _ack_cancel(scheduler, job)
        assert controller.finished and controller.cancelled
        assert controller.error is None
        report = controller.build_report(pool)
        for name in ("never_r", "never_q"):
            assert report.outcomes[name].status is PropStatus.UNKNOWN
        started = [e for e in events if isinstance(e, AttemptStarted)]
        assert len(started) == 4

    def test_per_property_races_are_independent(self, toggler):
        # Deciding one property must not disturb the other's race.
        pool, scheduler, controller = self._race(
            toggler, ["never_r", "never_q"], ("rw", "bmc"), workers=4
        )
        q_group = controller._groups["never_q"]
        r_group = controller._groups["never_r"]
        _answer(scheduler, q_group.attempts["rw"], PropStatus.FAILS, cex_depth=2)
        assert q_group.decided and not r_group.decided
        assert not controller.finished
        _answer(scheduler, r_group.attempts["bmc"], PropStatus.HOLDS)
        assert controller.finished
        report = controller.build_report(pool)
        assert report.outcomes["never_q"].status is PropStatus.FAILS
        assert report.outcomes["never_r"].status is PropStatus.HOLDS
        races = report.stats["portfolio"]
        assert races["never_q"]["winner"] == "rw"
        assert races["never_r"]["winner"] == "bmc"


class TestServicePortfolio:
    """The controller under the service dispatcher (real processes)."""

    def test_submit_portfolio_job(self, toggler):
        from repro.service import VerificationService

        with VerificationService(workers=2) as service:
            report = service.submit(
                toggler, strategy="portfolio", seed=5, exchange=False
            ).result(timeout=120)
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
