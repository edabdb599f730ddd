"""Unit tests for the process-parallel JA engine."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.engines.result import PropStatus
from repro.parallel import (
    SeatScheduler,
    WorkerPool,
    parallel_ja_verify,
)
from repro.progress import (
    PropertyCancelled,
    PropertySolved,
    WorkerStarted,
)
from repro.session import ConfigError, Session, VerificationConfig
from repro.ts.system import TransitionSystem


class TestEngine:
    def test_verdicts_and_stats(self, toggler):
        report = parallel_ja_verify(
            toggler, VerificationConfig(workers=2, design_name="toggler")
        )
        assert report.method == "parallel-ja"
        assert report.design == "toggler"
        assert report.outcomes["never_r"].status is PropStatus.HOLDS
        assert report.outcomes["never_q"].status is PropStatus.FAILS
        assert report.stats["mode"] == "process"
        assert report.stats["workers"] == 2
        assert report.stats["worker_crashes"] == 0

    def test_outcomes_follow_dispatch_order(self, counter4):
        options = VerificationConfig(workers=2, order=["P1", "P0"])
        report = parallel_ja_verify(counter4, options)
        assert list(report.outcomes) == ["P1", "P0"]

    def test_empty_property_list(self):
        from repro.circuit.aig import AIG

        aig = AIG()
        aig.add_latch("l", init=0)
        report = parallel_ja_verify(TransitionSystem(aig))
        assert report.outcomes == {}

    def test_unknown_order_name_rejected(self, toggler):
        with pytest.raises(ConfigError):
            parallel_ja_verify(toggler, VerificationConfig(order=["nope"]))

    def test_invalid_worker_count_rejected(self, toggler):
        with pytest.raises(ValueError):
            parallel_ja_verify(toggler, VerificationConfig(workers=0))

    def test_worker_events_are_merged(self, toggler):
        events = []
        parallel_ja_verify(toggler, VerificationConfig(workers=2), emit=events.append)
        assert sum(isinstance(e, WorkerStarted) for e in events) == 2
        solved = [e for e in events if isinstance(e, PropertySolved)]
        assert {e.name for e in solved} == {"never_r", "never_q"}

    def test_exchange_off_shares_nothing(self, counter4):
        report = parallel_ja_verify(
            counter4, VerificationConfig(workers=2, exchange=False)
        )
        assert report.stats["exchange"] == 0
        assert report.stats["exchange_clauses"] == 0

    def test_clause_reuse_off_disables_exchange(self, counter4):
        report = parallel_ja_verify(
            counter4, VerificationConfig(workers=2, clause_reuse=False)
        )
        assert report.stats["exchange"] == 0

    def test_a_jobs_only_child_processes_are_the_seats(self, counter4):
        """Clause exchange rides on the job messages: an exchanging job
        starts no process besides the pool's seats."""
        before = {child.pid for child in multiprocessing.active_children()}
        with WorkerPool(workers=2) as pool:
            scheduler = SeatScheduler(pool)
            try:
                job = scheduler.admit(
                    counter4, VerificationConfig(), None, ["P0", "P1"]
                )
                assert job.use_exchange
                seats = {slot.process.pid for slot in pool._slots}
                assert len(seats) == 2
                while scheduler.jobs:
                    started = {
                        child.pid for child in multiprocessing.active_children()
                    } - before
                    assert started == seats
                    scheduler.step()
                assert job.error is None
            finally:
                scheduler.close()


class TestEarlyCancellation:
    def test_the_watchdog_cancels_the_queue(self, toggler):
        # One seat, failing property first.  Its verdict event moves the
        # job's deadline into the past; the message after it is its
        # result, and one message per step puts the watchdog's check in
        # between: the property behind it in the backlog is cancelled
        # deterministically, with no sleep.
        events = []

        def emit(event):
            events.append(event)
            if isinstance(event, PropertySolved) and event.name == "never_q":
                job.deadline = job.start - 1.0

        order = ["never_q", "never_r"]
        config = VerificationConfig(workers=1, total_time=3600.0, order=order)
        with WorkerPool(workers=1) as pool:
            scheduler = SeatScheduler(pool)
            try:
                job = scheduler.admit(toggler, config, emit, order)
                while scheduler.jobs:
                    scheduler.step(max_messages=1)
                report = job.build_report(pool)
            finally:
                scheduler.close()
        assert job.cancelled and job.error is None
        # The running attempt's verdict counts.
        assert report.outcomes["never_q"].status is PropStatus.FAILS
        assert report.outcomes["never_r"].status is PropStatus.UNKNOWN
        assert report.stats["cancelled"] == 1
        # The queued one: cancelled, then its one UNKNOWN verdict.
        never_r = [
            e for e in events
            if isinstance(e, (PropertyCancelled, PropertySolved))
            and e.name == "never_r"
        ]
        assert [type(e) for e in never_r] == [PropertyCancelled, PropertySolved]
        assert never_r[1].status is PropStatus.UNKNOWN
        solved = [e for e in events if isinstance(e, PropertySolved)]
        assert sorted(e.name for e in solved) == ["never_q", "never_r"]

    def test_zero_total_time_cancels_everything(self, toggler):
        report = parallel_ja_verify(
            toggler, VerificationConfig(workers=2, total_time=0.0)
        )
        assert all(
            o.status is PropStatus.UNKNOWN for o in report.outcomes.values()
        )
        assert report.stats["cancelled"] == len(toggler.properties)


class TestSessionIntegration:
    def test_session_stream_merges_worker_events(self, toggler):
        session = Session(toggler, strategy="parallel-ja", workers=2)
        kinds = [event.kind for event in session.stream()]
        assert kinds[0] == "job-queued"
        assert kinds[-1] == "job-finished"
        assert kinds.count("worker-started") == 2
        assert kinds.count("property-solved") == len(toggler.properties)
        assert session.report is not None

    def test_workers_validated_by_config(self, toggler):
        with pytest.raises(ConfigError):
            Session(toggler, strategy="parallel-ja", workers=0)
