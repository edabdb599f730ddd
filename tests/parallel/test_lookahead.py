"""Scheduler lookahead: a busy seat already holds its next attempt.

Driven against the in-process stub pool of ``test_backoff``: every
``assign`` the scheduler makes is a job message on the seat's queue,
so a seat's *in flight* count — assigned minus answered — is exactly
what the real seat would have queued.
"""

from __future__ import annotations

from repro.engines.result import PropStatus
from repro.parallel import SeatScheduler
from repro.progress import PropertyRequeued
from repro.session import VerificationConfig
from tests.parallel.test_backoff import _admit, _pump, _serve, _StubPool


def _in_flight(pool, answered: dict) -> dict:
    """seat -> attempts assigned to it and not answered yet."""
    counts: dict = {}
    for seat, _, _ in pool.assigned:
        counts[seat] = counts.get(seat, 0) + 1
    return {seat: n - answered.get(seat, 0) for seat, n in counts.items()}


def _drain(scheduler, pool, limit: int = 200) -> list:
    """Serve the lowest busy seat until nothing runs; every state seen.

    Each state is ``(in flight per seat, queued attempts' names)``.
    """
    answered: dict = {}
    seen = []
    for _ in range(limit):
        _pump(scheduler)
        seen.append(
            (
                _in_flight(pool, answered),
                [attempt.name for _, attempt in scheduler.queued.values()],
            )
        )
        if not scheduler.assignments:
            return seen
        seat = min(scheduler.assignments)
        _serve(scheduler, seat)
        answered[seat] = answered.get(seat, 0) + 1
    raise AssertionError("assignments did not drain")


class TestLookahead:
    def test_a_busy_seat_queues_one_attempt_while_the_backlog_is_deep(self):
        pool = _StubPool(workers=2)
        scheduler = SeatScheduler(pool)
        names = [f"p{i}" for i in range(10)]
        job = _admit(scheduler, names)
        _pump(scheduler)
        # Both seats run one attempt and hold the next.
        assert sorted(scheduler.queued) == sorted(scheduler.assignments) == [0, 1]
        seen = _drain(scheduler, pool)
        assert all(n <= 2 for flight, _ in seen for n in flight.values())
        # Queued only while more than 2 x seats attempts were left: an
        # attempt at dispatch position i leaves 10 - i in the backlog.
        queued = {name for _, names_ in seen for name in names_}
        assert queued and all(
            len(names) - names.index(name) > 2 * pool.workers for name in queued
        )
        assert job.finished
        assert {o.status for o in job.outcomes.values()} == {PropStatus.HOLDS}
        assert [attempt.name for _, _, attempt in pool.assigned] == names

    def test_a_five_property_race_on_two_seats_never_queues(self, toggler):
        pool = _StubPool(workers=2)
        scheduler = SeatScheduler(pool)
        names = [f"p{i}" for i in range(5)]
        job = scheduler.admit(
            toggler,
            VerificationConfig(
                strategy="portfolio",
                design_name="stub-design",
                portfolio_engines="rw,bmc",
                order=names,
            ),
            None,
            names,
        )
        seen = _drain(scheduler, pool)
        assert all(queued == [] for _, queued in seen)
        assert all(n <= 1 for flight, _ in seen for n in flight.values())
        assert job.finished

    def test_a_seat_queues_only_behind_its_own_job(self):
        # A queued attempt never waits on another job's proof.
        pool = _StubPool(workers=2)
        scheduler = SeatScheduler(pool)
        first = _admit(scheduler, [f"a{i}" for i in range(10)])
        second = _admit(scheduler, [f"b{i}" for i in range(10)])
        queued_by = set()
        for _ in range(60):
            _pump(scheduler)
            for seat, (run_id, _) in scheduler.queued.items():
                assert scheduler.assignments[seat][0] == run_id
                queued_by.add(run_id)
            if not scheduler.assignments:
                break
            _serve(scheduler, min(scheduler.assignments))
        assert queued_by == {first.run_id, second.run_id}
        assert first.finished and second.finished

    def test_a_cancelled_job_waits_on_no_other_jobs_seat(self):
        pool = _StubPool(workers=2)
        scheduler = SeatScheduler(pool)
        keep = _admit(scheduler, [f"b{i}" for i in range(6)], job_id="keep")
        _pump(scheduler)  # seat 0: b0, b1 queued; seat 1: b2, nothing queued
        drop = _admit(scheduler, [f"a{i}" for i in range(6)], job_id="drop")
        _pump(scheduler)
        # Both seats run keep: drop queues nowhere, so a cancel settles
        # it at once instead of after one of keep's proofs.
        assert [run for run, _ in scheduler.queued.values()] == [keep.run_id]
        scheduler.cancel_job(drop, stop=True)
        assert drop.finished and pool.stopped == []
        assert {o.status for o in drop.outcomes.values()} == {PropStatus.UNKNOWN}
        _drain(scheduler, pool)
        assert keep.finished

    def test_a_user_cancel_stops_its_queued_attempt_when_it_runs(self):
        pool = _StubPool(workers=2)
        scheduler = SeatScheduler(pool)
        keep = _admit(scheduler, [f"b{i}" for i in range(6)], job_id="keep")
        drop = _admit(scheduler, [f"a{i}" for i in range(6)], job_id="drop")
        _pump(scheduler)  # seat 0: b0, b1 queued; seat 1: b2
        _serve(scheduler, 1)  # b2 done: seat 1 runs a0, a1 queued
        assert [(s, r) for s, (r, _) in sorted(scheduler.queued.items())] == [
            (0, keep.run_id),
            (1, drop.run_id),
        ]
        scheduler.cancel_job(drop, stop=True)
        # a0 stops at its next budget check and a1 is declined unstarted.
        scheduler._dispatch_message(("cancelled", drop.run_id, 1, "a0"))
        scheduler._dispatch_message(("cancelled", drop.run_id, 1, "a1"))
        # Every stop named a1, the newest attempt on seat 1: once at the
        # cancel, once more when it became the running one.
        assert [(seat, a.name) for seat, a in pool.stopped] == [(1, "a1")] * 2
        assert drop.finished
        assert {o.status for o in drop.outcomes.values()} == {PropStatus.UNKNOWN}
        assert not keep.finished and scheduler.assignments[0][1].name == "b0"
        _drain(scheduler, pool)
        assert keep.finished
        assert {o.status for o in keep.outcomes.values()} == {PropStatus.HOLDS}
        assert len(pool.stopped) == 2

    def test_a_crash_redispatches_the_head_and_returns_the_queued(self):
        pool = _StubPool(workers=1)
        scheduler = SeatScheduler(pool)
        events = []
        names = ["p0", "p1", "p2", "p3"]
        job = scheduler.admit(
            object(),
            VerificationConfig(design_name="stub-design", exchange=False, order=names),
            events.append,
            names,
        )
        _pump(scheduler)
        assert scheduler.assignments[0][1].name == "p0"
        assert scheduler.queued[0][1].name == "p1"
        pool.kill(0)
        scheduler._reap_crashed()  # p0 re-dispatched, p1 back in the backlog
        assert [a.name for a in job.backlog] == ["p0", "p1", "p2", "p3"]
        _drain(scheduler, pool)
        report = job.build_report(pool)
        assert report.stats["worker_crashes"] == 1
        assert report.stats["redispatched"] == 1
        assert report.stats["cancelled"] == 0
        assert [e.name for e in events if isinstance(e, PropertyRequeued)] == ["p0"]
        assert {name: o.status for name, o in job.outcomes.items()} == {
            name: PropStatus.HOLDS for name in names
        }
