"""Per-seat crash backoff, seat quotas, and revival-path regressions.

Most tests drive a :class:`SeatScheduler` against an in-process stub
pool: seats are plain set entries, crashes are ``kill()`` calls, and
messages are a deque — so the crash bookkeeping (transition-based
accounting, the exponential schedule, reset-on-healthy, the seatless
backlog drain) is exercised deterministically, with no processes and no
sleeps.  One class runs a whole :class:`VerificationService` over the
stub; the one fork-based test at the bottom injects a real
crash-looping worker through the service stack.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import time
from collections import deque

import pytest

from repro.engines.result import PropStatus
from repro.multiprop.report import PropOutcome
from repro.parallel import SeatScheduler, unpack_clauses
from repro.parallel import worker as worker_mod
from repro.parallel.worker import pool_worker_main  # real entry, pre-patch
from repro.progress import PropertyStarted
from repro.service import JobStatus, VerificationService
from repro.session import VerificationConfig

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash injection requires the fork start method",
)


class _StubPool:
    """The scheduler-facing surface of :class:`WorkerPool`, in-process.

    Seat liveness is a set, the message stream a deque, ``kill()`` the
    crash injector.  ``open_run``/``attach_worker`` push the ``ready``
    acks a real worker would send, and ``assign`` and ``stop_seat`` just
    record — ``assign`` also the clauses each job message relays, and
    returns the job's sequence number (its 1-based position in
    ``assigned``) — and tests answer assignments by feeding ``result``
    messages back through the scheduler.
    """

    def __init__(self, workers: int = 2) -> None:
        self.workers = workers
        self.closed = False
        self._run_ids = 0
        self._open: set[int] = set()
        self._started = set(range(workers))
        self._alive = set(range(workers))
        self.stats = {
            "runs": 0,
            "design_pickles": 0,
            "design_ships": 0,
            "workers_spawned": workers,
            "workers_replaced": 0,
        }
        self.messages: deque = deque()
        self.assigned: list = []  # (seat, run id, PropertyJob), in order
        self.relayed: list = []  # (seat, run id, clause list), per assign
        self.stopped: list = []  # (seat, PropertyJob) per stop_seat call
        self.respawn_calls: list[list[int]] = []

    # -- crash injection ------------------------------------------------
    def kill(self, worker_id: int) -> None:
        self._alive.discard(worker_id)

    def shutdown(self) -> None:
        """An orderly stop: seats exit cleanly, so none counts as failed."""
        self.closed = True
        self._started.clear()
        self._alive.clear()

    # -- WorkerPool surface ---------------------------------------------
    def acquire_messages(self, owner) -> None:
        self._owner = owner

    def release_messages(self, owner) -> None:
        self._owner = None

    @property
    def open_runs(self) -> list[int]:
        return sorted(self._open)

    def open_run(self, ts, options) -> int:
        run_id = self._run_ids
        self._run_ids += 1
        self._open.add(run_id)
        self.stats["runs"] += 1
        for worker_id in sorted(self._alive):
            self.messages.append(("ready", run_id, worker_id))
        return run_id

    def attach_worker(self, run_id: int, worker_id: int) -> None:
        self.messages.append(("ready", run_id, worker_id))

    def assign(self, worker_id, job, run_id=None, clauses=b"") -> int:
        self.assigned.append((worker_id, run_id, job))
        self.relayed.append((worker_id, run_id, unpack_clauses(clauses)))
        return len(self.assigned)

    def stop_seat(self, worker_id: int, seq: int) -> None:
        self.stopped.append((worker_id, self.assigned[seq - 1][2]))

    def next_message(self, timeout: float = 0.2):
        if self.messages:
            return self.messages.popleft()
        if timeout > 0:
            time.sleep(0.001)  # a dispatcher thread polling: do not spin
        raise queue_mod.Empty

    def close_run(self, run_id: int) -> None:
        self._open.discard(run_id)

    def worker_alive(self, worker_id: int) -> bool:
        return worker_id in self._alive

    def failed_workers(self) -> list[int]:
        return sorted(self._started - self._alive)

    def any_alive(self) -> bool:
        return bool(self._alive)

    def start_missing_workers(self) -> list[int]:
        started = [w for w in range(self.workers) if w not in self._started]
        for worker_id in started:
            self._started.add(worker_id)
            self._alive.add(worker_id)
            self.stats["workers_spawned"] += 1
        return started

    def respawn_workers(self, worker_ids) -> list[int]:
        requested = sorted(set(worker_ids))
        self.respawn_calls.append(requested)
        fresh = []
        for worker_id in requested:
            if worker_id in self._started and worker_id not in self._alive:
                self._alive.add(worker_id)
                self.stats["workers_replaced"] += 1
                fresh.append(worker_id)
        return fresh


def _admit(scheduler, names, *, priority=1.0, max_seats=None, job_id=None):
    config = VerificationConfig(
        design_name="stub-design",
        workers=scheduler.pool.workers,
        exchange=False,
        order=list(names),
        max_seats=max_seats,
    )
    return scheduler.admit(
        object(),  # the stub never touches the design
        config,
        None,
        list(names),
        priority=priority,
        job_id=job_id,
    )


def _pump(scheduler, limit: int = 200) -> None:
    """Deliver every queued message (ready acks trigger assignment)."""
    for _ in range(limit):
        try:
            message = scheduler.pool.next_message(timeout=0)
        except queue_mod.Empty:
            return
        scheduler._dispatch_message(message)
    raise AssertionError("message pump did not drain")


def _serve(scheduler, worker_id: int) -> str:
    """Answer one seat's current assignment with a HOLDS result."""
    run_id, attempt = scheduler.assignments[worker_id]
    scheduler._dispatch_message(
        (
            "result",
            run_id,
            worker_id,
            PropOutcome(name=attempt.name, status=PropStatus.HOLDS, local=True),
        )
    )
    return attempt.name


def _serve_everything(scheduler, limit: int = 200) -> None:
    for _ in range(limit):
        _pump(scheduler)
        if not scheduler.assignments:
            return
        _serve(scheduler, next(iter(scheduler.assignments)))
    raise AssertionError("assignments did not drain")


class TestStopSeats:
    def test_parallel_ja_never_stops_a_seat(self):
        # One attempt per property: when it reports there is no sibling
        # on a seat to stop, FAILS or HOLDS, and crash retries alike.
        pool = _StubPool(workers=2)
        scheduler = SeatScheduler(pool)
        job = _admit(scheduler, ["p0", "p1", "p2", "p3"])
        _pump(scheduler)
        pool.kill(0)
        scheduler._reap_crashed()  # p0 re-dispatched
        statuses = iter([PropStatus.FAILS, PropStatus.HOLDS] * 2)
        for _ in range(10):
            _pump(scheduler)
            if not scheduler.assignments:
                break
            worker_id = min(scheduler.assignments)
            run_id, attempt = scheduler.assignments[worker_id]
            scheduler._dispatch_message(
                (
                    "result",
                    run_id,
                    worker_id,
                    PropOutcome(name=attempt.name, status=next(statuses), local=True),
                )
            )
        assert job.finished and job.redispatched == 1
        assert len(pool.assigned) == 5
        assert pool.stopped == []

    def test_a_user_cancel_stops_the_seats_of_its_job(self, counter4):
        # Nobody wants the verdict in flight, so its seat is stopped and
        # reports UNKNOWN at the next budget check.
        pool = _StubPool(workers=1)
        with VerificationService(pool=pool) as service:
            handle = service.submit(
                counter4, strategy="parallel-ja", exchange=False, order=["P0", "P1"]
            )
            _wait_for(lambda: pool.assigned, "first attempt seated")
            seat, run_id, attempt = pool.assigned[0]
            assert handle.cancel()
            _wait_for(lambda: pool.stopped, "seat stopped")
            assert pool.stopped == [(seat, attempt)]
            pool.messages.append(
                (
                    "result",
                    run_id,
                    seat,
                    PropOutcome(name="P0", status=PropStatus.UNKNOWN, local=True),
                )
            )
            report = handle.result(timeout=30)
        assert handle.status is JobStatus.CANCELLED
        assert {o.status for o in report.outcomes.values()} == {PropStatus.UNKNOWN}
        assert [job.name for _, _, job in pool.assigned] == ["P0"]

    def test_a_user_cancel_marks_a_younger_jobs_queued_attempt_at_once(self):
        # One mark at the seat's newest attempt stops the running one and
        # declines the queued one together, whatever the job's age; the
        # older job's seat is not touched.
        pool = _StubPool(workers=2)
        scheduler = SeatScheduler(pool)
        keep = _admit(scheduler, [f"b{i}" for i in range(6)], job_id="keep")
        drop = _admit(scheduler, [f"a{i}" for i in range(6)], job_id="drop")
        _pump(scheduler)  # seat 0: b0, b1 queued; seat 1: b2
        _serve(scheduler, 1)  # b2 done: seat 1 runs a0, a1 queued
        assert keep.run_id < drop.run_id
        assert [a.name for _, (_, a) in sorted(scheduler.queued.items())] == ["b1", "a1"]
        scheduler.cancel_job(drop, stop=True)
        assert [(seat, a.name) for seat, a in pool.stopped] == [(1, "a1")]

    def test_the_watchdog_lets_attempts_in_flight_finish(self):
        pool = _StubPool(workers=2)
        scheduler = SeatScheduler(pool)
        names = ["p0", "p1", "p2"]
        job = scheduler.admit(
            object(),
            VerificationConfig(
                design_name="stub-design", exchange=False, order=names, total_time=0.0
            ),
            None,
            names,
        )
        _pump(scheduler)
        scheduler.step(timeout=0)  # past the deadline: the job is cancelled
        assert job.cancelled and pool.stopped == []
        _serve_everything(scheduler)
        assert [job.outcomes[name].status for name in names] == [
            PropStatus.HOLDS,
            PropStatus.HOLDS,
            PropStatus.UNKNOWN,
        ]


class TestReviveAccounting:
    def test_revive_touches_only_seats_actually_lost(self):
        # Regression: the old path charged its revive budget with every
        # seat a blanket respawn touched, counting seats it never lost.
        # Now only failed seats are respawned/accounted.
        pool = _StubPool(workers=3)
        scheduler = SeatScheduler(pool)
        _admit(scheduler, ["p0", "p1"])
        _pump(scheduler)
        spawned_before = pool.stats["workers_spawned"]
        pool.kill(1)
        scheduler._reap_crashed()
        assert pool.respawn_calls[-1] == [1]
        assert pool.stats["workers_replaced"] == 1
        assert pool.stats["workers_spawned"] == spawned_before
        assert pool.worker_alive(1)

    def test_repeated_reaps_account_one_crash(self):
        pool = _StubPool(workers=2)
        scheduler = SeatScheduler(pool, backoff_base=60.0, backoff_cap=60.0)
        _admit(scheduler, ["p0"])
        _pump(scheduler)
        pool.kill(0)
        scheduler._reap_crashed()  # transition: accounted
        pool.kill(0)  # first crash respawns immediately; kill again
        scheduler._reap_crashed()
        crashes = scheduler.seat_health[0].crashes
        scheduler._reap_crashed()  # same corpse, reaped again
        scheduler._reap_crashed()
        assert scheduler.seat_health[0].crashes == crashes == 2
        assert scheduler.seat_health[0].consecutive == 2


class TestFinishedJobsAreSealed:
    def test_crash_after_finish_leaves_job_intact(self):
        # A job whose last attempt reported has left the scheduler's
        # table with its run closed, so a crash reaped afterwards has
        # no way to reach its sealed state (ready set, outcomes).
        pool = _StubPool(workers=2)
        scheduler = SeatScheduler(pool)
        job = _admit(scheduler, ["p0"])
        _serve_everything(scheduler)
        assert job.finished and job.run_id not in scheduler.jobs
        assert job.run_id not in pool.open_runs
        ready_before = set(job.ready)
        outcomes_before = dict(job.outcomes)
        pool.kill(0)
        scheduler._reap_crashed()
        assert job.ready == ready_before
        assert job.outcomes == outcomes_before
        assert job.finished and job.error is None


class TestSeatlessBacklogDrains:
    def test_retried_property_resolves_after_total_seat_loss(self):
        # Kill every seat while a property is assigned: the retry lands
        # in the backlog with nobody alive, the revived seat's ready
        # ack must drain it.
        pool = _StubPool(workers=1)
        scheduler = SeatScheduler(pool)
        job = _admit(scheduler, ["p0"])
        _pump(scheduler)
        run_id, attempt = scheduler.assignments[0]
        assert (run_id, attempt.name) == (job.run_id, "p0")
        pool.kill(0)
        scheduler._reap_crashed()  # retry queued, seat respawned
        assert job.redispatched == 1
        assert not job.finished
        _serve_everything(scheduler)
        assert job.finished
        assert job.outcomes["p0"].status is PropStatus.HOLDS

    def test_degrade_waits_for_backoff_pending_revival(self):
        pool = _StubPool(workers=1)
        scheduler = SeatScheduler(pool, backoff_base=60.0, backoff_cap=60.0)
        job = _admit(scheduler, ["p0"])
        pool.kill(0)
        scheduler._reap_crashed()  # crash 1: immediate respawn
        pool.kill(0)
        scheduler._reap_crashed()  # crash 2: 60s backoff, all seats dead
        assert not pool.any_alive()
        # No seat alive, but a respawn is owed: the job must wait, not
        # degrade to UNKNOWN.
        assert not job.finished and job.pending == {"p0"}
        scheduler.seat_health[0].not_before = 0.0  # the environment heals
        scheduler._reap_crashed()
        assert pool.worker_alive(0)
        _serve_everything(scheduler)
        assert job.outcomes["p0"].status is PropStatus.HOLDS

    def test_crash_on_a_closed_pool_is_not_retried(self):
        # A closed pool is the one thing a scheduler cannot revive: the
        # lost attempt degrades at once, claiming no re-dispatch.
        pool = _StubPool(workers=1)
        scheduler = SeatScheduler(pool)
        job = _admit(scheduler, ["p0"])
        _pump(scheduler)
        pool.kill(0)
        pool.closed = True
        scheduler._reap_crashed()
        assert job.finished and job.redispatched == 0
        assert job.outcomes["p0"].status is PropStatus.UNKNOWN
        assert pool.respawn_calls == []

    def test_pool_shutdown_degrades_every_job(self):
        # Seats that exit cleanly take their attempts with them: nobody
        # will report p0, nobody will ever take p1.
        pool = _StubPool(workers=1)
        scheduler = SeatScheduler(pool)
        job = _admit(scheduler, ["p0", "p1"])
        _pump(scheduler)
        assert scheduler.assignments[0][1].name == "p0"
        pool.shutdown()
        scheduler._reap_crashed()
        assert job.finished and job.error is None
        assert job.crashes == 0 and job.cancelled_count == 2
        assert {o.status for o in job.outcomes.values()} == {PropStatus.UNKNOWN}

    def test_crash_looping_seat_ends_job_unknown(self):
        # Every attempt the seat takes kills it.  Each property costs at
        # most two crashes (one re-dispatch), and CRASH_LOOP crashes in
        # a row end the wait for the seat: the job terminates UNKNOWN
        # instead of riding the backoff schedule forever.
        pool = _StubPool(workers=1)
        scheduler = SeatScheduler(pool)
        job = _admit(scheduler, ["p0", "p1", "p2"])
        crashes: dict[str, int] = {}
        for _ in range(10):
            if job.finished:
                break
            scheduler._seat_health(0).not_before = 0.0  # skip the backoff
            scheduler._reap_crashed()
            _pump(scheduler)
            if 0 in scheduler.assignments:
                name = scheduler.assignments[0][1].name
                crashes[name] = crashes.get(name, 0) + 1
                pool.kill(0)
                scheduler._reap_crashed()
        assert job.finished and job.error is None
        assert crashes == {"p0": 2, "p1": 1}
        assert job.crashes == 3 and job.redispatched == 2
        assert {o.status for o in job.outcomes.values()} == {PropStatus.UNKNOWN}
        assert set(job.outcomes) == {"p0", "p1", "p2"}


class TestBackoffSchedule:
    def test_delay_doubles_from_base_and_caps(self):
        pool = _StubPool(workers=1)
        scheduler = SeatScheduler(pool, backoff_base=5.0, backoff_cap=8.0)
        _admit(scheduler, ["p0"])
        health = scheduler._seat_health(0)
        observed = []
        for _ in range(4):
            pool.kill(0)
            scheduler._reap_crashed()
            observed.append(health.delay)
            health.not_before = 0.0  # skip the wait, force the respawn
            scheduler._reap_crashed()
            assert pool.worker_alive(0)
        assert observed == [0.0, 5.0, 8.0, 8.0]
        assert health.crashes == 4

    def test_backoff_delays_the_respawn(self):
        pool = _StubPool(workers=1)
        scheduler = SeatScheduler(pool, backoff_base=60.0, backoff_cap=60.0)
        _admit(scheduler, ["p0"])
        pool.kill(0)
        scheduler._reap_crashed()  # immediate
        assert pool.worker_alive(0)
        pool.kill(0)
        respawns_before = pool.stats["workers_replaced"]
        scheduler._reap_crashed()
        scheduler._reap_crashed()
        assert not pool.worker_alive(0)
        assert pool.stats["workers_replaced"] == respawns_before
        assert scheduler.seat_health[0].not_before > time.monotonic() + 50

    def test_maintain_revives_an_idle_pool(self):
        # Between jobs the service has nothing to step; maintain() must
        # still fire a due respawn so full strength never waits for the
        # next admission.
        pool = _StubPool(workers=1)
        scheduler = SeatScheduler(pool, backoff_base=60.0, backoff_cap=60.0)
        job = _admit(scheduler, ["p0"])
        _serve_everything(scheduler)
        assert job.finished
        pool.kill(0)
        scheduler._last_reap = 0.0
        scheduler.maintain()  # accounts the crash (crash 1: immediate)
        assert pool.worker_alive(0)
        pool.kill(0)
        scheduler._last_reap = 0.0
        scheduler.maintain()  # crash 2: 60s backoff, still down
        assert not pool.worker_alive(0)
        scheduler.seat_health[0].not_before = 0.0  # backoff expires
        scheduler._last_reap = 0.0
        scheduler.maintain()
        assert pool.worker_alive(0)
        # Throttle: a just-reaped scheduler skips the liveness sweep.
        pool.kill(0)
        scheduler.maintain()
        assert scheduler.seat_health[0].crashes == 2

    def test_served_property_resets_the_schedule(self):
        pool = _StubPool(workers=1)
        scheduler = SeatScheduler(pool, backoff_base=60.0, backoff_cap=60.0)
        job = _admit(scheduler, ["p0", "p1"])
        _pump(scheduler)
        pool.kill(0)
        scheduler._reap_crashed()  # crash 1 (p0 requeued), respawn now
        _pump(scheduler)
        _serve(scheduler, 0)  # healthy service: streak resets
        health = scheduler.seat_health[0]
        assert health.consecutive == 0 and health.delay == 0.0
        pool.kill(0)
        scheduler._reap_crashed()
        # Post-reset this counts as a *first* crash again: immediate.
        assert pool.worker_alive(0)
        assert health.consecutive == 1
        _serve_everything(scheduler)
        assert job.finished and job.error is None


class TestSeatQuota:
    def test_max_seats_caps_a_jobs_held_seats(self):
        pool = _StubPool(workers=4)
        scheduler = SeatScheduler(pool)
        capped = _admit(
            scheduler, [f"a{i}" for i in range(4)], max_seats=1, job_id="capped"
        )
        greedy = _admit(
            scheduler, [f"b{i}" for i in range(4)], job_id="greedy"
        )
        _pump(scheduler)
        held: dict[int, int] = {}
        for run_id, _ in scheduler.assignments.values():
            held[run_id] = held.get(run_id, 0) + 1
        assert held[capped.run_id] == 1
        assert held[greedy.run_id] == 3
        # The quota holds at every refill, and both jobs still finish.
        for _ in range(40):
            if not scheduler.assignments:
                break
            _serve(scheduler, next(iter(scheduler.assignments)))
            _pump(scheduler)
            capped_held = sum(
                1
                for run_id, _ in scheduler.assignments.values()
                if run_id == capped.run_id
            )
            assert capped_held <= 1
        assert capped.finished and greedy.finished

    def test_admit_rejects_non_positive_quota(self):
        pool = _StubPool(workers=1)
        scheduler = SeatScheduler(pool)
        with pytest.raises(ValueError, match="max_seats"):
            _admit(scheduler, ["p0"], max_seats=0)

    def test_scheduler_rejects_bad_backoff_knobs(self):
        with pytest.raises(ValueError, match="backoff"):
            SeatScheduler(_StubPool(), backoff_base=0.0)
        with pytest.raises(ValueError, match="backoff"):
            SeatScheduler(_StubPool(), backoff_base=2.0, backoff_cap=1.0)


class TestSchedulerStats:
    def test_snapshot_reports_occupancy_and_backoff(self):
        pool = _StubPool(workers=2)
        scheduler = SeatScheduler(pool, backoff_base=60.0, backoff_cap=60.0)
        _admit(scheduler, ["p0", "p1"], job_id="job-0")
        _pump(scheduler)
        stats = scheduler.stats()
        assert stats.workers == 2 and stats.alive == 2
        assert stats.busy == 2 and stats.idle == 0
        busy_seat = stats.seats[0]
        assert busy_seat.busy and busy_seat.job == "job-0"
        assert busy_seat.prop in ("p0", "p1")
        pool.kill(0)
        scheduler._reap_crashed()  # crash 1: respawned immediately
        pool.kill(0)
        scheduler._reap_crashed()  # crash 2: waiting out 60s backoff
        snap = scheduler.stats()
        seat = snap.seats[0]
        assert not seat.alive
        assert seat.crashes == 2 and seat.consecutive_crashes == 2
        assert seat.backoff_s == 60.0
        assert 0.0 < seat.respawn_in_s <= 60.0
        as_dict = snap.as_dict()
        assert as_dict["runs"] == pool.stats["runs"]  # legacy splice
        assert as_dict["seats"][0]["crashes"] == 2

    def test_a_dead_seat_is_neither_busy_nor_hides_an_idle_one(self):
        # Between a crash and the reap that accounts it, the dead seat
        # still holds its attempt; the live seat is the idle one.
        pool = _StubPool(workers=2)
        scheduler = SeatScheduler(pool)
        _admit(scheduler, ["p0"])
        _pump(scheduler)
        (holder,) = scheduler.assignments
        pool.kill(holder)
        stats = scheduler.stats()
        assert (stats.alive, stats.busy, stats.idle) == (1, 0, 1)


def _wait_for(condition, what: str) -> None:
    """Block until the dispatcher thread got there (a sync point, not a
    timing assertion: the deadline only turns a hang into a failure)."""
    deadline = time.monotonic() + 30
    while not condition():
        assert time.monotonic() < deadline, f"never happened: {what}"
        time.sleep(0.001)


class TestEmitFailure:
    def test_first_failure_cancels_queued_attempts(self, counter4):
        # The job's result is decided — the subscriber's exception — the
        # moment an emit fails; its queued attempts must not be seated.
        pool = _StubPool(workers=1)
        seen = []

        def explode(event):
            seen.append(event.kind)
            if isinstance(event, PropertyStarted):
                raise BrokenPipeError(32, "Broken pipe")

        with VerificationService(pool=pool) as service:
            handle = service.submit(
                counter4,
                strategy="parallel-ja",
                exchange=False,
                order=["P0", "P1"],
                on_event=explode,
            )
            _wait_for(lambda: pool.assigned, "first attempt seated")
            seat, run_id, attempt = pool.assigned[0]
            assert attempt.name == "P0"
            pool.messages.append(
                ("event", run_id, seat, PropertyStarted(name="P0", assumed=("P1",)))
            )
            _wait_for(lambda: pool.stopped, "job cancelled")
            pool.messages.append(
                (
                    "result",
                    run_id,
                    seat,
                    PropOutcome(name="P0", status=PropStatus.HOLDS, local=True),
                )
            )
            with pytest.raises(BrokenPipeError):
                handle.result(timeout=30)
            assert handle.status is JobStatus.FAILED  # not CANCELLED
        assert [job.name for _, _, job in pool.assigned] == ["P0"]
        # Nobody is left to take the verdict in flight: its seat is stopped.
        assert [(seat, job.name) for seat, job in pool.stopped] == [(seat, "P0")]
        # Everything between the failure and the verdict was dropped.
        assert seen[-2:] == ["property-started", "job-finished"]


def _crash_loop_until(marker: str):
    """Seat 0 dies instantly on every spawn until ``marker`` exists."""

    def entry(worker_id, ctrl_queue, out_queue, stop_marks, stop_event):
        if worker_id == 0 and not os.path.exists(marker):
            os._exit(1)
        pool_worker_main(worker_id, ctrl_queue, out_queue, stop_marks, stop_event)

    return entry


@pytest.mark.slow
@needs_fork
class TestCrashLoopFaultInjection:
    def test_crash_loop_is_throttled_and_heals(
        self, toggler, tmp_path, monkeypatch
    ):
        from repro.service import VerificationService

        marker = str(tmp_path / "healed")
        monkeypatch.setattr(
            worker_mod, "pool_worker_main", _crash_loop_until(marker)
        )
        with VerificationService(
            workers=2,
            start_method="fork",
            seat_backoff_base=0.2,
            seat_backoff_cap=1.0,
        ) as service:
            # Seat 0 crash-loops from the first spawn; seat 1 must
            # carry every job to correct verdicts regardless.
            for _ in range(2):
                report = service.submit(
                    toggler, strategy="parallel-ja", exchange=False
                ).result(timeout=120)
                assert report.outcomes["never_r"].status is PropStatus.HOLDS
                assert report.outcomes["never_q"].status is PropStatus.FAILS
            stats = service.stats()
            seat0 = stats.pool.seats[0]
            assert seat0.crashes >= 1
            assert seat0.consecutive_crashes == seat0.crashes
            # Exponential backoff bounds the respawn rate: the two runs
            # plus snapshotting span a few seconds at most, which the
            # 0.2s-base/1s-cap schedule limits to well under 20
            # respawns.  A hot loop would show hundreds.
            assert stats.pool.counters["workers_replaced"] <= 20
            # The environment heals: idle maintenance (or the next
            # admission) revives the seat — its pending backoff skipped
            # to keep the test fast — and full strength returns.
            with open(marker, "w"):
                pass
            service._scheduler.seat_health[0].not_before = 0.0
            report = service.submit(
                toggler, strategy="parallel-ja", exchange=False
            ).result(timeout=120)
            assert report.outcomes["never_q"].status is PropStatus.FAILS
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                stats = service.stats()
                if stats.pool.alive == 2:
                    break
                time.sleep(0.1)
            assert stats.pool.alive == 2, "service never recovered seat 0"
