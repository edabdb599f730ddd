"""Per-seat crash backoff and revival-path regressions.

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
import threading
import time
from collections import deque

import pytest

from repro.engines.result import PropStatus
from repro.multiprop.report import PropOutcome
from repro.parallel import SeatScheduler, unpack_clauses
from repro.parallel import engine as engine_mod
from repro.parallel import worker as worker_mod
from repro.parallel.worker import pool_worker_main  # real entry, pre-patch
from repro.progress import PropertyStarted, WorkerStarted
from repro.service import JobStatus, VerificationService
from repro.session import VerificationConfig

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash injection requires the fork start method",
)


def _scheduler(monkeypatch, pool, base, cap):
    """A scheduler over ``pool`` whose seats back off from ``base`` to ``cap``."""
    monkeypatch.setattr(engine_mod, "SEAT_BACKOFF_BASE", base)
    monkeypatch.setattr(engine_mod, "SEAT_BACKOFF_CAP", cap)
    return SeatScheduler(pool)


class _StubPool:
    """The scheduler-facing surface of :class:`WorkerPool`, in-process.

    Seat liveness is a set, the message stream a deque, ``kill()`` the
    crash injector.  ``open_run``/``attach_worker`` push the ``ready``
    acks a real worker would send, and ``assign`` and ``stop_seat`` just
    record — ``assign`` also the clauses each job message relays, and
    returns the job's sequence number (its 1-based position in
    ``assigned``) — and tests answer assignments by feeding ``result``
    messages back through the scheduler, or :meth:`post` them to a
    dispatcher thread.  Every post and record notifies ``changed``, so
    a test thread blocks in :meth:`wait_for` until the dispatcher got
    there.
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
        self.changed = threading.Condition()
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
            self.post(("ready", run_id, worker_id))
        return run_id

    def attach_worker(self, run_id: int, worker_id: int) -> None:
        self.post(("ready", run_id, worker_id))

    def assign(self, worker_id, job, run_id=None, clauses=b"") -> int:
        with self.changed:
            self.assigned.append((worker_id, run_id, job))
            self.relayed.append((worker_id, run_id, unpack_clauses(clauses)))
            self.changed.notify_all()
            return len(self.assigned)

    def stop_seat(self, worker_id: int, seq: int) -> None:
        with self.changed:
            self.stopped.append((worker_id, self.assigned[seq - 1][2]))
            self.changed.notify_all()

    def next_message(self, timeout: float = 0.2):
        with self.changed:
            if timeout > 0:
                self.changed.wait_for(lambda: self.messages, timeout)
            if self.messages:
                return self.messages.popleft()
        raise queue_mod.Empty

    # -- test side ------------------------------------------------------
    def post(self, message) -> None:
        """A seat's message, as the dispatcher will read it."""
        with self.changed:
            self.messages.append(message)
            self.changed.notify_all()

    def wait_for(self, condition, what: str) -> None:
        """Block until the dispatcher thread got there (a sync point, not
        a timing assertion: the deadline only turns a hang into a failure)."""
        with self.changed:
            assert self.changed.wait_for(condition, 30), f"never happened: {what}"

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


def _admit(scheduler, names, *, priority=1.0, job_id=None):
    config = VerificationConfig(
        design_name="stub-design",
        workers=scheduler.pool.workers,
        exchange=False,
        order=list(names),
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
            pool.wait_for(lambda: pool.assigned, "first attempt seated")
            seat, run_id, attempt = pool.assigned[0]
            assert handle.cancel()
            pool.wait_for(lambda: pool.stopped, "seat stopped")
            assert pool.stopped == [(seat, attempt)]
            pool.post(
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

    def test_repeated_reaps_account_one_crash(self, monkeypatch):
        pool = _StubPool(workers=2)
        scheduler = _scheduler(monkeypatch, pool, 60.0, 60.0)
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

    def test_degrade_waits_for_backoff_pending_revival(self, monkeypatch):
        pool = _StubPool(workers=1)
        scheduler = _scheduler(monkeypatch, pool, 60.0, 60.0)
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
    def test_delay_doubles_from_base_and_caps(self, monkeypatch):
        pool = _StubPool(workers=1)
        scheduler = _scheduler(monkeypatch, pool, 5.0, 8.0)
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

    def test_backoff_delays_the_respawn(self, monkeypatch):
        pool = _StubPool(workers=1)
        scheduler = _scheduler(monkeypatch, pool, 60.0, 60.0)
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

    def test_maintain_revives_an_idle_pool(self, monkeypatch):
        # Between jobs the service has nothing to step; maintain() must
        # still fire a due respawn so full strength never waits for the
        # next admission.
        pool = _StubPool(workers=1)
        scheduler = _scheduler(monkeypatch, pool, 60.0, 60.0)
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

    def test_served_property_resets_the_schedule(self, monkeypatch):
        pool = _StubPool(workers=1)
        scheduler = _scheduler(monkeypatch, pool, 60.0, 60.0)
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


class TestSchedulerStats:
    def test_snapshot_reports_occupancy_and_backoff(self, monkeypatch):
        pool = _StubPool(workers=2)
        scheduler = _scheduler(monkeypatch, pool, 60.0, 60.0)
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
            pool.wait_for(lambda: pool.assigned, "first attempt seated")
            seat, run_id, attempt = pool.assigned[0]
            assert attempt.name == "P0"
            pool.post(("event", run_id, seat, PropertyStarted(name="P0", assumed=("P1",))))
            pool.wait_for(lambda: pool.stopped, "job cancelled")
            pool.post(
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


def _crash_loop_until(healed, serving):
    """Seat 0 dies instantly on every spawn until ``healed`` is set;
    a seat 0 that survives sets ``serving``."""

    def entry(worker_id, ctrl_queue, out_queue, stop_marks, stop_event):
        if worker_id == 0:
            if not healed.is_set():
                os._exit(1)
            serving.set()
        pool_worker_main(worker_id, ctrl_queue, out_queue, stop_marks, stop_event)

    return entry


@pytest.mark.slow
@needs_fork
class TestCrashLoopFaultInjection:
    def test_crash_loop_is_throttled_and_heals(self, toggler, monkeypatch):
        from repro.service import VerificationService

        fork = multiprocessing.get_context("fork")
        healed, serving = fork.Event(), fork.Event()
        monkeypatch.setattr(
            worker_mod, "pool_worker_main", _crash_loop_until(healed, serving)
        )
        # Seat 0's first start is its spawn; every later one a respawn,
        # which follows the reap that accounted its crash.
        seat0_starts = threading.Semaphore(0)

        def count_starts(event):
            if isinstance(event, WorkerStarted) and event.worker == 0:
                seat0_starts.release()

        monkeypatch.setattr(engine_mod, "SEAT_BACKOFF_BASE", 0.2)
        monkeypatch.setattr(engine_mod, "SEAT_BACKOFF_CAP", 1.0)
        with VerificationService(workers=2) as service:
            service.subscribe(count_starts)
            # Seat 0 crash-loops from the first spawn; seat 1 must
            # carry every job to correct verdicts regardless.
            for _ in range(2):
                report = service.submit(
                    toggler, strategy="parallel-ja", exchange=False
                ).result(timeout=120)
                assert report.outcomes["never_r"].status is PropStatus.HOLDS
                assert report.outcomes["never_q"].status is PropStatus.FAILS
            # Both jobs may finish on seat 1 before any reap sees seat 0
            # dead: wait for its first respawn, so a crash is accounted.
            for start in ("spawn", "respawn"):
                assert seat0_starts.acquire(timeout=30), f"seat 0 never saw its {start}"
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
            healed.set()
            service._scheduler.seat_health[0].not_before = 0.0
            report = service.submit(
                toggler, strategy="parallel-ja", exchange=False
            ).result(timeout=120)
            assert report.outcomes["never_q"].status is PropStatus.FAILS
            assert serving.wait(timeout=30), "service never recovered seat 0"
            stats = service.stats()
            assert stats.pool.alive == 2, "service never recovered seat 0"
