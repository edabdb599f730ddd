"""Clause exchange: one clause log per job, relayed on its job messages.

The relay tests drive a :class:`SeatScheduler` over the in-process stub
pool of ``test_backoff``, which records the clauses every job message
carries; the last two run a real seat and a real 2-seat service.
"""

from __future__ import annotations

from repro.config import ProofOptions
from repro.engines.result import PropStatus
from repro.gen import all_true_designs
from repro.multiprop.report import PropOutcome
from repro.parallel import SeatScheduler, WorkerPool, pack_clauses, unpack_clauses
from repro.parallel.worker import PropertyJob
from repro.progress import ClauseImport
from repro.service import VerificationService
from repro.session import Session, VerificationConfig
from repro.ts.system import TransitionSystem
from tests.parallel.test_backoff import _pump, _StubPool

WARM = [(1, -2), (3,)]
INVARIANT = [(4, -1), (2,), (-1, 4)]  # unsorted, with a duplicate
LOGGED = [(-1, 4), (2,)]  # what the log holds of it


def test_pack_unpack_roundtrip():
    clauses = [(1, -2, 3), (-4,), (5, 6)]
    assert unpack_clauses(pack_clauses(clauses)) == clauses
    assert unpack_clauses(pack_clauses([])) == []
    # int64 range survives (activation literals can run high).
    wide = [(2**40, -(2**40) - 1)]
    assert unpack_clauses(pack_clauses(wide)) == wide


def _admit(scheduler, names, *, exchange=True, warm=()):
    config = VerificationConfig(
        design_name="stub-design", exchange=exchange, order=list(names)
    )
    return scheduler.admit(
        object(), config, None, list(names), warm_clauses=warm
    )


def _answer(scheduler, worker_id, invariant=None) -> None:
    """Report HOLDS, with ``invariant``, for the seat's current attempt."""
    run_id, attempt = scheduler.assignments[worker_id]
    outcome = PropOutcome(
        name=attempt.name, status=PropStatus.HOLDS, local=True, invariant=invariant
    )
    scheduler._dispatch_message(("result", run_id, worker_id, outcome))


def _relayed(pool, *, seat=None, run_id=None) -> list:
    """The clause list of every job message to ``seat`` / of ``run_id``."""
    return [
        clauses
        for to, run, clauses in pool.relayed
        if seat in (None, to) and run_id in (None, run)
    ]


class TestClauseRelay:
    def test_a_holds_invariant_rides_on_another_seats_next_job(self):
        pool = _StubPool(workers=2)
        scheduler = SeatScheduler(pool)
        job = _admit(scheduler, ["p0", "p1", "p2", "p3"])
        _pump(scheduler)  # p0 on seat 0, p1 on seat 1: an empty log
        _answer(scheduler, 0, INVARIANT)  # seat 0 takes p2
        _answer(scheduler, 1)  # seat 1 takes p3
        assert _relayed(pool, seat=1) == [[], LOGGED]
        assert job.exchanged == 2
        traffic = scheduler.exchange_traffic()
        assert (traffic["clauses"], traffic["publishes"], traffic["fetches"]) == (2, 1, 4)

    def test_a_concurrent_job_receives_none_of_it(self):
        pool = _StubPool(workers=2)
        scheduler = SeatScheduler(pool)
        first = _admit(scheduler, ["p0", "p1", "p2"])
        second = _admit(scheduler, ["q0", "q1", "q2"])
        theirs = {first.run_id: INVARIANT, second.run_id: [(5,)]}
        for _ in range(20):
            _pump(scheduler)
            if not scheduler.assignments:
                break
            worker_id = min(scheduler.assignments)
            _answer(scheduler, worker_id, theirs[scheduler.assignments[worker_id][0]])
        assert first.finished and second.finished
        to_first = [c for cs in _relayed(pool, run_id=first.run_id) for c in cs]
        to_second = [c for cs in _relayed(pool, run_id=second.run_id) for c in cs]
        assert set(to_first) == set(LOGGED)
        assert set(to_second) == {(5,)}

    def test_a_respawned_seat_receives_the_whole_log_again(self):
        pool = _StubPool(workers=2)
        scheduler = SeatScheduler(pool)
        _admit(scheduler, ["p0", "p1", "p2", "p3"], warm=WARM)
        _pump(scheduler)  # the warm start heads the log: both seats get it
        _answer(scheduler, 0, INVARIANT)
        pool.kill(1)
        scheduler._reap_crashed()  # p1 requeued; a first crash respawns at once
        _pump(scheduler)  # the fresh seat's ready ack: p1 again
        assert scheduler.assignments[1][1].name == "p1"
        assert _relayed(pool, seat=1) == [WARM, WARM + LOGGED]
        assert _relayed(pool, seat=0) == [WARM, LOGGED]

    def test_without_exchange_only_the_warm_start_is_sent(self):
        pool = _StubPool(workers=2)
        scheduler = SeatScheduler(pool)
        job = _admit(scheduler, ["p0", "p1", "p2", "p3"], exchange=False, warm=WARM)
        for _ in range(10):
            _pump(scheduler)
            if not scheduler.assignments:
                break
            _answer(scheduler, min(scheduler.assignments), INVARIANT)
        assert job.finished and job.exchanged == 0
        assert _relayed(pool, seat=0)[0] == _relayed(pool, seat=1)[0] == WARM
        assert _relayed(pool) == [WARM, WARM, [], []]
        assert scheduler.exchange_traffic()["fetches"] == 0


def test_a_seat_seeds_its_proof_with_the_relayed_clauses():
    ts = TransitionSystem(all_true_designs()["t135"])
    first, second = (prop.name for prop in ts.properties[:2])
    relayed = Session(ts, strategy="ja").run().outcomes[first].invariant
    assert relayed
    with WorkerPool(workers=1) as pool:
        pool.start_missing_workers()
        run_id = pool.open_run(ts, ProofOptions())
        assert pool.next_message(timeout=60.0)[0] == "ready"
        pool.assign(
            0, PropertyJob(name=second), run_id=run_id, clauses=pack_clauses(relayed)
        )
        imported = []
        while True:
            message = pool.next_message(timeout=60.0)
            if message[0] != "event":
                break
            if isinstance(message[3], ClauseImport):
                imported.append(message[3].count)
        assert message[0] == "result" and message[3].status is PropStatus.HOLDS
        pool.close_run(run_id)
    assert imported == [len(set(relayed))]


def test_a_reuse_heavy_run_relays_and_imports_clauses():
    ts = TransitionSystem(all_true_designs()["t135"])
    events = []
    with VerificationService(workers=2) as service:
        report = service.submit(
            ts, strategy="parallel-ja", on_event=events.append
        ).result(timeout=120)
        traffic = service.stats().exchange
    sequential = Session(ts, strategy="ja").run()
    assert {n: o.status for n, o in report.outcomes.items()} == {
        n: o.status for n, o in sequential.outcomes.items()
    }
    assert report.stats["exchange"] == 1
    assert report.stats["exchange_clauses"] > 0
    assert traffic["clauses"] == report.stats["exchange_clauses"]
    assert traffic["publishes"] > 0
    assert traffic["fetches"] == len(ts.properties)
    assert sum(e.count for e in events if isinstance(e, ClauseImport)) > 0
