"""Persistent WorkerPool semantics: reuse, isolation, crash replacement."""

from __future__ import annotations

import os
import signal

import pytest

from repro.config import ProofOptions
from repro.engines.result import PropStatus
from repro.gen.counter import buggy_counter, fixed_counter
from repro.parallel import WorkerPool
from repro.parallel.pool import DESIGN_CACHE_SIZE
from repro.progress import PoolAttached, WorkerStarted
from repro.session import ConfigError, Session
from repro.ts.system import TransitionSystem


@pytest.fixture
def pool():
    with WorkerPool(workers=2) as p:
        yield p


class TestPoolReuse:
    def test_design_is_pickled_once_across_runs(self, pool, toggler):
        reports = [
            Session(toggler, strategy="parallel-ja", pool=pool).run()
            for _ in range(3)
        ]
        assert pool.stats["runs"] == 3
        assert pool.stats["design_pickles"] == 1
        assert pool.stats["workers_spawned"] == 2
        for report in reports:
            assert report.outcomes["never_r"].status is PropStatus.HOLDS
            assert report.outcomes["never_q"].status is PropStatus.FAILS
            assert report.stats["pool"] == "persistent"

    def test_runs_are_isolated(self, pool, toggler, counter4):
        """Verdicts and clause traffic never leak between runs."""
        first = Session(toggler, strategy="parallel-ja", pool=pool).run()
        second = Session(counter4, strategy="parallel-ja", pool=pool).run()
        third = Session(toggler, strategy="parallel-ja", pool=pool).run()
        assert set(first.outcomes) == {"never_r", "never_q"}
        assert set(second.outcomes) == {"P0", "P1"}
        assert set(third.outcomes) == set(first.outcomes)
        assert {n: o.status for n, o in third.outcomes.items()} == {
            n: o.status for n, o in first.outcomes.items()
        }
        # Two distinct designs were shipped; each pickled exactly once.
        assert pool.stats["design_pickles"] == 2
        assert pool.stats["designs_cached"] == 2

    def test_crashed_worker_is_replaced_before_next_run(self, pool, toggler):
        first = Session(toggler, strategy="parallel-ja", pool=pool).run()
        assert first.stats["worker_crashes"] == 0
        # Simulate an OOM kill between runs.
        victim = pool._slots[0].process
        victim.terminate()
        victim.join()
        events = []
        second = Session(
            toggler, strategy="parallel-ja", pool=pool, on_event=events.append
        ).run()
        assert pool.stats["workers_replaced"] == 1
        assert pool.stats["workers_spawned"] == 3
        # The replacement ran at full strength: complete, crash-free run.
        assert second.outcomes["never_r"].status is PropStatus.HOLDS
        assert second.outcomes["never_q"].status is PropStatus.FAILS
        assert second.stats["worker_crashes"] == 0
        restarted = [e for e in events if isinstance(e, WorkerStarted)]
        assert [e.worker for e in restarted] == [0]

    def test_pool_attached_event_reports_reuse(self, pool, toggler):
        events = []
        Session(toggler, strategy="parallel-ja", pool=pool,
                on_event=events.append).run()
        first = next(e for e in events if isinstance(e, PoolAttached))
        assert first.workers == 2
        assert first.persistent is True
        assert first.runs == 0
        events.clear()
        Session(toggler, strategy="parallel-ja", pool=pool,
                on_event=events.append).run()
        second = next(e for e in events if isinstance(e, PoolAttached))
        assert second.runs == 1
        # Warm pool: no new workers were spawned on the second run.
        assert not any(isinstance(e, WorkerStarted) for e in events)

    def test_ephemeral_runs_do_not_share_state(self, toggler):
        first = Session(toggler, strategy="parallel-ja", workers=2).run()
        second = Session(toggler, strategy="parallel-ja", workers=2).run()
        assert first.stats["pool"] == "ephemeral"
        assert first.stats["design_pickles"] == 1
        assert second.stats["design_pickles"] == 1  # a fresh pool each time


def _distinct_designs(count: int) -> list[TransitionSystem]:
    """``count`` small, pairwise different counters (2 to 4 bits)."""
    designs = [
        TransitionSystem(make(bits=bits, rval=rval))
        for bits in (2, 3, 4)
        for rval in range(1, 1 << bits)
        for make in (buggy_counter, fixed_counter)
    ]
    assert len(designs) >= count
    return designs[:count]


def _rotate(pool, designs, passes: int = 2) -> list[dict]:
    """Verify every design in turn, ``passes`` times: each pass's verdicts."""
    return [
        {
            index: {
                name: outcome.status
                for name, outcome in Session(ts, strategy="parallel-ja", pool=pool)
                .run()
                .outcomes.items()
            }
            for index, ts in enumerate(designs)
        }
        for _ in range(passes)
    ]


class TestDesignCache:
    def test_a_rotation_that_fits_ships_each_design_once(self):
        # A service cycling through 12 designs: every reuse hits both
        # the parent's payload cache and the seat's unpickled copy.
        designs = _distinct_designs(12)
        with WorkerPool(workers=1) as pool:
            _rotate(pool, designs)
            assert pool.stats["runs"] == 24
            assert pool.stats["design_pickles"] == 12
            assert pool.stats["design_ships"] == 12

    def test_a_rotation_past_the_cap_evicts_and_reships(self):
        # One design more than the cap: a cyclic LRU misses on every
        # reuse, so each run re-pickles and re-ships its design, and
        # the verdicts are still a fresh in-process run's.
        designs = _distinct_designs(DESIGN_CACHE_SIZE + 1)
        with WorkerPool(workers=1) as pool:
            first, second = _rotate(pool, designs)
            assert pool.stats["design_pickles"] == 2 * len(designs)
            assert pool.stats["design_ships"] == 2 * len(designs)
        fresh = {
            index: {
                name: outcome.status
                for name, outcome in Session(ts, strategy="ja").run().outcomes.items()
            }
            for index, ts in enumerate(designs)
        }
        assert first == second == fresh


class TestPoolLifecycle:
    def test_shutdown_is_idempotent_and_closes(self, toggler):
        pool = WorkerPool(workers=1)
        Session(toggler, strategy="parallel-ja", pool=pool).run()
        pool.shutdown()
        pool.shutdown()
        assert pool.closed
        with pytest.raises(RuntimeError):
            pool.start_missing_workers()

    def test_config_rejects_closed_pool(self, toggler):
        pool = WorkerPool(workers=1)
        pool.shutdown()
        with pytest.raises(ConfigError, match="shut down"):
            Session(toggler, strategy="parallel-ja", pool=pool)

    def test_config_rejects_non_pool(self, toggler):
        with pytest.raises(ConfigError, match="WorkerPool"):
            Session(toggler, strategy="parallel-ja", pool=object())

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)

    def test_atexit_sweep_covers_every_live_pool(self):
        from repro.parallel import shutdown_all_pools

        first = WorkerPool(workers=1)
        second = WorkerPool(workers=1)
        try:
            shutdown_all_pools()
            assert first.closed
            assert second.closed
        finally:
            shutdown_all_pools()


class TestSeatLeasing:
    """The multi-run protocol under the service's scheduler."""

    def test_two_runs_open_concurrently_and_route_messages(
        self, pool, toggler, counter4
    ):
        import queue as queue_mod

        from repro.parallel.worker import PropertyJob

        pool.start_missing_workers()
        first = pool.open_run(toggler, ProofOptions(clause_reuse=False))
        second = pool.open_run(counter4, ProofOptions(clause_reuse=False))
        assert pool.open_runs == [first, second]
        # Wait for every seat to ack both setups, then run one property
        # of each run on the same seat.
        acks = []
        while len(acks) < 2 * pool.workers:
            acks.append(pool.next_message(timeout=10.0))
        assert {(m[0], m[1]) for m in acks} == {
            ("ready", first), ("ready", second)
        }
        pool.assign(0, PropertyJob(name="never_q"), run_id=first)
        pool.assign(0, PropertyJob(name="P1"), run_id=second)
        outcomes = {}
        try:
            while len(outcomes) < 2:
                message = pool.next_message(timeout=30.0)
                if message[0] == "result":
                    outcomes[message[1]] = message[3]
        except queue_mod.Empty:  # pragma: no cover - diagnosis aid
            pytest.fail(f"only {list(outcomes)} of 2 results arrived")
        assert outcomes[first].name == "never_q"
        assert outcomes[first].status is PropStatus.FAILS
        assert outcomes[second].name == "P1"
        assert outcomes[second].status is PropStatus.HOLDS
        pool.close_run(first)
        pool.close_run(second)
        assert pool.open_runs == []

    def test_message_lease_is_exclusive(self, pool):
        owner, thief = object(), object()
        pool.acquire_messages(owner)
        pool.acquire_messages(owner)  # re-entrant for the same owner
        with pytest.raises(RuntimeError, match="consumed"):
            pool.acquire_messages(thief)
        pool.release_messages(thief)  # non-holder: no-op
        with pytest.raises(RuntimeError, match="consumed"):
            pool.acquire_messages(thief)
        pool.release_messages(owner)
        pool.acquire_messages(thief)
        pool.release_messages(thief)

    def test_assign_to_unopened_run_rejected(self, pool, toggler):
        from repro.parallel.worker import PropertyJob

        pool.start_missing_workers()
        run = pool.open_run(toggler, ProofOptions())
        with pytest.raises(RuntimeError, match="not open"):
            pool.assign(0, PropertyJob(name="never_q"), run_id=run + 1)
        pool.close_run(run)


class TestStopMarks:
    def test_a_seat_declines_a_job_at_or_below_its_mark(self, toggler):
        # The seat loop in-process: a plain queue for its control queue
        # and a list for the pool's marks, so the stream is exact.
        import pickle
        import queue
        import threading

        from repro.parallel.worker import PropertyJob, pool_worker_main

        ctrl, out = queue.Queue(), queue.Queue()
        ctrl.put(("run", 0, "digest", pickle.dumps(toggler), ProofOptions()))
        for seq in (7, 8):
            ctrl.put(("job", 0, PropertyJob(name="never_q"), seq, b""))
        ctrl.put(("stop",))
        pool_worker_main(0, ctrl, out, [7], threading.Event())
        messages = [out.get_nowait() for _ in range(out.qsize())]
        kinds = [m[0] for m in messages]
        # seq 7 is at the mark: declined before it emits anything.
        assert kinds[:2] == ["ready", "cancelled"] and messages[1][3] == "never_q"
        # seq 8 is past it: it runs, streams its events, and decides.
        assert "event" in kinds[2:-1] and kinds[-1] == "result"
        assert messages[-1][3].status is PropStatus.FAILS

    def test_stop_seat_never_lowers_a_mark(self, pool):
        pool.stop_seat(1, 9)
        pool.stop_seat(1, 4)  # an older attempt: the mark stays
        assert list(pool._stop_marks) == [0, 9]
        pool.stop_seat(1, 12)
        assert list(pool._stop_marks) == [0, 12]


def _signal_masks(pid: int) -> dict[str, int]:
    """``SigIgn`` and ``SigCgt`` of ``pid``, from its ``/proc`` status."""
    with open(f"/proc/{pid}/status") as status:
        fields = dict(line.split(":", 1) for line in status)
    return {key: int(fields[key], 16) for key in ("SigIgn", "SigCgt")}


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_a_seat_ignores_sigint_and_dies_on_sigterm(toggler):
    # A server holds default_int_handler for both while its pool forks.
    previous = {
        signum: signal.signal(signum, signal.default_int_handler)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        with WorkerPool(workers=1) as pool:
            # One finished job: the seat is past its loop's prologue.
            Session(toggler, strategy="parallel-ja", pool=pool).run()
            masks = _signal_masks(pool._slots[0].process.pid)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    sigint, sigterm = 1 << (signal.SIGINT - 1), 1 << (signal.SIGTERM - 1)
    assert masks["SigIgn"] & sigint and not masks["SigCgt"] & sigint
    assert not (masks["SigIgn"] | masks["SigCgt"]) & sigterm
