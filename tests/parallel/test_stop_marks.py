"""Stop marks: the parent stops one running attempt on one seat.

A seat's engines ask ``seq <= marks[worker_id]`` at every budget check
(``seq`` is the job message's pool-wide sequence number), so a stopped
attempt gives up UNKNOWN within one check.  The ``_execute`` tests run
the seat's job body in-process and set the mark from the attempt's own
event stream, at a chosen BMC depth — deterministic, no wall clock.
"""

from __future__ import annotations

import pytest

from repro.config import ProofOptions
from repro.engines.result import PropStatus
from repro.gen.counter import buggy_counter
from repro.parallel import WorkerPool
from repro.parallel.worker import PropertyJob, _ActiveRun, _execute
from repro.progress import FrameAdvanced
from repro.ts.system import TransitionSystem

SEQ = 7  # the attempt's sequence number in every in-process test


class _Outbox(list):
    """A seat's out-queue that can stop the attempt at a BMC depth."""

    def __init__(self, marks, stop_at_frame=None) -> None:
        super().__init__()
        self.marks = marks
        self.stop_at_frame = stop_at_frame

    def put(self, message) -> None:
        self.append(message)
        event = message[3] if message[0] == "event" else None
        if isinstance(event, FrameAdvanced) and event.frame == self.stop_at_frame:
            self.marks[0] = SEQ  # what WorkerPool.stop_seat(0, SEQ) writes

    def result(self):
        (terminal,) = [m for m in self if m[0] != "event"]
        assert terminal[0] == "result", terminal
        return terminal[3]

    def frames_advanced(self) -> list[int]:
        return [m[3].frame for m in self if isinstance(m[3], FrameAdvanced)]


def _attempt(ts, name, engine, marks, outbox, max_frames=500):
    """``engine`` alone as a race's slate; ``None`` is the local proof."""
    run = _ActiveRun(run_id=1, ts=ts, options=ProofOptions(max_frames=max_frames))
    slate = None if engine is None else (engine,)
    _execute(0, run, PropertyJob(name=name, slate=slate, seed=3), SEQ, marks, outbox)
    return outbox.result()


class TestAStoppedBmcGivesUpWithinOneCheck:
    def test_a_mark_set_mid_run_stops_bmc_before_depth_256(self, toggler):
        # never_r is true: left alone, BMC unrolls all 256 depths.
        marks = [0]
        outbox = _Outbox(marks, stop_at_frame=5)
        outcome = _attempt(toggler, "never_r", "bmc", marks, outbox, max_frames=256)
        assert outcome.status is PropStatus.UNKNOWN
        # Depth 5 was searched, then the next depth's budget check saw
        # the mark: not one more SAT query.
        assert outcome.frames == 5
        assert outbox.frames_advanced() == [1, 2, 3, 4, 5]

    def test_an_unset_mark_lets_bmc_run_its_course(self, toggler):
        marks = [0]
        outbox = _Outbox(marks)
        outcome = _attempt(toggler, "never_r", "bmc", marks, outbox, max_frames=256)
        assert outcome.status is PropStatus.UNKNOWN
        assert outcome.frames == 256
        assert outbox.frames_advanced() == list(range(1, 257))


@pytest.mark.parametrize("engine", ["rw", "bmc", "kind", None])
class TestEveryEngineHonoursItsMark:
    """never_q fails at depth 2, which every engine finds at once — so an
    UNKNOWN can only come from the mark."""

    def test_a_set_mark_stops_the_attempt(self, toggler, engine):
        marks = [SEQ]
        outcome = _attempt(toggler, "never_q", engine, marks, _Outbox(marks))
        assert outcome.status is PropStatus.UNKNOWN

    def test_a_mark_holding_an_old_seq_does_not_stop_the_next_attempt(
        self, toggler, engine
    ):
        marks = [SEQ - 1]  # the seat's previous attempt was stopped
        outcome = _attempt(toggler, "never_q", engine, marks, _Outbox(marks))
        assert outcome.status is PropStatus.FAILS
        assert outcome.cex_depth == 2


def test_a_real_seat_stops_on_its_mark_also_after_a_respawn():
    # counter6's P1 is true; its BMC to depth 256 takes most of a second
    # on one core, so an attempt stopped at its first event cannot have
    # finished it.  P0 fails at depth 1.
    ts = TransitionSystem(buggy_counter(bits=6))

    def terminal(pool):
        while True:
            message = pool.next_message(timeout=60.0)
            if message[0] not in ("ready", "event"):
                return message

    def wait_for(pool, kind):
        while pool.next_message(timeout=60.0)[0] != kind:
            pass

    with WorkerPool(workers=1) as pool:
        pool.start_missing_workers()
        run = pool.open_run(ts, ProofOptions(max_frames=256))
        wait_for(pool, "ready")
        for respawned in (False, True):
            if respawned:
                victim = pool._slots[0].process
                victim.terminate()
                victim.join()
                assert pool.respawn_workers([0]) == [0]
                pool.attach_worker(run, 0)
                wait_for(pool, "ready")
            seq = pool.assign(0, PropertyJob(name="P1", slate=("bmc",)), run_id=run)
            # Stopped once it runs: marked any earlier, the seat would
            # decline it unstarted.
            wait_for(pool, "event")
            pool.stop_seat(0, seq)
            kind, _, _, outcome = terminal(pool)
            assert kind == "result"
            assert outcome.status is PropStatus.UNKNOWN and outcome.frames < 256
            # The stopped attempt's mark does not touch the next one.
            pool.assign(0, PropertyJob(name="P0", slate=("bmc",)), run_id=run)
            kind, _, _, outcome = terminal(pool)
            assert kind == "result" and outcome.status is PropStatus.FAILS
        pool.close_run(run)


def test_a_cancelled_race_stops_on_its_seat():
    # A user's cancel reaches the race on the one seat through its stop
    # mark: the BMC-only race on counter6's true P1, cancelled at its
    # first depth, reports UNKNOWN long before depth 256.
    from repro.service import JobStatus, VerificationService

    ts = TransitionSystem(buggy_counter(bits=6))
    handles: list = []

    def cancel_at_first_depth(event) -> None:
        if isinstance(event, FrameAdvanced) and handles:
            handles[0].cancel()

    with VerificationService(workers=1) as service:
        handles.append(
            service.submit(
                ts,
                strategy="portfolio",
                portfolio_engines="bmc",
                order=["P1"],
                max_frames=256,
                on_event=cancel_at_first_depth,
            )
        )
        report = handles[0].result(timeout=60)
    assert handles[0].status is JobStatus.CANCELLED
    outcome = report.outcomes["P1"]
    assert outcome.status is PropStatus.UNKNOWN
    assert 1 <= outcome.frames < 256
