"""Crash re-dispatch and size-aware dispatch of the parallel engine.

The crash tests replace the pool worker entry point with wrappers that
``os._exit`` at controlled points (fork start method only: the patched
function must be inherited by the child).  A file marker gates the
surviving worker so the crash always wins the race for the first job,
and makes the crash a one-off — the seat's respawn runs the real worker
— making the scenarios deterministic.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.engines.result import PropStatus
from repro.gen.counter import buggy_counter
from repro.parallel import parallel_ja_verify
from repro.parallel import engine as engine_mod
from repro.parallel import worker as worker_mod
from repro.parallel.worker import pool_worker_main  # real entry, pre-patch
from repro.session import VerificationConfig
from repro.progress import PropertyRequeued
from repro.ts.system import TransitionSystem

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash injection requires the fork start method",
)


def _crash_on_first_job(marker: str):
    """Worker 0 absorbs its setup, takes its first job, then dies — once.

    The parent assigned the job, so the crash loses work it must
    recover; the sibling workers wait for the marker so worker 0 is
    guaranteed to be the first to ack — and therefore the first to be
    fed a job.
    """

    def entry(worker_id, ctrl_queue, out_queue, stop_marks, stop_event):
        import time

        if worker_id == 0 and not os.path.exists(marker):
            while True:
                message = ctrl_queue.get(timeout=10)
                if message[0] == "run":
                    out_queue.put(("ready", message[1], worker_id))
                elif message[0] == "job":
                    # Flush the feeder thread so the ready ack reached
                    # the parent before this process dies.
                    out_queue.close()
                    out_queue.join_thread()
                    with open(marker, "w"):
                        pass
                    os._exit(1)
        while not os.path.exists(marker):
            time.sleep(0.01)
        pool_worker_main(worker_id, ctrl_queue, out_queue, stop_marks, stop_event)

    return entry


def _crash_before_ready(marker: str):
    """Worker 0 dies before even acknowledging the run setup — once."""

    def entry(worker_id, ctrl_queue, out_queue, stop_marks, stop_event):
        import time

        if worker_id == 0 and not os.path.exists(marker):
            ctrl_queue.get(timeout=10)  # swallow the setup, say nothing
            with open(marker, "w"):
                pass
            os._exit(1)
        while not os.path.exists(marker):
            time.sleep(0.01)
        pool_worker_main(worker_id, ctrl_queue, out_queue, stop_marks, stop_event)

    return entry


@pytest.mark.slow
@needs_fork
class TestCrashRedispatch:
    def test_assigned_job_is_retried_on_a_survivor(
        self, toggler, tmp_path, monkeypatch
    ):
        marker = str(tmp_path / "crashed")
        monkeypatch.setattr(
            worker_mod, "pool_worker_main", _crash_on_first_job(marker)
        )
        events = []
        report = parallel_ja_verify(
            toggler,
            VerificationConfig(workers=2),
            emit=events.append,
        )
        # The crashed worker's job was recovered: no UNKNOWN verdicts.
        assert report.outcomes["never_r"].status is PropStatus.HOLDS
        assert report.outcomes["never_q"].status is PropStatus.FAILS
        assert report.stats["worker_crashes"] == 1
        assert report.stats["redispatched"] == 1
        requeued = [e for e in events if isinstance(e, PropertyRequeued)]
        assert len(requeued) == 1
        # Assignment is parent-side, so attribution is exact.
        assert requeued[0].worker == 0

    def test_only_seat_dying_once_keeps_the_verdicts(
        self, toggler, tmp_path, monkeypatch
    ):
        # A one-shot run revives its seats like a service does: with no
        # survivor to take the lost attempt, the seat's respawn does.
        marker = str(tmp_path / "crashed")
        monkeypatch.setattr(
            worker_mod, "pool_worker_main", _crash_on_first_job(marker)
        )
        report = parallel_ja_verify(toggler, VerificationConfig(workers=1))
        assert report.outcomes["never_r"].status is PropStatus.HOLDS
        assert report.outcomes["never_q"].status is PropStatus.FAILS
        assert report.stats["worker_crashes"] == 1
        assert report.stats["redispatched"] == 1

    def test_worker_dead_before_ack_does_not_stall_the_run(
        self, toggler, tmp_path, monkeypatch
    ):
        marker = str(tmp_path / "crashed")
        monkeypatch.setattr(
            worker_mod, "pool_worker_main", _crash_before_ready(marker)
        )
        report = parallel_ja_verify(
            toggler, VerificationConfig(workers=2)
        )
        # The dead worker never held a job, so nothing was lost: the
        # run terminates with full verdicts instead of hanging.
        assert report.outcomes["never_r"].status is PropStatus.HOLDS
        assert report.outcomes["never_q"].status is PropStatus.FAILS
        assert report.stats["worker_crashes"] == 0
        assert report.stats["redispatched"] == 0

    def test_all_workers_dead_degrades_to_unknown(
        self, toggler, tmp_path, monkeypatch
    ):
        def die_immediately(worker_id, ctrl_queue, out_queue, stop_marks,
                            stop_event):
            os._exit(1)

        # Every respawn dies too: after CRASH_LOOP crashes in a row on
        # each seat the job stops waiting for them.
        monkeypatch.setattr(worker_mod, "pool_worker_main", die_immediately)
        report = parallel_ja_verify(
            toggler, VerificationConfig(workers=2)
        )
        assert all(
            o.status is PropStatus.UNKNOWN for o in report.outcomes.values()
        )
        assert report.stats["cancelled"] == len(toggler.properties)


class TestSizeAwareDispatch:
    def test_orders_by_descending_cone_size(self):
        ts = TransitionSystem(buggy_counter(bits=4))
        order = [p.name for p in ts.properties]
        dispatch = engine_mod._cone_descending(ts, order)
        def cone(name):
            _, latches = ts.aig.cone_of_influence([ts.prop_by_name[name].lit])
            return len(latches)
        sizes = [cone(n) for n in dispatch]
        assert sizes == sorted(sizes, reverse=True)
        assert sorted(dispatch) == sorted(order)

    def test_ties_keep_the_requested_order(self, toggler):
        order = [p.name for p in toggler.properties]
        assert engine_mod._cone_descending(toggler, order) == order

    def test_report_keeps_property_order(self):
        ts = TransitionSystem(buggy_counter(bits=4))
        report = parallel_ja_verify(ts, VerificationConfig(workers=1))
        assert list(report.outcomes) == [p.name for p in ts.properties]
        assert report.stats["dispatch"] == "cone-desc"

    def test_explicit_order_wins_over_size_dispatch(self, toggler):
        report = parallel_ja_verify(
            toggler,
            VerificationConfig(workers=1, order=["never_q", "never_r"]),
        )
        assert list(report.outcomes) == ["never_q", "never_r"]
        assert report.stats["dispatch"] == "fifo"
