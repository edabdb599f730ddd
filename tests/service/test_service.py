"""VerificationService contracts: submit/handle/stream/result, jobs
interleaved over one shared pool, back-pressure, cancellation, and the
Session facade as a thin wrapper over a private single-job service."""

from __future__ import annotations

import threading

import pytest

from repro.engines.result import PropStatus
from repro.gen.counter import buggy_counter
from repro.parallel import WorkerPool
from repro.progress import (
    JobFinished,
    JobQueued,
    JobStarted,
    ServiceSaturated,
    format_event,
)
from repro.service import JobStatus, QueueFull, VerificationService
from repro.session import (
    ConfigError,
    Session,
    UnknownStrategyError,
    VerificationConfig,
    register_strategy,
    unregister_strategy,
)
from repro.ts.system import TransitionSystem


def verdicts(report):
    return {name: o.status for name, o in report.outcomes.items()}


class TestSubmitBasics:
    def test_threaded_job_matches_session(self, counter4):
        expected = verdicts(Session(counter4, strategy="ja").run())
        with VerificationService() as service:
            handle = service.submit(counter4, strategy="ja")
            report = handle.result(timeout=60)
        assert verdicts(report) == expected
        assert handle.status is JobStatus.DONE
        assert handle.done.done()
        assert handle.done.result() is report

    def test_pooled_job_matches_session(self, counter4):
        expected = verdicts(Session(counter4, strategy="parallel-ja",
                                    workers=2).run())
        with VerificationService(workers=2) as service:
            handle = service.submit(counter4, strategy="parallel-ja")
            report = handle.result(timeout=60)
        assert verdicts(report) == expected
        assert report.stats["pool"] == "ephemeral"

    def test_job_lifecycle_events_in_order(self, toggler):
        events = []
        with VerificationService(workers=1) as service:
            handle = service.submit(
                toggler, strategy="parallel-ja", on_event=events.append
            )
            handle.result(timeout=60)
        kinds = [type(e) for e in events]
        assert kinds.index(JobQueued) < kinds.index(JobStarted)
        assert isinstance(events[-1], JobFinished)
        assert events[-1].status == "done"
        started = next(e for e in events if isinstance(e, JobStarted))
        assert started.mode == "pool"
        assert started.job == handle.job_id

    def test_events_stream_ends_on_job_finished(self, toggler):
        with VerificationService(workers=1) as service:
            handle = service.submit(toggler, strategy="parallel-ja")
            streamed = list(handle.events())
        assert isinstance(streamed[-1], JobFinished)
        solved = [e for e in streamed if e.kind == "property-solved"]
        assert {e.name for e in solved} <= {"never_r", "never_q"}

    def test_job_ids_are_sequential(self, toggler):
        with VerificationService() as service:
            first = service.submit(toggler, strategy="ja")
            second = service.submit(toggler, strategy="ja")
            assert [first.job_id, second.job_id] == ["job-0", "job-1"]
            service.drain(timeout=60)

    def test_unknown_strategy_rejected_at_submit(self, toggler):
        with VerificationService() as service:
            with pytest.raises(UnknownStrategyError):
                service.submit(toggler, strategy="nope")

    def test_bad_config_rejected_at_submit(self, toggler):
        with VerificationService() as service:
            with pytest.raises(ConfigError):
                service.submit(
                    toggler, VerificationConfig(strategy="ja", priority=-1)
                )
            with pytest.raises(ValueError):
                service.submit(toggler, strategy="ja", priority=0.0)

    def test_submit_after_close_rejected(self, toggler):
        service = VerificationService()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(toggler, strategy="ja")

    def test_raising_subscriber_fails_the_job_not_the_service(self, toggler):
        """A subscriber blowing up (BrokenPipeError from a print under
        ``| head`` is the classic) must resolve the job's future with
        the error — never hang the caller or kill the dispatcher."""

        def explode(event):
            # The pipe "closes" after admission: JobQueued (emitted on
            # the submitting thread) still succeeds, later events blow.
            if event.kind != "job-queued":
                raise BrokenPipeError(32, "Broken pipe")

        with VerificationService(workers=1) as service:
            threaded = service.submit(toggler, strategy="ja",
                                      on_event=explode)
            with pytest.raises(BrokenPipeError):
                threaded.result(timeout=60)
            assert threaded.status is JobStatus.FAILED
            pooled = service.submit(toggler, strategy="parallel-ja",
                                    on_event=explode)
            with pytest.raises(BrokenPipeError):
                pooled.result(timeout=60)
            # The dispatcher survived: the service still serves jobs.
            healthy = service.submit(toggler, strategy="parallel-ja")
            assert healthy.result(timeout=60).outcomes[
                "never_r"
            ].status is PropStatus.HOLDS

    def test_strategy_error_reraises_at_result(self, toggler):
        @register_strategy("service-exploder")
        class Exploding:
            """Always raises."""

            def run(self, ts, config, emit):
                raise RuntimeError("boom")

        try:
            with VerificationService() as service:
                handle = service.submit(toggler, strategy="service-exploder")
                with pytest.raises(RuntimeError, match="boom"):
                    handle.result(timeout=60)
                assert handle.status is JobStatus.FAILED
        finally:
            unregister_strategy("service-exploder")


class TestConcurrentJobs:
    def test_four_concurrent_jobs_match_serial_sessions(self):
        """The acceptance bar: 4 concurrent submits over one shared
        2-worker pool, verdicts identical to serial Session.run()."""
        designs = [
            TransitionSystem(buggy_counter(bits=3)),
            TransitionSystem(buggy_counter(bits=4)),
            TransitionSystem(buggy_counter(bits=3)),
            TransitionSystem(buggy_counter(bits=4)),
        ]
        expected = [
            verdicts(Session(ts, strategy="parallel-ja", workers=2).run())
            for ts in designs
        ]
        with VerificationService(workers=2, max_concurrent_jobs=4) as service:
            handles = [
                service.submit(ts, strategy="parallel-ja") for ts in designs
            ]
            reports = [handle.result(timeout=120) for handle in handles]
        assert [verdicts(r) for r in reports] == expected
        assert all(h.status is JobStatus.DONE for h in handles)

    def test_jobs_share_one_pool_and_design_cache(self, counter4):
        with VerificationService(workers=2, max_concurrent_jobs=4) as service:
            handles = [
                service.submit(counter4, strategy="parallel-ja")
                for _ in range(4)
            ]
            for handle in handles:
                handle.result(timeout=120)
            counters = service.stats().pool.counters
        # One design object: pickled once, 4 runs, seats spawned once.
        assert counters["runs"] == 4
        assert counters["design_pickles"] == 1
        assert counters["workers_spawned"] == 2

    def test_mixed_pooled_and_threaded_jobs(self, counter4, toggler):
        with VerificationService(workers=2, max_concurrent_jobs=4) as service:
            pooled = service.submit(counter4, strategy="parallel-ja")
            threaded = service.submit(toggler, strategy="separate")
            assert verdicts(pooled.result(timeout=120)) == verdicts(
                Session(counter4, strategy="parallel-ja", workers=2).run()
            )
            assert verdicts(threaded.result(timeout=120)) == verdicts(
                Session(toggler, strategy="separate").run()
            )

    def test_attached_pool_is_left_running(self, toggler):
        with WorkerPool(workers=2) as pool:
            service = VerificationService(pool)
            handle = service.submit(toggler, strategy="parallel-ja")
            handle.result(timeout=60)
            service.close()
            assert not pool.closed  # attached, not owned
            # The released pool serves the exclusive engine again.
            report = Session(toggler, strategy="parallel-ja", pool=pool).run()
            assert report.outcomes["never_r"].status is PropStatus.HOLDS

    def test_owned_pool_is_shut_down_on_close(self, toggler):
        service = VerificationService(workers=1)
        service.submit(toggler, strategy="parallel-ja").result(timeout=60)
        pool = service.pool
        service.close()
        assert pool is not None and pool.closed

    def test_engine_refused_while_service_holds_the_pool(self, toggler):
        with WorkerPool(workers=1) as pool:
            with VerificationService(pool) as service:
                service.submit(toggler, strategy="parallel-ja").result(
                    timeout=60
                )
                with pytest.raises(RuntimeError, match="consumed|Service"):
                    Session(toggler, strategy="parallel-ja", pool=pool).run()


class _Gate:
    """A registrable strategy blocked on an event (test scaffolding)."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()

    def run(self, ts, config, emit):
        self.entered.set()
        assert self.release.wait(timeout=60)
        from repro.multiprop.report import MultiPropReport

        return MultiPropReport(method="gated", design=config.design_name)


@pytest.fixture
def gate():
    # register_strategy instantiates the class; this test needs to hold
    # the instance (to open the gate), so it goes into the registry
    # directly — same slot, same cleanup.
    from repro.session.registry import _REGISTRY

    gate = _Gate()
    gate.name = "gated"
    _REGISTRY["gated"] = gate
    yield gate
    gate.release.set()
    unregister_strategy("gated")


class TestBackpressure:
    def test_queue_full_raises_and_emits_saturated(self, toggler, gate):
        events = []
        service = VerificationService(
            max_concurrent_jobs=1, max_pending=1, on_event=events.append
        )
        try:
            running = service.submit(toggler, strategy="gated")
            assert gate.entered.wait(timeout=30)
            queued = service.submit(toggler, strategy="gated")
            with pytest.raises(QueueFull) as info:
                service.submit(toggler, strategy="gated", block=False)
            assert info.value.pending == 1
            assert any(isinstance(e, ServiceSaturated) for e in events)
            with pytest.raises(QueueFull):
                service.submit(
                    toggler, strategy="gated", block=True, timeout=0.05
                )
            gate.release.set()
            running.result(timeout=60)
            queued.result(timeout=60)
        finally:
            gate.release.set()
            service.close()

    def test_blocking_submit_proceeds_when_space_frees(self, toggler, gate):
        service = VerificationService(max_concurrent_jobs=1, max_pending=1)
        try:
            service.submit(toggler, strategy="gated")
            assert gate.entered.wait(timeout=30)
            queued = service.submit(toggler, strategy="gated")
            releaser = threading.Timer(0.2, gate.release.set)
            releaser.start()
            # Blocks until the running job finishes and the queue drains.
            third = service.submit(toggler, strategy="gated", timeout=30)
            third.result(timeout=60)
            queued.result(timeout=60)
        finally:
            gate.release.set()
            service.close()


class TestCancellation:
    def test_cancel_queued_job_never_runs(self, toggler, counter4, gate):
        service = VerificationService(max_concurrent_jobs=1, max_pending=4)
        try:
            service.submit(toggler, strategy="gated")
            assert gate.entered.wait(timeout=30)
            queued = service.submit(counter4, strategy="ja")
            assert queued.cancel() is True
            assert queued.status is JobStatus.CANCELLED
            report = queued.result(timeout=60)
            assert all(
                o.status is PropStatus.UNKNOWN for o in report.outcomes.values()
            )
            assert set(report.outcomes) == {"P0", "P1"}
            gate.release.set()
        finally:
            gate.release.set()
            service.close()

    @pytest.mark.parametrize(
        "strategy, local", [("ja", True), ("separate", False), ("joint", False)]
    )
    def test_cancelled_in_queue_reports_the_strategys_scope(
        self, toggler, counter4, gate, strategy, local
    ):
        service = VerificationService(max_concurrent_jobs=1, max_pending=4)
        try:
            service.submit(toggler, strategy="gated")
            assert gate.entered.wait(timeout=30)
            queued = service.submit(counter4, strategy=strategy)
            assert queued.cancel() is True
            report = queued.result(timeout=60)
            assert report.method == strategy
            assert {o.local for o in report.outcomes.values()} == {local}
        finally:
            gate.release.set()
            service.close()

    def test_cancel_terminal_job_returns_false(self, toggler):
        with VerificationService() as service:
            handle = service.submit(toggler, strategy="ja")
            handle.result(timeout=60)
            assert handle.cancel() is False

    def test_cancel_running_threaded_job_returns_false(self, toggler, gate):
        service = VerificationService()
        try:
            handle = service.submit(toggler, strategy="gated")
            assert gate.entered.wait(timeout=30)
            assert handle.cancel() is False
            gate.release.set()
            handle.result(timeout=60)
            assert handle.status is JobStatus.DONE
        finally:
            gate.release.set()
            service.close()

    def test_cancel_running_pooled_job_spares_siblings(self, counter4):
        """Cancelling one pooled job never perturbs its siblings."""
        expected = verdicts(
            Session(counter4, strategy="parallel-ja", workers=2).run()
        )
        victim_ts = TransitionSystem(buggy_counter(bits=6))
        with VerificationService(workers=2, max_concurrent_jobs=4) as service:
            victim = service.submit(victim_ts, strategy="parallel-ja")
            siblings = [
                service.submit(counter4, strategy="parallel-ja")
                for _ in range(2)
            ]
            victim.cancel()
            reports = [s.result(timeout=120) for s in siblings]
            victim.result(timeout=120)  # resolves either way
        assert victim.status in (JobStatus.CANCELLED, JobStatus.DONE)
        for sibling, report in zip(siblings, reports):
            assert sibling.status is JobStatus.DONE
            assert verdicts(report) == expected

    def test_close_cancels_the_pending_queue(self, toggler, counter4, gate):
        service = VerificationService(max_concurrent_jobs=1, max_pending=4)
        running = service.submit(toggler, strategy="gated")
        assert gate.entered.wait(timeout=30)
        queued = service.submit(counter4, strategy="ja")
        gate.release.set()
        service.close()
        assert running.status is JobStatus.DONE
        assert queued.status is JobStatus.CANCELLED
        assert all(
            o.status is PropStatus.UNKNOWN
            for o in queued.result(timeout=5).outcomes.values()
        )


class TestSessionIsAThinWrapper:
    def test_session_stream_carries_job_lifecycle(self, counter4):
        events = []
        Session(counter4, strategy="ja", on_event=events.append).run()
        kinds = [e.kind for e in events]
        assert kinds[0] == "run-started"
        assert kinds[-1] == "run-finished"
        assert kinds.count("job-queued") == 1
        assert kinds.count("job-started") == 1
        assert kinds.count("job-finished") == 1
        assert kinds.index("run-started") < kinds.index("job-queued")
        assert kinds.index("job-finished") < kinds.index("run-finished")

    def test_new_events_format(self):
        assert "job-queued" in format_event(
            JobQueued(job="job-0", design="d", strategy="ja", priority=2.0)
        )
        assert "pool" in format_event(
            JobStarted(job="job-0", design="d", strategy="parallel-ja",
                       mode="pool")
        )
        assert "done" in format_event(
            JobFinished(job="job-0", status="done", total_time=1.0,
                        num_true=1, num_false=0, num_unknown=0)
        )
        assert "2/2" in format_event(ServiceSaturated(pending=2, limit=2))
