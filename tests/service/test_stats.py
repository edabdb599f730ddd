"""The service's structured stats surface (ServiceStats / PoolStats).

Covers the introspection half of the hardening work: occupancy and
queue-depth fields, per-job wait/run latency, per-seat crash/backoff
state, exchange traffic, the StatsSnapshot broadcast, and the
dict-compatible reads that keep pre-stats callers working.
"""

from __future__ import annotations

from repro.parallel.stats import PoolStats, SeatStats
from repro.progress import StatsSnapshot, format_event
from repro.service import JobStats, ServiceStats, VerificationService
from repro.service.stats import latency_summary


class TestIdleService:
    def test_fresh_service_has_empty_stats_and_no_pool(self):
        with VerificationService(workers=1) as service:
            stats = service.stats()
            assert isinstance(stats, ServiceStats)
            assert stats.pending == 0
            assert stats.running == 0
            assert stats.finished == 0
            assert stats.submitted == 0
            assert stats.pool is None and stats.exchange is None
            assert stats.jobs == ()
            assert stats.latency["wait_max_s"] == 0.0
            as_dict = stats.as_dict()
            assert as_dict["pending"] == 0
            assert "pool" not in as_dict
            assert as_dict["jobs"]["records"] == []
            assert as_dict["max_pending"] == service.max_pending


class TestStatsAfterJobs:
    def test_threaded_jobs_report_latency_and_terminal_status(self, toggler):
        with VerificationService(max_concurrent_jobs=2) as service:
            handles = [
                service.submit(toggler, strategy="separate") for _ in range(2)
            ]
            for handle in handles:
                handle.result(timeout=120)
            stats = service.stats()
        assert stats.submitted == 2 and stats.finished == 2
        assert stats.running == 0 and stats.pending == 0
        for job in stats.jobs:
            assert isinstance(job, JobStats)
            assert job.status == "done" and job.kind == "thread"
            assert job.started
            assert job.wait_s >= 0.0 and job.run_s > 0.0
        assert stats.latency["run_max_s"] >= stats.latency["run_p50_s"] > 0.0

    def test_pooled_jobs_expose_pool_seats_and_exchange(self, toggler):
        with VerificationService(workers=2, max_concurrent_jobs=2) as service:
            service.submit(toggler, strategy="parallel-ja").result(timeout=120)
            stats = service.stats()
            pool = stats.pool
            assert isinstance(pool, PoolStats)
            assert pool.counters["runs"] == 1
            # The JSON form splices the counters in at the top level.
            assert stats.as_dict()["pool"]["workers_spawned"] == 2
            assert pool.workers == 2
            # Settled: every seat alive and idle, none still busy.
            assert pool.alive == 2 and pool.busy == 0 and pool.idle == 2
            assert len(pool.seats) == 2
            for seat in pool.seats:
                assert isinstance(seat, SeatStats)
                assert seat.crashes == 0
                assert seat.backoff_s == 0.0 and seat.respawn_in_s == 0.0
            assert sum(seat.properties_served for seat in pool.seats) == len(
                toggler.properties
            )
            assert stats.exchange is not None
            assert stats.exchange["clauses"] >= 0
            assert stats.exchange["live"] == []
            (job,) = stats.jobs
            assert job.kind == "pool" and job.status == "done"

    def test_queued_job_wait_is_still_growing(self, toggler):
        # A never-started job's wait clock runs until it is finalized.
        with VerificationService(max_concurrent_jobs=1) as service:
            blocker = service.submit(toggler, strategy="separate")
            queued = service.submit(toggler, strategy="separate")
            stats = service.stats()
            queued_stats = [j for j in stats.jobs if j.job == queued.job_id]
            if queued_stats and not queued_stats[0].started:
                assert queued_stats[0].run_s == 0.0
                assert queued_stats[0].wait_s >= 0.0
            blocker.result(timeout=120)
            queued.result(timeout=120)


class TestStatsSnapshotEvent:
    def test_emit_stats_broadcasts_a_snapshot(self, toggler):
        events = []
        with VerificationService(workers=1, on_event=events.append) as service:
            service.submit(toggler, strategy="parallel-ja").result(timeout=120)
            returned = service.emit_stats()
        snapshots = [e for e in events if isinstance(e, StatsSnapshot)]
        assert len(snapshots) == 1
        payload = snapshots[0].stats
        assert payload == returned.as_dict()
        assert payload["jobs"]["finished"] == 1
        assert payload["pool"]["alive"] >= 0
        line = format_event(snapshots[0])
        assert line.startswith("[stats-snapshot]")
        assert "1 finished jobs" in line

    def test_snapshot_renders_without_a_pool(self):
        line = format_event(StatsSnapshot(stats={}))
        assert "no pool" in line


class TestLatencySummary:
    def test_percentiles_over_job_records(self):
        def job(wait, run, started=True):
            return JobStats(
                job="j",
                design="d",
                strategy="s",
                status="done" if started else "queued",
                kind="thread",
                priority=1.0,
                started=started,
                wait_s=wait,
                run_s=run,
            )

        summary = latency_summary(
            (job(1.0, 10.0), job(3.0, 30.0), job(2.0, 0.0, started=False))
        )
        assert summary["wait_max_s"] == 3.0
        assert summary["wait_p50_s"] == 2.0
        # The never-started job contributes no run sample.
        assert summary["run_max_s"] == 30.0
        assert summary["run_p50_s"] in (10.0, 30.0)
        empty = latency_summary(())
        assert set(empty) == {
            "wait_p50_s",
            "wait_max_s",
            "run_p50_s",
            "run_max_s",
        }
        assert all(value == 0.0 for value in empty.values())
