"""Structured introspection for :class:`VerificationService`.

:class:`ServiceStats` is the one-call answer to "what is the service
doing right now": admission-queue depth and slot occupancy, the shared
pool's :class:`~repro.parallel.PoolStats` (per-seat liveness, crash
streaks and backoff timers), clause-exchange traffic, and one
:class:`JobStats` per retained job (queued, running, or among the
last finished) with its queue-wait and run latency.  Snapshots are
taken on the dispatcher thread (so seat assignments are read
race-free) and returned as frozen records;
:meth:`ServiceStats.as_dict` is the JSON form served by ``GET /stats``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..parallel.stats import PoolStats

__all__ = ["JobStats", "ServiceStats", "latency_summary"]


def _percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def latency_summary(jobs: tuple["JobStats", ...]) -> dict:
    """Median/max queue-wait and run latency across ``jobs``.

    Waits count every job (a queued job's wait is still growing); run
    latency counts only jobs that actually started.
    """
    waits = [job.wait_s for job in jobs]
    runs = [job.run_s for job in jobs if job.started]
    return {
        "wait_p50_s": _percentile(waits, 0.5) if waits else 0.0,
        "wait_max_s": max(waits) if waits else 0.0,
        "run_p50_s": _percentile(runs, 0.5) if runs else 0.0,
        "run_max_s": max(runs) if runs else 0.0,
    }


@dataclass(frozen=True)
class JobStats:
    """One submitted job's lifecycle timing at one instant.

    ``wait_s`` is submission-to-start (still growing while queued);
    ``run_s`` is start-to-finish (still growing while running, ``0.0``
    for a job that never started, e.g. cancelled in the queue).
    """

    job: str
    design: str
    strategy: str
    status: str  # JobStatus value: queued/running/done/failed/cancelled
    kind: str  # "pool" | "thread"
    priority: float
    started: bool
    wait_s: float
    run_s: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ServiceStats:
    """The whole service at one instant.

    ``pool`` is ``None`` until the first pooled job creates the shared
    pool; ``exchange`` is ``None`` until a scheduler exists (totals
    since the scheduler opened, plus a ``live`` row per exchanging
    job still running).  ``submitted`` and ``finished`` count every job
    since the service opened; ``jobs`` lists only the retained ones.
    """

    pending: int
    running: int
    finished: int
    submitted: int
    max_concurrent_jobs: int
    max_pending: int
    jobs: tuple[JobStats, ...]
    latency: dict
    pool: PoolStats | None = None
    exchange: dict | None = None
    #: Aggregated proof-cache counters (hits/misses/certify_rejects and
    #: store sizes) across every cache_dir jobs have attached; ``None``
    #: while no job has used the cross-run cache.
    cache: dict | None = None

    def as_dict(self) -> dict:
        out = {
            "pending": self.pending,
            "running": self.running,
            "submitted": self.submitted,
            "max_concurrent_jobs": self.max_concurrent_jobs,
            "max_pending": self.max_pending,
            "jobs": {
                "pending": self.pending,
                "running": self.running,
                "finished": self.finished,
                "submitted": self.submitted,
                "records": [job.as_dict() for job in self.jobs],
            },
            "latency": dict(self.latency),
            "exchange": self.exchange,
        }
        if self.pool is not None:
            out["pool"] = self.pool.as_dict()
        if self.cache is not None:
            out["cache"] = dict(self.cache)
        return out
