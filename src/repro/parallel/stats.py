"""Structured introspection records for the pool/scheduler layer.

The crash-recovery rework made seat state genuinely dynamic — a seat
can be alive, busy, crashed-and-waiting-out-its-backoff, or freshly
revived — and a long-lived :class:`~repro.service.VerificationService`
needs to *show* that state, not just act on it.  These frozen records
are the wire-free snapshot format: :class:`SeatStats` describes one
seat (liveness, current assignment, crash/backoff bookkeeping),
:class:`PoolStats` one whole pool at one instant (occupancy plus the
pool's lifetime counters).  ``as_dict()`` is the JSON shape: the
pool's counter keys (``runs``, ``design_pickles``, ``design_ships``,
``workers_spawned``, ...) sit at the top level next to the occupancy.

Snapshots are built by :meth:`SeatScheduler.stats` (full seat detail)
or :meth:`PoolStats.from_pool` (a bare pool with no scheduler — seat
liveness only), and embedded into the service-level
:class:`~repro.service.ServiceStats`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["SeatStats", "PoolStats"]


@dataclass(frozen=True)
class SeatStats:
    """One worker seat at one instant.

    ``crashes`` counts every crash the observing scheduler attributed
    to this seat; ``consecutive_crashes`` only those since the seat
    last served a full property (the backoff input — it resets on
    healthy service).  ``backoff_s`` is the delay the current crash
    earned and ``respawn_in_s`` how much of it is still to run; both
    are ``0.0`` for a live seat.
    """

    worker: int
    alive: bool
    busy: bool
    job: str | None = None  # job id of the property it is executing
    prop: str | None = None
    crashes: int = 0
    consecutive_crashes: int = 0
    backoff_s: float = 0.0
    respawn_in_s: float = 0.0
    properties_served: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PoolStats:
    """Occupancy and per-seat state of one pool at one instant.

    ``counters`` is the pool's lifetime ``stats`` dict (runs opened,
    designs pickled/shipped/cached, workers spawned/replaced); ``as_dict``
    splices it in at the top level.
    """

    workers: int
    alive: int
    busy: int
    idle: int
    open_runs: int
    seats: tuple[SeatStats, ...]
    counters: dict

    @classmethod
    def from_pool(cls, pool) -> "PoolStats":
        """A scheduler-less snapshot: liveness only, no assignments."""
        seats = tuple(
            SeatStats(worker=worker_id, alive=pool.worker_alive(worker_id), busy=False)
            for worker_id in range(pool.workers)
        )
        alive = sum(1 for seat in seats if seat.alive)
        return cls(
            workers=pool.workers,
            alive=alive,
            busy=0,
            idle=alive,
            open_runs=len(pool.open_runs),
            seats=seats,
            counters=dict(pool.stats),
        )

    def as_dict(self) -> dict:
        return {
            **self.counters,
            "workers": self.workers,
            "alive": self.alive,
            "busy": self.busy,
            "idle": self.idle,
            "open_runs": self.open_runs,
            "seats": [seat.as_dict() for seat in self.seats],
        }
