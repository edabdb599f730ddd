"""Typed progress events streamed by engines and drivers.

Every verification layer (the IC3/BMC engines, the multi-property
drivers, the :class:`repro.session.Session` facade) reports progress by
calling an ``emit`` callback with one of the frozen dataclasses below.
The callback signature is ``Callable[[ProgressEvent], None]``; ``None``
everywhere means "stay silent", so engines pay nothing when nobody
listens.

The event vocabulary mirrors what the paper's tables measure:

* :class:`PropertyStarted` / :class:`PropertySolved` — exactly one
  ``PropertySolved`` per property verdict (local or global);
  ``PropertyStarted`` brackets each unit of engine work, which in
  joint verification is the *aggregate* property, so one started
  aggregate may yield several individual verdicts;
* :class:`FrameAdvanced` — an engine unfolded one more frame (IC3) or
  one more unrolling depth (BMC);
* :class:`ClauseImport` / :class:`ClauseExport` — clauseDB traffic, the
  Section 6 re-use optimization made observable;
* :class:`BudgetCheckpoint` — resource usage at a known-safe point,
  the hook for external schedulers to preempt or re-balance work;
* :class:`ClusterStarted` — the structural baseline opened a group;
* :class:`WorkerStarted` / :class:`PoolAttached` /
  :class:`PropertyCancelled` — the process-parallel engine spawned a
  worker, attached a run to its (possibly persistent) pool, or
  abandoned a queued property after early cancellation (the property
  still gets its UNKNOWN :class:`PropertySolved`, preserving the
  one-verdict-per-property invariant);
* :class:`AttemptStarted` / :class:`PortfolioDecided` — a portfolio
  race gave one engine its first slice, or reached its verdict
  (winning engine + wall-clock) for one property;
  :class:`AttemptCancelled` is no longer emitted and stays for wire
  compatibility only;
* :class:`JobQueued` / :class:`JobStarted` / :class:`JobFinished` /
  :class:`ServiceSaturated` — the job-oriented
  :class:`~repro.service.VerificationService` admitted, started or
  finished one submitted job, or refused admission because its bounded
  queue is full (back-pressure made observable); every
  ``Session.run`` is one such job, so ``JobQueued`` opens its stream
  and ``JobFinished`` closes it, also when the strategy raises;
* :class:`StatsSnapshot` — a periodic sample of the service's
  introspection surface (pool occupancy, seat backoff state, queue
  depth, latencies), emitted by ``VerificationService.emit_stats``;
* :class:`CacheHit` — a property short-circuited from the cross-run
  proof cache after its stored witness re-passed certification.

This module deliberately has no imports from the rest of the package so
that every layer can use it without import cycles; the classes are
re-exported by :mod:`repro.session`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import ClassVar

__all__ = [
    "ProgressEvent",
    "PropertyStarted",
    "PropertySolved",
    "FrameAdvanced",
    "ClauseImport",
    "ClauseExport",
    "BudgetCheckpoint",
    "ClusterStarted",
    "WorkerStarted",
    "PoolAttached",
    "PropertyCancelled",
    "PropertyRequeued",
    "AttemptStarted",
    "AttemptCancelled",
    "PortfolioDecided",
    "JobQueued",
    "JobStarted",
    "JobFinished",
    "ServiceSaturated",
    "StatsSnapshot",
    "CacheHit",
    "Emit",
    "null_emit",
    "emit_or_null",
    "format_event",
]


@dataclass(frozen=True)
class ProgressEvent:
    """Base class of every progress event."""

    kind: ClassVar[str] = "event"


@dataclass(frozen=True)
class PropertyStarted(ProgressEvent):
    """A driver started working on one property (or aggregate)."""

    kind: ClassVar[str] = "property-started"
    name: str
    assumed: tuple[str, ...] = ()


@dataclass(frozen=True)
class PropertySolved(ProgressEvent):
    """A final verdict was recorded for one property.

    ``status`` is the ``repro.engines.result.PropStatus`` value (typed
    loosely here to keep this module dependency-free).
    """

    kind: ClassVar[str] = "property-solved"
    name: str
    status: object
    local: bool
    time_seconds: float = 0.0
    cex_depth: int | None = None
    assumed: tuple[str, ...] = ()


@dataclass(frozen=True)
class FrameAdvanced(ProgressEvent):
    """An engine unfolded one more frame while checking ``name``."""

    kind: ClassVar[str] = "frame-advanced"
    name: str
    frame: int


@dataclass(frozen=True)
class ClauseImport(ProgressEvent):
    """An engine initialized its frames with clauseDB seed clauses."""

    kind: ClassVar[str] = "clause-import"
    name: str
    count: int


@dataclass(frozen=True)
class ClauseExport(ProgressEvent):
    """A driver exported strengthening clauses into the clauseDB."""

    kind: ClassVar[str] = "clause-export"
    name: str
    count: int


@dataclass(frozen=True)
class BudgetCheckpoint(ProgressEvent):
    """Resource usage at a preemption-safe point.

    ``scope`` is a property name for per-property budgets or ``"total"``
    for the whole run; ``conflicts`` is ``None`` when only wall-clock is
    tracked.
    """

    kind: ClassVar[str] = "budget-checkpoint"
    scope: str
    elapsed: float
    conflicts: int | None = None


@dataclass(frozen=True)
class ClusterStarted(ProgressEvent):
    """The clustered driver opened one property group."""

    kind: ClassVar[str] = "cluster-started"
    members: tuple[str, ...]


@dataclass(frozen=True)
class WorkerStarted(ProgressEvent):
    """The parallel engine launched one worker process."""

    kind: ClassVar[str] = "worker-started"
    worker: int


@dataclass(frozen=True)
class PoolAttached(ProgressEvent):
    """A parallel run attached to its worker pool.

    Emitted once per run, after any :class:`WorkerStarted` events for
    newly spawned (or crash-replaced) workers.  ``persistent`` is True
    when the pool outlives the service running the job — it was handed
    in (``VerificationConfig.pool``), not created by that service;
    ``runs`` counts the batches the pool completed before this one, so
    a warm server-style pool shows ``runs > 0``.
    """

    kind: ClassVar[str] = "pool-attached"
    workers: int
    persistent: bool
    runs: int = 0


@dataclass(frozen=True)
class PropertyCancelled(ProgressEvent):
    """A queued property was abandoned by early cancellation.

    Emitted when the total budget expired or the user cancelled: for
    each attempt still in the job's backlog (``worker`` is ``None``)
    and for a queued attempt its seat declined unstarted because the
    seat's stop mark had reached it (``worker`` is that seat).  Always
    followed by an UNKNOWN :class:`PropertySolved` for ``name``.
    """

    kind: ClassVar[str] = "property-cancelled"
    name: str
    worker: int | None = None


@dataclass(frozen=True)
class PropertyRequeued(ProgressEvent):
    """A crashed worker's claimed job was re-dispatched to the pool.

    Each job is retried at most once; a second crash on the same
    property reports it UNKNOWN like any other degraded outcome.
    ``worker`` is the worker that crashed while holding the job
    (``None`` when the holder could not be attributed).
    """

    kind: ClassVar[str] = "property-requeued"
    name: str
    worker: int | None = None


@dataclass(frozen=True)
class AttemptStarted(ProgressEvent):
    """A portfolio race gave one engine its first slice on one property.

    The seat emits it once per engine that actually ran, however many
    slices it got; the canonical :class:`PropertyStarted` still
    brackets the race as a whole, so the one-started-one-solved
    invariant per property is preserved.
    """

    kind: ClassVar[str] = "attempt-started"
    name: str
    engine: str
    worker: int | None = None


@dataclass(frozen=True)
class AttemptCancelled(ProgressEvent):
    """Kept for wire compatibility only: nothing emits it any more.

    It announced a losing portfolio attempt cancelled after its race
    was decided.  A race now runs whole on one seat and stops at its
    first definitive verdict, so there is no loser to cancel; the
    class and its codec entry stay until the wire format is next
    bumped.
    """

    kind: ClassVar[str] = "attempt-cancelled"
    name: str
    engine: str
    worker: int | None = None
    latency_s: float | None = None


@dataclass(frozen=True)
class PortfolioDecided(ProgressEvent):
    """A per-property engine race reached its verdict.

    ``winner`` names the engine whose verdict was kept (``None`` when
    every engine left the rotation with UNKNOWN and the race was
    decided by exhaustion); ``status`` is the ``PropStatus`` value,
    typed loosely to keep this module dependency-free; ``wall_s`` is
    the race's wall-clock on its seat; ``losers`` are the other engines
    that got a slice.  Emitted just before the race's
    :class:`PropertySolved`.
    """

    kind: ClassVar[str] = "portfolio-decided"
    name: str
    winner: str | None
    status: object
    wall_s: float = 0.0
    losers: tuple[str, ...] = ()


@dataclass(frozen=True)
class JobQueued(ProgressEvent):
    """A submitted job was admitted to the service's pending queue."""

    kind: ClassVar[str] = "job-queued"
    job: str
    design: str
    strategy: str
    priority: float = 1.0


@dataclass(frozen=True)
class JobStarted(ProgressEvent):
    """A queued job began executing.

    ``mode`` is ``"pool"`` when the job's properties are multiplexed
    onto shared worker seats (process-parallel strategies) and
    ``"thread"`` when the whole strategy runs on a service thread
    (sequential strategies).
    """

    kind: ClassVar[str] = "job-started"
    job: str
    design: str
    strategy: str
    mode: str = "thread"


@dataclass(frozen=True)
class JobFinished(ProgressEvent):
    """A job reached a terminal state.

    ``status`` is the :class:`~repro.service.JobStatus` value name in
    lower case (``"done"``, ``"failed"``, ``"cancelled"``), typed
    loosely to keep this module dependency-free.
    """

    kind: ClassVar[str] = "job-finished"
    job: str
    status: str
    total_time: float = 0.0
    num_true: int = 0
    num_false: int = 0
    num_unknown: int = 0


@dataclass(frozen=True)
class ServiceSaturated(ProgressEvent):
    """A submit found the service's bounded admission queue full.

    Emitted once per refused/blocked submission attempt; ``pending`` is
    the queue depth at that moment and ``limit`` its bound.  Blocking
    submitters wait for space after this event; non-blocking ones
    receive :class:`~repro.service.QueueFull`.
    """

    kind: ClassVar[str] = "service-saturated"
    pending: int
    limit: int


@dataclass(frozen=True)
class StatsSnapshot(ProgressEvent):
    """A periodic service introspection sample.

    ``stats`` is the ``as_dict()`` form of
    :class:`~repro.service.ServiceStats` (typed loosely to keep this
    module dependency-free): pool occupancy, per-seat crash/backoff
    state, admission-queue depth, clause-exchange traffic and
    per-job wait/run latency.  Emitted by
    :meth:`~repro.service.VerificationService.emit_stats` — e.g. on the
    ``repro serve --stats-interval`` polling loop.
    """

    kind: ClassVar[str] = "stats-snapshot"
    stats: dict


@dataclass(frozen=True)
class CacheHit(ProgressEvent):
    """A property's verdict was served from the cross-run proof cache.

    Emitted *after* the stored witness re-passed certification against
    the design actually being verified (``certify_invariant`` for
    HOLDS, ``certify_cex`` for FAILS) — a cache hit is never reported
    on trust alone.  ``status`` is the ``PropStatus`` value, typed
    loosely to keep this module dependency-free; ``exact_design`` is
    True when the stored verdict came from a byte-identical design and
    False for a cone-level hit on an edited design (the incremental
    re-verification path).
    """

    kind: ClassVar[str] = "cache-hit"
    name: str
    status: object
    exact_design: bool = True
    frames: int = 0


Emit = Callable[[ProgressEvent], None]


def null_emit(event: ProgressEvent) -> None:
    """The no-listener sink: drivers default to this when ``emit`` is None."""


def emit_or_null(emit: Emit | None) -> Emit:
    """Normalize an optional callback to a callable."""
    return emit if emit is not None else null_emit


def format_event(event: ProgressEvent) -> str:
    """One-line human rendering (used by ``--progress`` and examples)."""
    if isinstance(event, PropertyStarted):
        assumed = f" assuming {list(event.assumed)}" if event.assumed else ""
        return f"[{event.kind}] {event.name}{assumed}"
    if isinstance(event, PropertySolved):
        scope = "locally" if event.local else "globally"
        depth = f", cex depth {event.cex_depth}" if event.cex_depth else ""
        return (
            f"[{event.kind}] {event.name}: {event.status} {scope}"
            f"{depth} ({event.time_seconds:.3f}s)"
        )
    if isinstance(event, FrameAdvanced):
        return f"[{event.kind}] {event.name}: frame {event.frame}"
    if isinstance(event, (ClauseImport, ClauseExport)):
        return f"[{event.kind}] {event.name}: {event.count} clauses"
    if isinstance(event, BudgetCheckpoint):
        conflicts = (
            f", {event.conflicts} conflicts" if event.conflicts is not None else ""
        )
        return f"[{event.kind}] {event.scope}: {event.elapsed:.3f}s{conflicts}"
    if isinstance(event, ClusterStarted):
        return f"[{event.kind}] {{{', '.join(event.members)}}}"
    if isinstance(event, WorkerStarted):
        return f"[{event.kind}] worker {event.worker}"
    if isinstance(event, PoolAttached):
        mode = "persistent" if event.persistent else "ephemeral"
        return (
            f"[{event.kind}] {event.workers} workers ({mode}, "
            f"{event.runs} prior runs)"
        )
    if isinstance(event, PropertyCancelled):
        by = f" (worker {event.worker})" if event.worker is not None else ""
        return f"[{event.kind}] {event.name}{by}"
    if isinstance(event, PropertyRequeued):
        by = f" (worker {event.worker} crashed)" if event.worker is not None else ""
        return f"[{event.kind}] {event.name}{by}"
    if isinstance(event, AttemptStarted):
        by = f" (worker {event.worker})" if event.worker is not None else ""
        return f"[{event.kind}] {event.name}: {event.engine}{by}"
    if isinstance(event, AttemptCancelled):
        latency = (
            f" after {event.latency_s:.3f}s"
            if event.latency_s is not None
            else ""
        )
        return f"[{event.kind}] {event.name}: {event.engine}{latency}"
    if isinstance(event, PortfolioDecided):
        winner = event.winner or "exhausted"
        losers = f" over {list(event.losers)}" if event.losers else ""
        return (
            f"[{event.kind}] {event.name}: {event.status} by {winner}"
            f"{losers} in {event.wall_s:.3f}s"
        )
    if isinstance(event, JobQueued):
        return (
            f"[{event.kind}] {event.job}: {event.strategy} on {event.design} "
            f"(priority {event.priority:g})"
        )
    if isinstance(event, JobStarted):
        return (
            f"[{event.kind}] {event.job}: {event.strategy} on {event.design} "
            f"({event.mode})"
        )
    if isinstance(event, JobFinished):
        return (
            f"[{event.kind}] {event.job}: {event.status} — "
            f"{event.num_false} false, {event.num_true} true, "
            f"{event.num_unknown} unknown in {event.total_time:.2f}s"
        )
    if isinstance(event, ServiceSaturated):
        return f"[{event.kind}] {event.pending}/{event.limit} jobs pending"
    if isinstance(event, CacheHit):
        scope = "exact design" if event.exact_design else "unchanged cone"
        return (
            f"[{event.kind}] {event.name}: {event.status} "
            f"({scope}, certified, frames={event.frames})"
        )
    if isinstance(event, StatsSnapshot):
        stats = event.stats
        # A snapshot decoded off the wire may carry anything here.
        pool = stats.get("pool")
        pool = pool if isinstance(pool, dict) else {}
        jobs = stats.get("jobs")
        jobs = jobs if isinstance(jobs, dict) else {}
        occupancy = (
            f"{pool.get('busy', 0)}/{pool.get('alive', 0)} seats busy"
            if pool
            else "no pool"
        )
        return (
            f"[{event.kind}] {occupancy}, "
            f"{jobs.get('pending', 0)} pending / "
            f"{jobs.get('running', 0)} running / "
            f"{jobs.get('finished', 0)} finished jobs"
        )
    return f"[{event.kind}] {event!r}"
