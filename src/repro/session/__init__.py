"""Unified session API: one facade over every verification strategy.

This package is the stable orchestration surface of the reproduction:
a :class:`Session` is constructed from a design (AIGER path,
:class:`~repro.circuit.aig.AIG`, or
:class:`~repro.ts.system.TransitionSystem`) plus one
:class:`VerificationConfig`; the strategy named by the config is
resolved through the registry and driven to a
:class:`~repro.multiprop.report.MultiPropReport`, streaming typed
:class:`~repro.progress.ProgressEvent` objects along the way::

    from repro.session import Session

    session = Session("design.aag", strategy="ja", on_event=print)
    report = session.run()
    print(report.debugging_set())

or, consuming events as an iterator::

    session = Session("design.aag", strategy="joint")
    for event in session.stream():
        print(event.kind, event)
    report = session.report

New strategies plug in without touching this package or the CLI::

    from repro.session import register_strategy

    @register_strategy("first-of-ja-joint")
    class FirstOfJaJoint:
        \"\"\"Races ja and joint, returns the first finisher.\"\"\"

        def run(self, ts, config, emit):
            ...

One options record
------------------

A knob is a :class:`VerificationConfig` field, and nothing else.  Every
driver (``ja_verify``, ``joint_verify``, ``separate_verify``,
``clustered_verify``, ``parallel_ja_verify``, ``portfolio_verify``)
has :meth:`Strategy.run`'s signature ``(ts, config, emit)`` and reads
the fields it acts on by name, so a value set on the run reaches every
method unchanged — the premise of the paper's one-axis-at-a-time
tables.  No driver runs another: ``joint`` and ``clustered`` share one
aggregate loop (:func:`~repro.multiprop.joint.verify_jointly`), ``ja``
and ``separate`` one per-property loop.  The one projection is
``config.proof_options()`` → :class:`~repro.config.ProofOptions`: the
frozen, picklable record :func:`~repro.multiprop.local.prove` reads,
and the only thing that crosses to a pool seat.

The SAT solver underneath every engine is one such knob:
``VerificationConfig.solver_backend`` names an entry of the
:mod:`repro.sat` backend registry (builtin: ``"cdcl"`` and
``"cdcl-compact"``; ``None`` defers to the ``REPRO_SAT_BACKEND``
environment variable, then ``"cdcl"``).  The name is validated at
session construction and switches the solver for an entire run,
``parallel-ja`` worker processes included::

    Session("design.aag", strategy="ja", solver_backend="cdcl-compact").run()

Process-parallel JA-verification
--------------------------------

``strategy="parallel-ja"`` runs one local-proof worker process per
property slot (paper Section 11) through
:mod:`repro.parallel`; its knobs live on the same config object:

``VerificationConfig.workers``
    worker processes (``None``: one per CPU, capped by #properties);
``VerificationConfig.exchange``
    live strengthening-clause exchange between workers: the scheduler
    logs each proof's invariant and relays it to the job's other
    seats on their next job message (only meaningful with
    ``clause_reuse``; off = Table X's independent-proof mode);
``VerificationConfig.pool``
    a persistent :class:`~repro.parallel.pool.WorkerPool` shared
    across ``Session.run()`` calls (workers and shipped designs are
    reused).

Worker progress events are merged into the session's normal event
channel; :class:`WorkerStarted`, :class:`PropertyCancelled` and
:class:`PropertyRequeued` (a crashed worker's job re-dispatched onto a
live seat or the seat's respawn) make the pool's lifecycle observable.  Jobs are dispatched
largest-estimated-cone-first unless the config pins an explicit
``order``.

Cross-run proof cache
---------------------

Two config fields connect any strategy to the content-addressed proof
store in :mod:`repro.cache`:

``VerificationConfig.cache_dir``
    directory of the on-disk :class:`~repro.cache.ProofStore`
    (``None``: no caching).  Before dispatch, properties whose
    COI-cone digest has a stored verdict are resolved from the store —
    each one re-certified against the *current* design
    (:func:`~repro.engines.certify.certify_invariant` /
    :func:`~repro.engines.certify.certify_cex`) and announced with a
    :class:`CacheHit` event; only the rest are proved.  Fresh verdicts
    and warm-start clauses are written back.  The design's warm clause
    log is the paper's external clauseDB (Sec. 7-B): with
    ``clause_reuse`` it seeds the clause DB of ``ja`` and ``separate``
    (one :class:`ClauseImport` named ``<warm-log>``) and of every seat
    of a pooled strategy;
``VerificationConfig.cache_mode``
    ``"readwrite"`` (default), ``"read"`` (serve hits and warm starts,
    never write), or ``"off"`` (ignore ``cache_dir`` entirely).

Cache-served outcomes carry ``engine == "cache"``; the report's
``stats`` gain a ``cache_hits`` count so tooling can tell a warm run
from a cold one.
"""

from ..progress import (
    BudgetCheckpoint,
    CacheHit,
    ClauseExport,
    ClauseImport,
    ClusterStarted,
    Emit,
    FrameAdvanced,
    JobFinished,
    JobQueued,
    JobStarted,
    ProgressEvent,
    PropertyCancelled,
    PropertyRequeued,
    PropertySolved,
    PropertyStarted,
    ServiceSaturated,
    WorkerStarted,
    format_event,
)
from ..config import ConfigError, VerificationConfig, resolve_order
from .core import Session, load_design
from .registry import (
    Strategy,
    UnknownStrategyError,
    available_strategies,
    get_strategy,
    register_strategy,
    unregister_strategy,
)

# Importing the module registers the built-in strategies.
from . import strategies as _builtin_strategies  # noqa: E402,F401

__all__ = [
    "Session",
    "VerificationConfig",
    "ConfigError",
    "resolve_order",
    "load_design",
    "Strategy",
    "UnknownStrategyError",
    "register_strategy",
    "unregister_strategy",
    "get_strategy",
    "available_strategies",
    "ProgressEvent",
    "PropertyStarted",
    "PropertySolved",
    "FrameAdvanced",
    "ClauseImport",
    "ClauseExport",
    "BudgetCheckpoint",
    "CacheHit",
    "ClusterStarted",
    "WorkerStarted",
    "PropertyCancelled",
    "PropertyRequeued",
    "JobQueued",
    "JobStarted",
    "JobFinished",
    "ServiceSaturated",
    "Emit",
    "format_event",
]
