"""Worker-process side of the parallel JA engine (pool protocol).

Each worker process is a *persistent* pool member: it is spawned once
by :class:`~repro.parallel.pool.WorkerPool`, caches unpickled designs
by content hash across runs, and loops on its private FIFO control
queue.  One job = one property: the worker computes the paper's
``T^P`` projection for it
(:func:`repro.ts.projection.assumption_names`), calls
:func:`repro.multiprop.local.prove` — the same function sequential
``ja`` loops over — with the run's shipped
:class:`~repro.config.ProofOptions` and the run's clause database, and
reports the :class:`~repro.multiprop.report.PropOutcome` back on the
output queue.

Control messages (private queue, parent -> worker):

``("run", run_id, design_hash, payload-or-None, options)``
    a new run: the pickled design ships only when this worker has not
    cached the hash yet; the worker builds the run's fresh clause
    database and acknowledges with ``ready``.  Several runs may be live
    at once — the worker keeps one state record per open run and serves
    whichever run each job message names, which is what lets a
    :class:`~repro.service.VerificationService` interleave many jobs'
    properties on one seat;
``("job", run_id, PropertyJob, seq, clauses)``
    one attempt on one property.  Scheduling is parent-side: the
    scheduler assigns the next backlog job to whichever worker
    reported idle, so the queue is FIFO and a setup always precedes
    the run's jobs.  The job's ``engine`` selects the checker:
    ``None``/``"ic3"`` is the local proof; ``"bmc"``, ``"kind"`` and
    ``"rw"`` run the matching single engine under the same local
    (``T^P``) semantics.  A seat executes a job the same
    way whichever engine it names and whichever strategy queued it: a
    portfolio job's races share one run, and the worker neither knows
    nor cares that the attempts it is handed compete — who won is
    decided parent-side.  ``seq`` is the job's pool-wide sequence
    number: every budget the attempt creates also asks
    ``marks[worker_id] == seq`` of the pool's shared stop marks, so
    once the parent stops the seat (a decided race's loser,
    :meth:`~repro.parallel.pool.WorkerPool.stop_seat`) the engine gives
    up at its next budget check and the job reports UNKNOWN.
    ``clauses`` is a :func:`~repro.parallel.exchange.pack_clauses`
    blob: the part of the job's clause log this seat has not received
    yet, which goes into the run's clause database before anything
    else happens to the job — even a declined one;
``("cancel", run_id)``
    decline (report ``cancelled``) any later job of that run — the
    per-run complement of the pool-wide cancel epoch.  Sent for a
    cancelled *job* (user cancel, watchdog, stop on first failure —
    all parent-side decisions), which a running job outlives: its
    verdict still counts.  A decided race sends nothing here: its
    queued losers are dropped parent-side and a running one is
    stopped through its mark;
``("end", run_id)``
    the run is over; drop its cached state;
``("stop",)``
    shutdown sentinel.

Output messages (shared queue, worker -> parent), all run-tagged so
the parent can discard stragglers of finished runs — and, with one
worker, the whole stream is deterministic:

``("ready", run, worker)``
    the run setup was absorbed; jobs may follow;
``("event", run, worker, ProgressEvent)``
    a forwarded progress event from the verifier/engine stack;
``("result", run, worker, PropOutcome)``
    the verdict for one property (terminal for that job);
``("cancelled", run, worker, name)``
    the job was declined because the run's cancel epoch was raised
    before it started (terminal);
``("error", run, worker, name, message)``
    the verifier raised; the parent re-raises after the run (terminal).

Clause traffic: the worker keeps one private
:class:`~repro.multiprop.clausedb.ClauseDB` per run (fresh on every
setup, so runs never leak clauses into each other) that accumulates
its own proofs — the sequential driver's Section 6 re-use, per worker —
and everything the scheduler relays on job messages: the proof cache's
warm-start clauses and, with exchange on, the invariants other seats
proved for the same job.  ``ClauseDB.add`` re-validates every relayed
clause worker-side.
"""

from __future__ import annotations

import pickle
import queue as queue_mod
from collections import OrderedDict
from dataclasses import dataclass, field

from ..config import ProofOptions
from ..engines.bmc import bmc_check
from ..engines.kinduction import kinduction_check
from ..engines.randomwalk import randomwalk_check
from ..engines.result import EngineResult
from ..multiprop.clausedb import ClauseDB
from ..multiprop.local import outcome_of, prove
from ..multiprop.report import PropOutcome
from ..progress import ProgressEvent, PropertyStarted
from ..ts.projection import assumption_names
from ..ts.system import TransitionSystem
from .exchange import unpack_clauses
from .pool import _lru_touch

#: Poll interval while waiting for work (seconds).
_POLL_TIMEOUT = 0.1


@dataclass(frozen=True)
class PropertyJob:
    """One unit of work on a seat: one engine's attempt on one property."""

    name: str
    #: Which checker to run: ``None``/``"ic3"`` -> the local proof;
    #: ``"bmc"``/``"kind"``/``"rw"`` -> that single engine under local
    #: semantics (portfolio attempts).
    engine: str | None = None
    #: Sub-seed for stochastic engines (``"rw"``); ignored otherwise.
    seed: int | None = None


@dataclass
class _ActiveRun:
    """Worker-local state of one open run."""

    run_id: int
    ts: TransitionSystem
    options: ProofOptions
    #: Relayed clauses plus this seat's own proofs; fresh per setup.
    db: ClauseDB = field(init=False)

    def __post_init__(self) -> None:
        self.db = ClauseDB(self.ts)


def pool_worker_main(
    worker_id: int,
    ctrl_queue,
    out_queue,
    cancel_epoch,
    stop_marks,
    stop_event,
) -> None:
    """Worker loop: absorb run setups, execute assigned jobs, repeat.

    The loop polls its private control queue so it stays alive while
    idle — that is what lets the parent hand a crashed sibling's job to
    this worker arbitrarily late in a run, and what lets the *next* run
    reuse this process without respawning it.  Exit happens on the
    ``("stop",)`` sentinel or the pool-wide stop event.  The loop never
    raises: verifier exceptions become ``error`` messages so the parent
    can account for the job and keep the pool alive.
    """
    # content hash -> design; same LRU policy and cap as the parent's
    # per-slot mirror, applied to the same ordered message stream, so
    # the two sides always agree on which hashes this worker holds.
    designs: "OrderedDict[str, TransitionSystem]" = OrderedDict()
    runs: dict[int, _ActiveRun] = {}
    cancelled: set = set()
    while True:
        try:
            message = ctrl_queue.get(timeout=_POLL_TIMEOUT)
        except queue_mod.Empty:
            if stop_event.is_set():
                break
            continue
        kind = message[0]
        if kind == "stop":
            break
        if kind == "run":
            _, run_id, digest, payload, options = message
            if payload is not None and digest not in designs:
                designs[digest] = pickle.loads(payload)
            ts = designs.get(digest)
            if ts is None:  # pragma: no cover - defensive: cache out of sync
                out_queue.put(
                    ("error", run_id, worker_id, "<setup>", "design payload missing")
                )
                continue
            _lru_touch(designs, digest, ts)
            runs[run_id] = _ActiveRun(run_id=run_id, ts=ts, options=options)
            out_queue.put(("ready", run_id, worker_id))
            continue
        if kind == "cancel":
            cancelled.add(message[1])
            continue
        if kind == "end":
            runs.pop(message[1], None)
            cancelled.discard(message[1])
            continue
        if kind != "job":  # pragma: no cover - defensive: protocol drift
            # An unknown control tag means the parent and this worker
            # disagree about the wire protocol; drop it rather than
            # mis-unpack it as a job.
            continue
        _, run_id, job, seq, clauses = message
        run = runs.get(run_id)
        if run is None:
            # A job of a run this worker never set up: impossible on the
            # FIFO queue unless the run is long gone — drop it.
            continue
        # The parent counts these clauses as delivered to this seat, so
        # they are absorbed even when the job itself is declined.
        run.db.add_all(unpack_clauses(clauses))
        if run_id <= cancel_epoch.value or run_id in cancelled:
            out_queue.put(("cancelled", run_id, worker_id, job.name))
            continue
        _execute(worker_id, run, job, seq, stop_marks, out_queue)


def _execute(
    worker_id, run: _ActiveRun, job: PropertyJob, seq: int, stop_marks, out_queue
) -> None:
    """Run one property job and report its terminal message.

    The job gives up (UNKNOWN) at its engine's next budget check once
    ``stop_marks[worker_id]`` holds its ``seq``.
    """
    run_id = run.run_id

    def forward(event: ProgressEvent) -> None:
        out_queue.put(("event", run_id, worker_id, event))

    def stopped() -> bool:
        return stop_marks[worker_id] == seq

    try:
        if job.engine not in (None, "ic3"):
            outcome = _run_attempt(run, job, forward, stopped)
        else:
            outcome, _ = prove(
                run.ts,
                job.name,
                assumption_names(run.ts, job.name),
                run.options,
                run.db,  # accumulates across this worker's jobs
                forward,
                stop=stopped,
            )
            outcome.engine = job.engine
        out_queue.put(("result", run_id, worker_id, outcome))
    except Exception as exc:  # noqa: BLE001 - forwarded to the parent
        out_queue.put(
            ("error", run_id, worker_id, job.name, f"{type(exc).__name__}: {exc}")
        )


def _run_attempt(run: _ActiveRun, job: PropertyJob, emit, stop) -> PropOutcome:
    """Run one non-IC3 engine attempt under local (``T^P``) semantics.

    BMC and k-induction pin the assumed properties on every frame
    strictly before the frame under test, and the random walk abandons
    any trace where an assumed property fails before the target — so a
    FAILS from any of them is a *local* counterexample by construction,
    exactly the verdict the local proof's ladder would certify.
    """
    options = run.options
    assumed = assumption_names(run.ts, job.name)
    budget = options.budget(stop)
    emit(PropertyStarted(name=job.name, assumed=tuple(assumed)))
    result: EngineResult
    if job.engine == "bmc":
        result = bmc_check(
            run.ts,
            job.name,
            max_depth=min(options.max_frames, 256),
            assumed=assumed,
            budget=budget,
            emit=emit,
            solver_backend=options.solver_backend,
        )
    elif job.engine == "kind":
        result = kinduction_check(
            run.ts,
            job.name,
            max_k=min(options.max_frames, 64),
            assumed=assumed,
            budget=budget,
            solver_backend=options.solver_backend,
        )
    elif job.engine == "rw":
        result = randomwalk_check(
            run.ts,
            job.name,
            seed=job.seed if job.seed is not None else 0,
            assumed=assumed,
            budget=budget,
            emit=emit,
        )
    else:
        raise ValueError(f"unknown attempt engine {job.engine!r}")
    return outcome_of(run.ts, result, engine=job.engine)
