"""Worker-process side of the parallel JA engine (pool protocol).

Each worker process is a *persistent* pool member: it is spawned once
by :class:`~repro.parallel.pool.WorkerPool`, caches unpickled designs
by content hash across runs, and loops on its private FIFO control
queue.  One job = one property: the worker computes the paper's
``T^P`` projection for it
(:func:`repro.ts.projection.assumption_names`), calls
:func:`repro.multiprop.local.prove` — the same function sequential
``ja`` loops over — or, for a portfolio job,
:func:`repro.parallel.portfolio.race`, with the run's shipped
:class:`~repro.config.ProofOptions` and the run's clause database, and
reports the :class:`~repro.multiprop.report.PropOutcome` back on its
own output queue.

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
    reported idle, and may queue one more behind a busy worker's, so
    the worker starts it the moment it reports the first; the queue is
    FIFO, so a setup always precedes the run's jobs and a job's
    terminal message precedes the next job's first event.  A job
    without a slate is the local proof; a portfolio job's carries the
    engine slate, which the seat races in doubling slices
    (:func:`~repro.parallel.portfolio.race`) until one engine decides —
    the whole race is this one job.  ``seq`` is the job's pool-wide
    sequence number and ``marks[worker_id]`` the newest one this seat
    must not finish (:meth:`~repro.parallel.pool.WorkerPool.stop_seat`
    raises it): a job with ``seq <= mark`` is declined before it starts
    (reports ``cancelled``), and every budget of a running attempt
    gives up once ``seq <= mark``, so its engine stops at the next
    budget check and the job reports UNKNOWN.
    ``clauses`` is a :func:`~repro.parallel.exchange.pack_clauses`
    blob: the part of the job's clause log this seat has not received
    yet, which goes into the run's clause database before anything
    else happens to the job — even a declined one;
``("end", run_id)``
    the run is over; drop its cached state;
``("stop",)``
    shutdown sentinel.

Output messages (the seat's own output queue, worker -> parent), all
run-tagged so the parent can discard stragglers of finished runs.  No
other seat writes to that queue, so a seat that dies mid-``put`` —
holding the queue's write lock — silences only itself; with one worker
the whole stream is deterministic:

``("ready", run, worker)``
    the run setup was absorbed; jobs may follow;
``("event", run, worker, ProgressEvent)``
    a forwarded progress event from the verifier/engine stack;
``("result", run, worker, PropOutcome)``
    the verdict for one property (terminal for that job);
``("cancelled", run, worker, name)``
    the job was declined because the seat's stop mark had reached its
    ``seq`` before it started; sent before any ``event`` (terminal);
``("error", run, worker, name, message)``
    the verifier raised; the parent re-raises after the run (terminal).

Clause traffic: the worker keeps one private
:class:`~repro.multiprop.clausedb.ClauseDB` per run (fresh on every
setup, so runs never leak clauses into each other) that accumulates
its own local proofs — the sequential driver's Section 6 re-use, per
worker; a race only reads it — and everything the scheduler relays on
job messages: the proof cache's warm-start clauses and, with exchange
on, the invariants other seats proved for the same job.
``ClauseDB.add`` re-validates every relayed clause worker-side.
"""

from __future__ import annotations

import pickle
import queue as queue_mod
import signal
from collections import OrderedDict
from dataclasses import dataclass, field

from ..config import ProofOptions
from ..engines.certify import Certifier
from ..multiprop.clausedb import ClauseDB
from ..multiprop.cones import ConeMemo
from ..multiprop.local import prove
from ..progress import ProgressEvent
from ..ts.projection import assumption_names
from ..ts.system import TransitionSystem
from .exchange import unpack_clauses
from .pool import _lru_touch
from .portfolio import race

#: Poll interval while waiting for work (seconds).
_POLL_TIMEOUT = 0.1


@dataclass(frozen=True)
class PropertyJob:
    """One unit of work on a seat: one property's proof or race."""

    name: str
    #: The engines a portfolio job races, in slate order; ``None`` is
    #: the local proof (:func:`~repro.multiprop.local.prove`).
    slate: tuple[str, ...] | None = None
    #: The random walk's sub-seed (races only).
    seed: int | None = None


@dataclass
class _ActiveRun:
    """Worker-local state of one open run."""

    run_id: int
    ts: TransitionSystem
    options: ProofOptions
    #: The seat's cone memo, one per process, shared by all its runs.
    cones: ConeMemo = field(default_factory=ConeMemo)
    #: Relayed clauses plus this seat's own proofs; fresh per setup.
    db: ClauseDB = field(init=False)
    #: Certifies this seat's IC3 proofs of the run, races included.
    certifier: Certifier = field(init=False)

    def __post_init__(self) -> None:
        self.db = ClauseDB(self.ts)
        self.certifier = Certifier(self.ts, self.options.solver_backend)


def pool_worker_main(
    worker_id: int,
    ctrl_queue,
    out_queue,
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

    A seat process ignores SIGINT, since the parent owns shutdown, and
    dies on SIGTERM, which is what :meth:`WorkerPool.shutdown`'s
    ``terminate()`` sends: a forked seat would otherwise inherit a
    handler such as a server's ``default_int_handler`` and raise
    ``KeyboardInterrupt`` mid-proof.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # content hash -> design; same LRU policy and cap as the parent's
    # per-slot mirror, applied to the same ordered message stream, so
    # the two sides always agree on which hashes this worker holds.
    designs: "OrderedDict[str, TransitionSystem]" = OrderedDict()
    cones = ConeMemo()  # every COI proof of this seat, beside its designs
    runs: dict[int, _ActiveRun] = {}
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
            runs[run_id] = _ActiveRun(run_id=run_id, ts=ts, options=options, cones=cones)
            out_queue.put(("ready", run_id, worker_id))
            continue
        if kind == "end":
            runs.pop(message[1], None)
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
        if seq <= stop_marks[worker_id]:
            out_queue.put(("cancelled", run_id, worker_id, job.name))
            continue
        _execute(worker_id, run, job, seq, stop_marks, out_queue)


def _execute(
    worker_id, run: _ActiveRun, job: PropertyJob, seq: int, stop_marks, out_queue
) -> None:
    """Run one property job and report its terminal message.

    The job gives up (UNKNOWN) at its engine's next budget check once
    ``stop_marks[worker_id]`` reaches its ``seq``.
    """
    run_id = run.run_id

    def forward(event: ProgressEvent) -> None:
        out_queue.put(("event", run_id, worker_id, event))

    def stopped() -> bool:
        return seq <= stop_marks[worker_id]

    try:
        if job.slate is None:
            outcome, _ = prove(
                run.ts,
                job.name,
                assumption_names(run.ts, job.name),
                run.options,
                run.db,  # accumulates across this worker's jobs
                forward,
                budget=run.options.budget(stopped),
                certifier=run.certifier,
                cones=run.cones,
            )
        else:
            outcome = race(
                run.ts,
                job.name,
                job.slate,
                run.options,
                run.db,
                forward,
                seed=job.seed or 0,
                stop=stopped,
                certifier=run.certifier,
                cones=run.cones,
            )
        out_queue.put(("result", run_id, worker_id, outcome))
    except Exception as exc:  # noqa: BLE001 - forwarded to the parent
        out_queue.put(
            ("error", run_id, worker_id, job.name, f"{type(exc).__name__}: {exc}")
        )
