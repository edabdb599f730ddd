"""A persistent, reusable pool of JA-verification worker processes.

Spawning worker processes per run and shipping them the pickled design
is an O(design) setup cost on *every* ``Session.run()``, which
dominates server-style workloads that verify many small batches
against the same design.  :class:`WorkerPool` removes that cost:

* **Workers outlive runs.**  The pool spawns its processes once
  (lazily, on the first run) and keeps them polling their private
  control queues; successive runs reuse them via :meth:`open_run`.
* **Designs ship once.**  The parent pickles a design exactly once per
  content hash (``stats["design_pickles"]``, memoized by object
  identity so repeat runs do not even re-hash) and each worker caches
  the unpickled :class:`~repro.ts.system.TransitionSystem` by the same
  hash — the second run on a design sends only the hash
  (``stats["design_ships"]`` counts the payloads actually put on a
  seat's queue).  The seat's cached copy keeps its encoding templates
  and projected cones warm, so a design seen again is loaded, not
  re-encoded — as long as it is among the :data:`DESIGN_CACHE_SIZE`
  most recently used.
* **Runs are isolated.**  Every run gets a fresh run id; job, result
  and event messages are all tagged with it, workers rebuild their
  per-run clause databases on every ``open_run``, and the parent
  discards any straggler message from an earlier run — no clause or
  verdict leakage between runs.
* **Crashed workers are replaced.**  A crash costs the scheduler one
  bounded re-dispatch of the attempt the seat held, and the scheduler
  respawns the dead seat under its per-seat backoff through
  :meth:`respawn_workers` — mid-run, at the next admission or while
  idle, whichever comes first (``stats["workers_replaced"]``).

Queueing discipline: every seat has its **own two queues**, control
(parent -> seat) and output (seat -> parent), and the scheduling is
done parent-side (the scheduler assigns the next backlog job to
whichever worker reports idle, and may queue one more behind a busy
worker's), not through one shared task queue.  A shared queue is
fragile against exactly the failure this pool must survive: a process
killed while it holds the queue's lock — a reader blocked in
``Queue.get``, or a writer's feeder thread mid-``put`` — keeps that
lock forever and silences every sibling.  With private queues a dead
seat poisons only its own two channels, which :meth:`respawn_workers`
discards along with the seat; the parent reads the live ones together
(:func:`multiprocessing.connection.wait`), and always knows exactly
which jobs a dead worker held (the one it ran, the one queued behind
it), so crash attribution needs no claim protocol.  With one seat the
message stream is that seat's FIFO, so it stays deterministic.

Run protocol: **seat leasing.**  Any number of runs may be open
concurrently (:meth:`open_run`), each identified by its monotonically
increasing run id; the scheduler that drives them (the
``SeatScheduler`` of a :class:`repro.service.VerificationService`)
leases idle seats job-by-job via :meth:`assign` and routes the seats'
run-tagged messages itself.  Because one process may not have two
consumers of those queues, a scheduler must take the message lease
(:meth:`acquire_messages`) first.

Stopping work is per seat, through **stop marks**: one shared
``Array("q", workers)`` created with the pool and handed to every seat
it spawns or respawns (synchronization primitives cannot be shipped
through queues to already-running processes).  Each job message carries
a pool-wide sequence number, ``("job", run_id, job, seq, clauses)``, and
a seat's mark is the newest ``seq`` it must not finish: the seat
declines (reports ``cancelled``) a job with ``seq <= mark`` before
starting it, and a running attempt's engines give up — UNKNOWN, at
their next budget check — once its ``seq <= mark``.  :meth:`assign`
returns that ``seq`` and :meth:`stop_seat` raises the seat's mark to
the one it is given, never lowers it.  A seat receives its jobs in
``seq`` order and may already hold its *next* job in its queue (the
scheduler's lookahead), so the scheduler names the newest attempt it
means: a mark stops that attempt and every earlier one on the seat,
never a later one, and no reset is needed.

Construct pools explicitly and pass them around
(``VerificationConfig(pool=WorkerPool(...))``); a pool is a context manager, every
live pool is shut down at interpreter exit (an ``atexit`` hook walks a
weak registry, so no seat process ever outlives the interpreter), and
:meth:`shutdown` is idempotent.  A one-shot run with no pool supplied
gets a private one of its own, shut down with the run.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import queue as queue_mod
import time
import weakref
from collections import OrderedDict, deque
from multiprocessing.connection import wait

from ..cache.hashing import payload_digest
from ..multiprop.cones import DESIGN_CACHE_SIZE
from ..ts.system import TransitionSystem


#: How seats are started: ``fork`` where the platform has it (a seat
#: inherits the imported package instead of re-importing it), else
#: ``spawn``.
START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"

#: Every live pool, weakly held, so interpreter exit can sweep seat
#: processes even for pools the caller forgot to shut down.
_live_pools: "weakref.WeakSet" = weakref.WeakSet()


def _lru_touch(cache: "OrderedDict", key, value) -> None:
    """Insert/refresh ``key`` and evict the stalest beyond the cap."""
    cache[key] = value
    cache.move_to_end(key)
    while len(cache) > DESIGN_CACHE_SIZE:
        cache.popitem(last=False)


class _Slot:
    """One worker seat: its process, its two queues and design cache map."""

    __slots__ = ("process", "ctrl", "out", "designs")

    def __init__(self, process, ctrl, out) -> None:
        self.process = process
        self.ctrl = ctrl
        self.out = out
        # Content hashes this worker holds, mirroring the worker's own
        # LRU (same keys, same order, same cap).
        self.designs: "OrderedDict" = OrderedDict()


class WorkerPool:
    """A persistent process pool shared across verification runs."""

    def __init__(self, workers: int | None = None) -> None:
        resolved = workers if workers is not None else os.cpu_count() or 1
        if resolved < 1:
            raise ValueError(f"workers must be >= 1, got {resolved}")
        self.workers = resolved
        self.context = multiprocessing.get_context(START_METHOD)
        # Messages read off the seats' queues, not yet returned.
        self._inbox: deque = deque()
        # Per-seat stop marks (see "Stopping work" above).  One writer (this
        # process) and one reader per entry, so no lock: the seat polls
        # its entry at every budget check.
        self._stop_marks = self.context.Array("q", resolved, lock=False)
        self._seqs = itertools.count(1)  # job sequence numbers; marks start at 0
        self._stop = self.context.Event()
        self._slots: list[_Slot] = []
        # content hash -> pickled payload (LRU, DESIGN_CACHE_SIZE deep)
        self._pickled: "OrderedDict[str, bytes]" = OrderedDict()
        self._hash_memo: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._run_ids = itertools.count()
        # run id -> (design, ProofOptions), for late seat attachment
        self._open: dict[int, tuple] = {}
        self._consumer: object | None = None  # message-lease holder
        self._closed = False
        _live_pools.add(self)
        self.stats = {
            "runs": 0,
            "design_pickles": 0,
            "design_ships": 0,
            "designs_cached": 0,
            "workers_spawned": 0,
            "workers_replaced": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def _spawn(self, worker_id: int) -> _Slot:
        # Late import so crash-injection tests can monkeypatch the
        # module attribute before the pool forks its workers.
        from . import worker as worker_mod

        ctrl = self.context.Queue()
        out = self.context.Queue()
        process = self.context.Process(
            target=worker_mod.pool_worker_main,
            args=(
                worker_id,
                ctrl,
                out,
                self._stop_marks,
                self._stop,
            ),
            name=f"repro-pool-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        # The seat holds the only writer end now, so its death reads as
        # end-of-file instead of leaving a half-written message pending.
        out._writer.close()
        self.stats["workers_spawned"] += 1
        return _Slot(process, ctrl, out)

    def start_missing_workers(self) -> list[int]:
        """Spawn seats that have never been started; ids, no respawns.

        The admission path: brings a fresh pool to strength without
        touching dead seats, whose (possibly backoff-delayed) respawn
        belongs to the scheduler.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is shut down")
        started: list[int] = []
        while len(self._slots) < self.workers:
            worker_id = len(self._slots)
            self._slots.append(self._spawn(worker_id))
            started.append(worker_id)
        return started

    def respawn_workers(self, worker_ids) -> list[int]:
        """Respawn exactly the given seats, where dead; respawned ids.

        Seats still alive (or never spawned) are left untouched, so a
        backoff-aware scheduler can revive precisely the seats whose
        delay has elapsed — and is only ever charged for those
        (``stats["workers_replaced"]``).  The fresh process has fresh
        queues and an empty design cache: whatever the dead worker held
        is gone, and so is anything it left unread or half-written on
        its output queue.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is shut down")
        fresh: list[int] = []
        for worker_id in sorted(set(worker_ids)):
            if not 0 <= worker_id < len(self._slots):
                continue
            if self._slots[worker_id].process.is_alive():
                continue
            self._slots[worker_id] = self._spawn(worker_id)
            self.stats["workers_replaced"] += 1
            fresh.append(worker_id)
        return fresh

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop every worker and release the queues (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._open.clear()
        self._consumer = None
        self._stop.set()
        for slot in self._slots:
            try:
                slot.ctrl.put(("stop",))
            except Exception:  # pragma: no cover - queue already broken
                pass
        for slot in self._slots:
            slot.process.join(timeout=timeout)
            if slot.process.is_alive():  # pragma: no cover - last resort
                slot.process.terminate()
                slot.process.join(timeout=5.0)
        for slot in self._slots:
            for q in (slot.ctrl, slot.out):
                q.cancel_join_thread()
                q.close()

    # ------------------------------------------------------------------
    # Design shipping
    # ------------------------------------------------------------------
    def _design_digest(self, ts: TransitionSystem) -> str:
        """Content hash of ``ts``; guarantees the payload is cached.

        The identity memo means a design object reused across runs is
        never re-pickled, which is what ``stats["design_pickles"]``
        counts; a *different* object with identical content re-pickles
        to hash it but still hits the workers' caches.  A design whose
        payload was LRU-evicted (more than :data:`DESIGN_CACHE_SIZE`
        designs in rotation) is re-pickled on its next use — a bounded
        cache, not a leak, for servers cycling through many designs.
        """
        try:
            digest = self._hash_memo.get(ts)
        except TypeError:  # unhashable/unweakrefable design
            digest = None
        if digest is not None and digest in self._pickled:
            self._pickled.move_to_end(digest)
            return digest
        payload = pickle.dumps(ts, protocol=pickle.HIGHEST_PROTOCOL)
        self.stats["design_pickles"] += 1
        digest = payload_digest(payload)
        if digest not in self._pickled:
            self.stats["designs_cached"] += 1
        _lru_touch(self._pickled, digest, payload)
        try:
            self._hash_memo[ts] = digest
        except TypeError:  # pragma: no cover - exotic design classes
            pass
        return digest

    # ------------------------------------------------------------------
    # Message lease
    # ------------------------------------------------------------------
    def acquire_messages(self, owner: object) -> None:
        """Claim the pool's output-message stream for ``owner``.

        Two consumers of the seats' output queues would steal each
        other's messages, so whoever pumps :meth:`next_message` (a
        ``SeatScheduler``, usually inside a
        :class:`~repro.service.VerificationService`) must hold this
        lease.  Re-acquiring by the same owner is a no-op; a second
        owner is refused — submit to the service instead of opening a
        second one on its pool.
        """
        if self._consumer is not None and self._consumer is not owner:
            raise RuntimeError(
                "pool messages are already being consumed by another "
                "scheduler (is this pool attached to a running "
                "VerificationService?)"
            )
        self._consumer = owner

    def release_messages(self, owner: object) -> None:
        """Give up the message lease (no-op when ``owner`` lacks it)."""
        if self._consumer is owner:
            self._consumer = None

    # ------------------------------------------------------------------
    # Run protocol — seat leasing (many runs may be open at once)
    # ------------------------------------------------------------------
    @property
    def open_runs(self) -> list[int]:
        """Ids of runs currently open, oldest first."""
        return sorted(self._open)

    def open_run(self, ts, options) -> int:
        """Open a run: ship the design + proof options to every live worker.

        Returns the run id.  Each worker acknowledges its setup with a
        ``ready`` message (surfaced through :meth:`next_message`);
        because setup and job messages share the worker's FIFO control
        queue, a worker can never see a job before the run's design and
        options.  Any number of runs may be open concurrently — their
        jobs are interleaved onto seats by whoever holds the message
        lease.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is shut down")
        run_id = next(self._run_ids)
        self._open[run_id] = (ts, options)
        for worker_id, slot in enumerate(self._slots):
            if slot.process.is_alive():
                self.attach_worker(run_id, worker_id)
        self.stats["runs"] += 1
        return run_id

    def attach_worker(self, run_id: int, worker_id: int) -> None:
        """Ship an open run's setup to one seat (late join/respawn).

        Used by schedulers that revive crashed seats mid-flight: the
        fresh process knows nothing, so every open run's design and
        options must be re-shipped before it can serve their jobs.
        """
        ts, options = self._open[run_id]
        digest = self._design_digest(ts)
        payload = self._pickled[digest]
        slot = self._slots[worker_id]
        body = None if digest in slot.designs else payload
        if body is not None:
            self.stats["design_ships"] += 1
        slot.ctrl.put(("run", run_id, digest, body, options))
        _lru_touch(slot.designs, digest, True)

    def assign(self, worker_id: int, job, run_id: int, clauses: bytes = b"") -> int:
        """Hand one job of a run to a specific worker seat; its ``seq``.

        ``clauses`` (a :func:`~repro.parallel.exchange.pack_clauses`
        blob) rides along into the seat's clause database for the run.
        The returned sequence number is what :meth:`stop_seat` takes.
        """
        if run_id not in self._open:
            raise RuntimeError(f"run {run_id} is not open on this pool")
        seq = next(self._seqs)
        self._slots[worker_id].ctrl.put(("job", run_id, job, seq, clauses))
        return seq

    def stop_seat(self, worker_id: int, seq: int) -> None:
        """Stop the seat's job numbered ``seq`` and every earlier one.

        A running one gives up at its engine's next budget check and
        reports UNKNOWN; a queued one is declined unstarted.  A job
        already finished is unaffected, and so is every later one.  The
        mark only rises: a lower ``seq`` than the seat's mark is a no-op.
        """
        if self._stop_marks[worker_id] < seq:
            self._stop_marks[worker_id] = seq

    def next_message(self, timeout: float = 0.2):
        """Next message of any open run: ``(kind, run_id, worker, ...)``.

        Kinds are ``ready``, ``event``, ``result``, ``cancelled`` and
        ``error`` (payloads as documented in :mod:`repro.parallel.worker`).
        Each seat's messages arrive in the order it sent them.  Messages
        from runs no longer open (stragglers of a finished or cancelled
        batch) are silently discarded.  Raises :class:`queue.Empty` on
        timeout, like a queue would; a non-positive timeout polls
        without blocking (the scheduler's burst-drain path).
        """
        deadline = time.monotonic() + timeout
        while True:
            while not self._inbox:
                # A queue's reader end is what its ``get`` reads from.
                channels = {
                    slot.out._reader: slot.out
                    for slot in self._slots
                    if not slot.out._reader.closed
                }
                ready = wait(list(channels), max(deadline - time.monotonic(), 0.0))
                if not ready:
                    raise queue_mod.Empty
                for reader in ready:
                    try:
                        self._inbox.append(channels[reader].get_nowait())
                    except (EOFError, OSError):
                        # The seat is gone: every whole message it sent
                        # was read, and a torn one is dropped with it.
                        reader.close()
            message = self._inbox.popleft()
            if message[1] in self._open:
                return message

    def close_run(self, run_id: int) -> None:
        """Close an open run; anything still in flight goes stale.

        Workers drop the run's cached state on the ``end`` message, and
        :meth:`next_message`'s open-run filter discards late replies,
        so a finished run cannot haunt its successors.
        """
        if run_id not in self._open:
            return
        del self._open[run_id]
        for slot in self._slots:
            if slot.process.is_alive():
                try:
                    slot.ctrl.put(("end", run_id))
                except Exception:  # pragma: no cover - queue already broken
                    pass

    # ------------------------------------------------------------------
    # Liveness (consumed by the scheduler's crash handling)
    # ------------------------------------------------------------------
    def worker_alive(self, worker_id: int) -> bool:
        """True for a live seat (False for one not yet spawned)."""
        return (
            0 <= worker_id < len(self._slots)
            and self._slots[worker_id].process.is_alive()
        )

    def worker_failed(self, worker_id: int) -> bool:
        """True if the seat's process died with a nonzero exit code."""
        if not 0 <= worker_id < len(self._slots):
            return False
        process = self._slots[worker_id].process
        return not process.is_alive() and process.exitcode not in (0, None)

    def failed_workers(self) -> list[int]:
        return [
            worker_id
            for worker_id in range(len(self._slots))
            if self.worker_failed(worker_id)
        ]

    def alive_workers(self) -> list[int]:
        return [
            worker_id
            for worker_id, slot in enumerate(self._slots)
            if slot.process.is_alive()
        ]

    def any_alive(self) -> bool:
        return bool(self.alive_workers())


def shutdown_all_pools() -> None:
    """Shut down every live pool (the ``atexit`` seat-process sweep).

    Seats are daemon processes, but an orderly stop lets them flush
    their queues instead of dying mid-message at interpreter teardown.
    """
    for pool in list(_live_pools):
        pool.shutdown()


atexit.register(shutdown_all_pools)
