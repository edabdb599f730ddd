"""Process-parallel JA-verification (paper Section 11, for real).

The paper argues that JA-verification parallelizes naturally — one
processor per property, no mandatory clause exchange, local proofs
getting *easier* as the assumption pool grows.  This package executes
that claim instead of simulating it:

* :mod:`repro.parallel.engine` — a pool of worker **processes**, each
  running per-property local IC3 proofs (the same
  :func:`~repro.multiprop.local.prove` the sequential driver loops
  over), with verdict aggregation, a total-time watchdog, and
  early cancellation of still-queued jobs once the run-level verdict is
  decided.  Its :class:`SeatScheduler` is the fair multiplexer behind
  :class:`repro.service.VerificationService`: any number of jobs'
  property backlogs interleaved onto one pool's seats;
* :mod:`repro.parallel.portfolio` — per-property engine racing over
  the same job type: one attempt per property carries the engine
  slate, and the seat that holds it races the engines in doubling
  work slices until the first definitive verdict;
* :mod:`repro.parallel.pool` — a persistent :class:`WorkerPool` that
  outlives a single run: workers cache pickled designs by content hash,
  accept successive job batches, and are shared across
  ``Session.run()`` calls (``VerificationConfig.pool``), amortizing the per-run O(design)
  setup cost of server-style workloads;
* :mod:`repro.parallel.exchange` — the packed wire form of the clauses
  the scheduler relays: each job keeps one clause log (cache warm
  start, then every HOLDS invariant) and each job message carries the
  part of it the seat has not received yet;
* :mod:`repro.parallel.worker` — the pool worker entry point and the
  picklable job/result messages; every worker forwards its typed
  :class:`~repro.progress.ProgressEvent` stream to the parent, which
  merges the streams into the session's event channel.

Entry points: ``Session(design, strategy="parallel-ja", workers=4)`` or
:func:`parallel_ja_verify` directly.
"""

from .engine import PooledJob, SeatScheduler, parallel_ja_verify
from .portfolio import ENGINE_NAMES, parse_engine_slate, portfolio_verify
from .exchange import pack_clauses, unpack_clauses
from .pool import WorkerPool, shutdown_all_pools
from .stats import PoolStats, SeatStats

__all__ = [
    "parallel_ja_verify",
    "PooledJob",
    "SeatScheduler",
    "ENGINE_NAMES",
    "parse_engine_slate",
    "portfolio_verify",
    "PoolStats",
    "SeatStats",
    "WorkerPool",
    "shutdown_all_pools",
    "pack_clauses",
    "unpack_clauses",
]
