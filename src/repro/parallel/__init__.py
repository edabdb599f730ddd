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
* :mod:`repro.parallel.portfolio` — per-property engine racing as a
  scheduling *policy* over the same job type: one run per job, an
  attempt per (property, engine) in its backlog, first definitive
  verdict decides, queued losers are dropped and running ones stopped;
* :mod:`repro.parallel.pool` — a persistent :class:`WorkerPool` that
  outlives a single run: workers cache pickled designs by content hash,
  accept successive job batches, and are shared across
  ``Session.run()`` calls (``VerificationConfig.pool`` or the
  module-level :func:`default_pool`), amortizing the per-run O(design)
  setup cost of server-style workloads;
* :mod:`repro.parallel.exchange` — the cluster-sharded clause exchange:
  one append-only clause log per property cluster, hosted in the
  scheduler's manager processes, with clause traffic routed only
  between same-shard subscribers (``exchange_shards=N`` or ``"auto"``);
* :mod:`repro.parallel.worker` — the pool worker entry point and the
  picklable job/result messages; every worker forwards its typed
  :class:`~repro.progress.ProgressEvent` stream to the parent, which
  merges the streams into the session's event channel.

Entry points: ``Session(design, strategy="parallel-ja", workers=4)`` or
:func:`parallel_ja_verify` directly.
"""

from .engine import PooledJob, SeatScheduler, parallel_ja_verify
from .portfolio import ENGINE_NAMES, parse_engine_slate, portfolio_verify
from .exchange import (
    ExchangeShard,
    ShardedExchange,
    ShardHost,
    ShardMap,
    build_shard_map,
    pack_clauses,
    shard_clusters,
    unpack_clauses,
)
from .pool import (
    WorkerPool,
    default_pool,
    shutdown_all_pools,
    shutdown_default_pool,
)
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
    "default_pool",
    "shutdown_default_pool",
    "shutdown_all_pools",
    "ExchangeShard",
    "ShardedExchange",
    "ShardHost",
    "ShardMap",
    "build_shard_map",
    "shard_clusters",
    "pack_clauses",
    "unpack_clauses",
]
