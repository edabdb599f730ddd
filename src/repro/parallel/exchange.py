"""Cluster-sharded live clause exchange between parallel JA workers.

Section 11 of the paper notes that workers proving different properties
*may* (but need not) exchange strengthening clauses.  With real worker
processes the clause log must live outside any single worker, so it is
hosted in :class:`multiprocessing.managers.BaseManager` server
processes and reached through proxies.  One server object would
serialize every ``publish``/``fetch`` of every worker — fine at tens of
properties, a bottleneck at the paper's 10k scale — and clause traffic
is *wasted* across unrelated properties: a strengthening clause learned
while proving one property only helps properties whose cones overlap,
which is exactly what
:func:`repro.multiprop.clustering.cluster_properties` computes.

This module therefore shards the exchange by property cluster:

* :func:`build_shard_map` groups the run's properties with the
  structural clustering (Jaccard similarity of latch cones) and assigns
  whole clusters to shards, biggest-cluster-first onto the least
  loaded shard, so same-cluster properties always share a shard;
* :class:`ExchangeShard` is one append-only deduplicated clause log.
  Workers ``fetch`` with a cursor (the log length they have already
  seen) and ``publish`` the invariant of each finished local proof;
  the log only grows, so a fetch never misses a clause published
  before its cursor and the protocol needs no locking beyond what the
  manager already serializes.  Per-shard traffic stats record *which
  properties* published and fetched (the routing-isolation tests rely
  on this).  Fetch replies are **batched**: the whole cursor gap ships
  as one packed int64 buffer (:func:`pack_clauses`) instead of one
  pickled tuple per clause, and ``stats()["fetch_batches"]`` counts
  the non-empty replies;
* shard ``i`` is hosted in manager process ``i`` of a
  :class:`ShardHost`, so shards serialize independently and
  publish/fetch throughput scales with the shard count;
* :class:`ShardedExchange` is the picklable client-side router workers
  hold: ``publish``/``fetch`` take the property name and route to its
  shard, so a clause is only ever delivered to subscribers of the
  originating property's cluster — cross-shard deliveries are
  impossible by construction, and :meth:`ShardedExchange.routing_violations`
  proves it from the recorded per-shard traffic.

Semantic validation (does the clause hold at the initial states? is it
in range?) stays *worker-side* in
:class:`~repro.multiprop.clausedb.ClauseDB`: the server would need the
transition system for that, and every consumer re-validates on import
anyway.

``shards=1`` is one log in one manager; ``shards="auto"`` takes one
shard per cluster, capped at :data:`AUTO_SHARD_CAP` so a thousand
singleton clusters do not spawn a thousand manager processes.
"""

from __future__ import annotations

from array import array
from multiprocessing.managers import BaseManager
from collections.abc import Iterable, Mapping, MutableMapping, Sequence

from ..ts.system import TransitionSystem

Clause = tuple[int, ...]

#: Upper bound on ``shards="auto"`` (one manager process per shard).
AUTO_SHARD_CAP = 8


def pack_clauses(clauses: Sequence[Clause]) -> bytes:
    """Flatten a clause list into one length-prefixed int64 buffer.

    A manager proxy pickles whatever ``fetch`` returns; a list of many
    small tuples costs one pickle op *per clause per literal*, which at
    the paper's 10k-property scale dominates the reply.  The packed
    form — ``[len, lit, lit, ..., len, lit, ...]`` as a flat
    ``array('q')`` — serializes as a single bytes blob regardless of
    clause count: one message per cursor gap instead of one tuple per
    clause.
    """
    flat = array("q")
    for clause in clauses:
        flat.append(len(clause))
        flat.extend(clause)
    return flat.tobytes()


def unpack_clauses(blob: bytes) -> list[Clause]:
    """Inverse of :func:`pack_clauses` (client side of a fetch reply)."""
    flat = array("q")
    flat.frombytes(blob)
    clauses: list[Clause] = []
    i = 0
    end = len(flat)
    while i < end:
        width = flat[i]
        i += 1
        clauses.append(tuple(flat[i : i + width]))
        i += width
    return clauses


class ShardMap:
    """Property name -> shard index, plus the member sets per shard."""

    def __init__(self, assignment: Mapping[str, int], num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        bad = {n: s for n, s in assignment.items() if not 0 <= s < num_shards}
        if bad:
            raise ValueError(f"shard index out of range: {bad}")
        self._assignment = dict(assignment)
        self.num_shards = num_shards

    def shard_of(self, name: str) -> int:
        return self._assignment[name]

    def members(self, shard: int) -> tuple[str, ...]:
        return tuple(
            sorted(n for n, s in self._assignment.items() if s == shard)
        )

    def __len__(self) -> int:
        return len(self._assignment)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [len(self.members(s)) for s in range(self.num_shards)]
        return f"ShardMap(shards={self.num_shards}, sizes={sizes})"


def build_shard_map(
    ts: TransitionSystem,
    names: Sequence[str],
    shards: int | str = 1,
    similarity_threshold: float = 0.5,
) -> ShardMap:
    """Assign the run's properties to exchange shards, cluster-whole.

    ``shards`` is a positive int (capped by the property count) or
    ``"auto"`` — one shard per structural cluster, capped at
    :data:`AUTO_SHARD_CAP`.  Clusters are never split across shards:
    the clusters are placed biggest-first onto the least-loaded shard
    (LPT balancing, the same heuristic the job dispatch uses), so
    same-cluster properties always exchange clauses while shard loads
    stay even.
    """
    from ..multiprop.clustering import cluster_properties

    wanted = set(names)
    clusters = [
        [n for n in cluster if n in wanted]
        for cluster in cluster_properties(ts, similarity_threshold)
    ]
    clusters = [c for c in clusters if c]
    if not clusters:
        return ShardMap({}, 1)
    if shards == "auto":
        num = min(len(clusters), AUTO_SHARD_CAP)
    elif isinstance(shards, int) and not isinstance(shards, bool):
        if shards < 1:
            raise ValueError(f"exchange shards must be >= 1, got {shards}")
        num = min(shards, len(wanted))
    else:
        raise ValueError(
            f"exchange shards must be a positive int or 'auto', got {shards!r}"
        )
    return shard_clusters(clusters, num)


def shard_clusters(clusters: Sequence[Sequence[str]], num_shards: int) -> ShardMap:
    """Place whole clusters onto ``num_shards`` shards, LPT-balanced.

    Biggest cluster first onto the least-loaded shard (ties: lowest
    shard index) — deterministic, balanced, and cluster-whole, so
    same-cluster properties always share a shard.  Exposed separately
    from :func:`build_shard_map` so tests can drive arbitrary cluster
    partitions without a transition system.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    order = sorted(
        range(len(clusters)), key=lambda i: (-len(clusters[i]), i)
    )
    loads = [0] * num_shards
    assignment: dict[str, int] = {}
    for i in order:
        shard = loads.index(min(loads))
        loads[shard] += len(clusters[i])
        for name in clusters[i]:
            assignment[name] = shard
    return ShardMap(assignment, num_shards)


class ExchangeShard:
    """One append-only deduplicated clause log (runs in its manager).

    Workers ``fetch`` with the log length they have already seen; the
    log only grows, so a fetch never misses a clause published before
    its cursor.  The shard also records which *properties* published
    and fetched — the stress/fuzz suite uses those sets to prove that
    no clause ever crossed a shard boundary.
    """

    def __init__(self, index: int = 0, members: Sequence[str] = ()) -> None:
        self.index = index
        self.members = tuple(members)
        self._log: list[Clause] = []
        self._seen = set()
        self._publishes = 0
        self._fetches = 0
        self._fetch_batches = 0
        self._publishers: set = set()
        self._fetchers: set = set()

    def publish(self, name: str, clauses: Iterable[Iterable[int]]) -> int:
        """Append ``name``'s new clauses (duplicates dropped); returns #new."""
        added = 0
        for clause in clauses:
            normalized = tuple(sorted((int(l) for l in clause), key=abs))
            if not normalized or normalized in self._seen:
                continue
            self._seen.add(normalized)
            self._log.append(normalized)
            added += 1
        self._publishes += 1
        self._publishers.add(name)
        return added

    def fetch(self, name: str, cursor: int) -> tuple[list[Clause], int]:
        """Clauses appended at or after ``cursor``, plus the new cursor."""
        blob, new_cursor = self.fetch_batch(name, cursor)
        return unpack_clauses(blob), new_cursor

    def fetch_batch(self, name: str, cursor: int) -> tuple[bytes, int]:
        """The cursor gap as **one** packed reply, plus the new cursor.

        This is what :class:`ShardedExchange` clients actually call:
        the whole gap travels as a single :func:`pack_clauses` buffer —
        one serialized message per fetch, however many clauses the gap
        holds.  ``stats()["fetch_batches"]`` counts the non-empty
        replies, so the reply-batching rate is observable per shard.
        """
        if cursor < 0:
            raise ValueError(f"cursor must be non-negative, got {cursor}")
        self._fetches += 1
        self._fetchers.add(name)
        gap = self._log[cursor:]
        if gap:
            self._fetch_batches += 1
        return pack_clauses(gap), len(self._log)

    def size(self) -> int:
        return len(self._log)

    def stats(self) -> dict:
        return {
            "shard": self.index,
            "members": list(self.members),
            "clauses": len(self._log),
            "publishes": self._publishes,
            "fetches": self._fetches,
            "fetch_batches": self._fetch_batches,
            "publishers": sorted(self._publishers),
            "fetchers": sorted(self._fetchers),
        }


class ShardedExchange:
    """Client-side router over the shard servers (picklable).

    Holds the :class:`ShardMap` plus one handle per shard — manager
    proxies in the real engine, in-process :class:`ExchangeShard`
    objects in unit tests.  Workers receive one instance per run and
    route every ``publish``/``fetch`` by the property name, so clause
    visibility is confined to the originating property's cluster.
    """

    def __init__(self, shard_map: ShardMap, shards: Sequence[object]) -> None:
        if len(shards) != shard_map.num_shards:
            raise ValueError(
                f"expected {shard_map.num_shards} shard handles, got {len(shards)}"
            )
        self.shard_map = shard_map
        self._shards = list(shards)

    @property
    def num_shards(self) -> int:
        return self.shard_map.num_shards

    def shard_of(self, name: str) -> int:
        return self.shard_map.shard_of(name)

    def publish(self, name: str, clauses: Iterable[Iterable[int]]) -> int:
        return self._shards[self.shard_of(name)].publish(name, clauses)

    def fetch(self, name: str, cursor: int) -> tuple[list[Clause], int]:
        """One batched round-trip per cursor gap (see ``fetch_batch``)."""
        blob, new_cursor = self._shards[self.shard_of(name)].fetch_batch(
            name, cursor
        )
        return unpack_clauses(blob), new_cursor

    def fetch_fresh(
        self, name: str, cursors: MutableMapping[int, int]
    ) -> list[Clause]:
        """Everything ``name``'s shard published since the last call.

        ``cursors`` is the caller's per-shard cursor table (one per
        worker in the engine), updated in place — cursors on *other*
        shards are untouched, which is what keeps routing strict.
        """
        shard = self.shard_of(name)
        fresh, cursors[shard] = self.fetch(name, cursors.get(shard, 0))
        return fresh

    def stats(self) -> dict:
        """Aggregated per-shard stats plus run totals."""
        per_shard = [self._shards[s].stats() for s in range(self.num_shards)]
        return {
            "shards": per_shard,
            "clauses": sum(s["clauses"] for s in per_shard),
            "publishes": sum(s["publishes"] for s in per_shard),
            "fetches": sum(s["fetches"] for s in per_shard),
            "fetch_batches": sum(s["fetch_batches"] for s in per_shard),
        }

    def routing_violations(self) -> int:
        """Traffic observed by a shard from a non-member property.

        Zero by construction when every client routes through this
        class; the stress suite asserts exactly that.
        """
        violations = 0
        for stats in self.stats()["shards"]:
            members = set(stats["members"])
            violations += len(set(stats["publishers"]) - members)
            violations += len(set(stats["fetchers"]) - members)
        return violations


class ShardManager(BaseManager):
    """Manager hosting one :class:`ExchangeShard` per shard process."""


ShardManager.register("ExchangeShard", ExchangeShard)


class ShardHost:
    """A persistent set of shard-manager processes, reused across jobs.

    Owned by a :class:`~repro.parallel.engine.SeatScheduler` for its
    lifetime.  The host keeps one manager process per *shard index*,
    started when a job first needs that many shards; shard ``i`` of
    every job is hosted in manager ``i`` as its own
    :class:`ExchangeShard` object, so jobs stay fully isolated
    (separate logs, separate stats) while the process count stays
    bounded by the widest job, not the job count.  Freeing is by proxy
    refcount: when a job's last proxy dies, the manager drops its shard
    objects.
    """

    def __init__(self, ctx=None) -> None:
        self._ctx = ctx
        self._managers: list[ShardManager] = []
        self._closed = False

    @property
    def processes(self) -> int:
        """Manager processes currently alive."""
        return len(self._managers)

    def open_shards(self, shard_map: ShardMap) -> ShardedExchange:
        """One fresh :class:`ExchangeShard` per shard, on pooled managers."""
        if self._closed:
            raise RuntimeError("ShardHost is shut down")
        while len(self._managers) < shard_map.num_shards:
            manager = ShardManager(ctx=self._ctx)
            manager.start()
            self._managers.append(manager)
        proxies = [
            self._managers[shard].ExchangeShard(
                shard, shard_map.members(shard)
            )
            for shard in range(shard_map.num_shards)
        ]
        return ShardedExchange(shard_map, proxies)

    def shutdown(self) -> None:
        """Stop every pooled manager process (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for manager in self._managers:
            manager.shutdown()
        self._managers = []
