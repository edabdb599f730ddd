"""Sharded clause-exchange semantics: routing isolation, stats, mapping.

The Hypothesis property drives *arbitrary* cluster partitions through
the same cluster->shard placement the engine uses and simulates clause
traffic in-process (raw :class:`ExchangeShard` objects, no manager):
every clause a property observes must originate in its own cluster,
and the per-shard stats must sum to the aggregate — the two invariants
the 10k-property scaling story rests on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gen.counter import buggy_counter
from repro.parallel.exchange import (
    AUTO_SHARD_CAP,
    ExchangeShard,
    ShardedExchange,
    ShardHost,
    ShardMap,
    build_shard_map,
    shard_clusters,
)
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem


def in_process_exchange(shard_map: ShardMap) -> ShardedExchange:
    shards = [
        ExchangeShard(i, shard_map.members(i))
        for i in range(shard_map.num_shards)
    ]
    return ShardedExchange(shard_map, shards)


# ----------------------------------------------------------------------
# Hypothesis: routing isolation under arbitrary cluster assignments
# ----------------------------------------------------------------------
@st.composite
def cluster_partitions(draw):
    """A random partition of p0..pN into clusters, plus a shard count."""
    n_props = draw(st.integers(min_value=1, max_value=24))
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=7),
            min_size=n_props,
            max_size=n_props,
        )
    )
    clusters: dict = {}
    for i, label in enumerate(labels):
        clusters.setdefault(label, []).append(f"p{i}")
    num_shards = draw(st.integers(min_value=1, max_value=6))
    return list(clusters.values()), num_shards


@settings(max_examples=60, deadline=None)
@given(
    partition=cluster_partitions(),
    traffic=st.lists(
        st.tuples(st.integers(min_value=0, max_value=23), st.booleans()),
        max_size=80,
    ),
)
def test_clauses_never_cross_cluster_boundaries(partition, traffic):
    """Every observed clause originates in the observer's own cluster,
    and shard stats sum consistently, for arbitrary assignments."""
    clusters, num_shards = partition
    shard_map = shard_clusters(clusters, num_shards)
    names = sorted(
        (name for cluster in clusters for name in cluster),
        key=lambda n: int(n[1:]),
    )
    cluster_of = {
        name: i
        for i, cluster in enumerate(clusters)
        for name in cluster
    }
    exchange = in_process_exchange(shard_map)
    cursors: dict = {name: {} for name in names}
    published = set()
    # Interleave publishes and fetches; clause (i+1,) encodes its origin.
    for index, is_publish in traffic:
        name = names[index % len(names)]
        if is_publish:
            exchange.publish(name, [(names.index(name) + 1,)])
            published.add(names.index(name) + 1)
        else:
            for clause in exchange.fetch_fresh(name, cursors[name]):
                origin = names[clause[0] - 1]
                # The shard is the routing unit: a clause never leaves
                # its shard...
                assert shard_map.shard_of(origin) == shard_map.shard_of(name)
                # ...and with one shard per cluster (the ``"auto"``
                # regime), that *is* cluster isolation.
                if num_shards >= len(clusters):
                    assert cluster_of[origin] == cluster_of[name], (
                        f"{name} observed a clause from {origin}, "
                        f"a different cluster"
                    )
    # Whole clusters share a shard: a property's shard contains its
    # entire cluster.
    for cluster in clusters:
        assert len({shard_map.shard_of(n) for n in cluster}) == 1
    # Stats sum consistently across shards.
    stats = exchange.stats()
    assert stats["clauses"] == sum(s["clauses"] for s in stats["shards"])
    assert stats["clauses"] == len(published)
    assert stats["publishes"] == sum(s["publishes"] for s in stats["shards"])
    assert stats["fetches"] == sum(s["fetches"] for s in stats["shards"])
    assert exchange.routing_violations() == 0


# ----------------------------------------------------------------------
# Deterministic unit coverage
# ----------------------------------------------------------------------
class TestShardMap:
    def test_members_partition_the_names(self):
        shard_map = shard_clusters([["a", "b"], ["c"], ["d", "e", "f"]], 2)
        everyone = [
            n for s in range(shard_map.num_shards) for n in shard_map.members(s)
        ]
        assert sorted(everyone) == ["a", "b", "c", "d", "e", "f"]

    def test_lpt_balancing_is_deterministic(self):
        clusters = [["a"], ["b", "c", "d"], ["e", "f"]]
        first = shard_clusters(clusters, 2)
        second = shard_clusters(clusters, 2)
        assert first.members(0) == second.members(0)
        # Biggest cluster (3 names) went to shard 0, next (2) to shard 1,
        # the singleton to the lighter shard 1.
        assert first.members(0) == ("b", "c", "d")
        assert first.members(1) == ("a", "e", "f")

    def test_rejects_bad_shard_counts(self):
        with pytest.raises(ValueError):
            shard_clusters([["a"]], 0)
        with pytest.raises(ValueError):
            ShardMap({"a": 3}, 2)

    def test_build_shard_map_auto_caps(self):
        ts = TransitionSystem(buggy_counter(bits=4))
        names = [p.name for p in ts.properties]
        shard_map = build_shard_map(ts, names, "auto")
        assert 1 <= shard_map.num_shards <= AUTO_SHARD_CAP
        assert len(shard_map) == len(names)

    def test_build_shard_map_caps_explicit_count(self):
        ts = TransitionSystem(buggy_counter(bits=4))
        names = [p.name for p in ts.properties]
        shard_map = build_shard_map(ts, names, 16)
        assert shard_map.num_shards <= len(names)

    def test_build_shard_map_rejects_bad_spec(self):
        ts = TransitionSystem(buggy_counter(bits=4))
        names = [p.name for p in ts.properties]
        with pytest.raises(ValueError):
            build_shard_map(ts, names, 0)
        with pytest.raises(ValueError):
            build_shard_map(ts, names, "many")


class TestExchangeShard:
    def test_cursor_protocol(self):
        shard = ExchangeShard(0, ("p", "q"))
        assert shard.publish("p", [(1, 2), (-3,)]) == 2
        clauses, cursor = shard.fetch("q", 0)
        assert clauses == [(1, 2), (-3,)] and cursor == 2
        assert shard.publish("q", [(1, 2)]) == 0  # duplicate dropped
        fresh, cursor = shard.fetch("q", cursor)
        assert fresh == [] and cursor == 2
        # A cursor only sees what was appended after it; clauses are
        # normalized by variable before the duplicate check.
        assert shard.publish("p", [(-5, 4), (2, 1), (4, -5)]) == 1
        fresh, cursor = shard.fetch("q", cursor)
        assert fresh == [(4, -5)] and cursor == 3
        assert shard.size() == 3

    def test_negative_cursor_rejected(self):
        with pytest.raises(ValueError):
            ExchangeShard().fetch("p", -1)

    def test_stats_track_traffic_and_clients(self):
        shard = ExchangeShard(3, ("p", "q"))
        shard.publish("p", [(1,)])
        shard.fetch("q", 0)
        stats = shard.stats()
        assert stats["shard"] == 3
        assert stats["clauses"] == 1
        assert stats["publishers"] == ["p"]
        assert stats["fetchers"] == ["q"]

    def test_manager_hosted_roundtrip(self):
        shard_map = shard_clusters([["p"], ["q"]], 2)
        host = ShardHost()
        try:
            exchange = host.open_shards(shard_map)
            assert host.processes == 2
            exchange.publish("p", [(1, 2)])
            clauses, cursor = exchange.fetch("p", 0)
            assert clauses == [(1, 2)] and cursor == 1
            # q lives on the other shard and sees nothing.
            assert exchange.fetch("q", 0) == ([], 0)
            assert exchange.stats()["clauses"] == 1
            assert exchange.routing_violations() == 0
            # A second job reuses the managers but shares no log.
            other = host.open_shards(shard_map)
            assert host.processes == 2
            assert other.fetch("p", 0) == ([], 0)
        finally:
            host.shutdown()
        with pytest.raises(RuntimeError):
            host.open_shards(shard_map)

    def test_mismatched_handles_rejected(self):
        shard_map = shard_clusters([["p"], ["q"]], 2)
        with pytest.raises(ValueError):
            ShardedExchange(shard_map, [ExchangeShard(0)])


class TestWorkerSideIsolation:
    def test_one_worker_serving_two_shards_keeps_dbs_apart(self):
        """A single worker running jobs from different shards must not
        seed one shard's proof with the other shard's clauses — the
        exchange routes strictly, and the worker's local clause
        database has to match (one DB per shard per run)."""
        from repro.circuit.aig import AIG, aig_not
        from repro.parallel import parallel_ja_verify
        from repro.progress import ClauseImport

        aig = AIG()
        r = aig.add_latch("r", init=0)
        aig.set_next(r, r)
        s = aig.add_latch("s", init=0)
        aig.set_next(s, s)
        aig.add_property("never_r", aig_not(r))  # holds, exports clauses
        aig.add_property("never_s", aig_not(s))  # disjoint cone: own cluster
        ts = TransitionSystem(aig)
        events = []
        report = parallel_ja_verify(
            ts,
            VerificationConfig(
                workers=1,
                exchange_shards=2,
                order=["never_r", "never_s"],
            ),
            emit=events.append,
        )
        assert report.stats["exchange_shards"] == 2
        assert all(o.status.value == "holds" for o in report.outcomes.values())
        # never_r's exported invariant lives in the other shard; had the
        # worker shared one DB across shards, never_s's proof would have
        # imported it and emitted a ClauseImport.
        imports = [e for e in events if isinstance(e, ClauseImport)]
        assert not [e for e in imports if e.name == "never_s"]


class TestBatchedFetchReplies:
    """Fetch replies travel as one packed buffer per cursor gap."""

    def test_pack_unpack_roundtrip(self):
        from repro.parallel.exchange import pack_clauses, unpack_clauses

        clauses = [(1, -2, 3), (-4,), (5, 6)]
        assert unpack_clauses(pack_clauses(clauses)) == clauses
        assert unpack_clauses(pack_clauses([])) == []
        # int64 range survives (activation literals can run high).
        wide = [(2**40, -(2**40) - 1)]
        assert unpack_clauses(pack_clauses(wide)) == wide

    def test_fetch_batch_is_one_blob_per_gap(self):
        shard = ExchangeShard(0, ("p",))
        shard.publish("p", [(1, 2), (-3,), (4, 5, 6)])
        blob, cursor = shard.fetch_batch("p", 0)
        assert isinstance(blob, bytes)
        assert cursor == 3
        from repro.parallel.exchange import unpack_clauses

        assert unpack_clauses(blob) == [(1, 2), (-3,), (4, 5, 6)]
        # An empty gap is an empty blob — and not a counted batch.
        empty, cursor = shard.fetch_batch("p", cursor)
        assert empty == b"" and cursor == 3

    def test_fetch_batches_stat_counts_nonempty_replies(self):
        shard = ExchangeShard(0, ("p", "q"))
        shard.fetch("q", 0)  # empty gap: a fetch, not a batch
        shard.publish("p", [(1,)])
        shard.fetch("q", 0)  # one clause: one batched reply
        shard.fetch("q", 1)  # caught up again
        stats = shard.stats()
        assert stats["fetches"] == 3
        assert stats["fetch_batches"] == 1

    def test_sharded_stats_aggregate_fetch_batches(self):
        shard_map = shard_clusters([["p"], ["q"]], 2)
        exchange = in_process_exchange(shard_map)
        exchange.publish("p", [(1,)])
        exchange.publish("q", [(2,)])
        cursors: dict = {}
        exchange.fetch_fresh("p", cursors)
        exchange.fetch_fresh("q", cursors)
        stats = exchange.stats()
        assert stats["fetch_batches"] == 2
        assert stats["fetch_batches"] == sum(
            s["fetch_batches"] for s in stats["shards"]
        )

    def test_engine_reports_fetch_batches_per_shard(self):
        from repro.parallel import parallel_ja_verify

        ts = TransitionSystem(buggy_counter(bits=4))
        report = parallel_ja_verify(ts, VerificationConfig(workers=2))
        for shard_stats in report.stats["exchange_per_shard"]:
            assert "fetch_batches" in shard_stats
