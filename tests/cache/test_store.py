"""ProofStore: atomic record persistence, corruption tolerance, LRU GC."""

from __future__ import annotations

import json
import os

import pytest

from repro.cache.store import (
    RECORD_MAGIC,
    RECORD_VERSION,
    CacheRecord,
    ProofStore,
    atomic_write,
)
from repro.circuit.aig import AIG, aig_not
from repro.ts.system import TransitionSystem
from repro.ts.trace import Trace


def _system(n_latches: int = 3) -> TransitionSystem:
    aig = AIG()
    latches = []
    for i in range(n_latches):
        q = aig.add_latch(f"q{i}", init=0)
        aig.set_next(q, q)
        latches.append(q)
    aig.add_property("p", aig_not(latches[0]))
    return TransitionSystem(aig)


def _holds_record(cone: str = "c" * 64) -> CacheRecord:
    return CacheRecord(
        prop="P1",
        status="holds",
        design="d" * 64,
        cone=cone,
        frames=3,
        assumed=["P0"],
        engine="ja",
        invariant=[(-1,), (-2, 3)],
    )


def _fails_record(cone: str = "f" * 64) -> CacheRecord:
    return CacheRecord(
        prop="P0",
        status="fails",
        design="d" * 64,
        cone=cone,
        cex_depth=1,
        trace=Trace(
            inputs=[{2: False}, {2: True}],
            uninit={4: True},
            property_name="P0",
        ),
    )


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "sub" / "x.json"
        atomic_write(path, "one")
        atomic_write(path, "two")
        assert path.read_text() == "two"

    def test_no_temp_litter(self, tmp_path):
        path = tmp_path / "x.json"
        atomic_write(path, "data")
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]


class TestRecordRoundTrip:
    def test_holds_round_trip(self):
        record = _holds_record()
        back = CacheRecord.from_json(record.to_json())
        assert back == record
        assert back.invariant == [(-1,), (-2, 3)]

    def test_fails_round_trip_restores_int_keys(self):
        back = CacheRecord.from_json(_fails_record().to_json())
        assert back.trace.inputs == [{2: False}, {2: True}]
        assert back.trace.uninit == {4: True}

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda obj: obj.update(magic="nope"),
            lambda obj: obj.update(version=RECORD_VERSION + 1),
            lambda obj: obj.update(status="maybe"),
        ],
    )
    def test_bad_header_rejected(self, mutate):
        obj = json.loads(_holds_record().to_json())
        mutate(obj)
        with pytest.raises(ValueError):
            CacheRecord.from_json(json.dumps(obj))

    def test_magic_present_in_payload(self):
        assert json.loads(_holds_record().to_json())["magic"] == RECORD_MAGIC


class TestStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ProofStore(tmp_path)
        record = _holds_record()
        store.put(record)
        loaded = store.get(record.cone)
        assert loaded.prop == "P1"
        assert loaded.invariant == record.invariant
        assert loaded.created > 0

    def test_garbage_entry_is_a_counted_miss(self, tmp_path):
        store = ProofStore(tmp_path)
        store.entries_dir.mkdir(parents=True)
        (store.entries_dir / ("x" * 64 + ".json")).write_text("{not json")
        assert store.get("x" * 64) is None
        assert store.counters["corrupt"] == 1

    def test_misfiled_entry_is_corrupt(self, tmp_path):
        # A record whose body names a different cone than its filename
        # (renamed or collided file) must not be served.
        store = ProofStore(tmp_path)
        record = _holds_record()
        store.put(record)
        os.rename(store.entry_path(record.cone), store.entry_path("e" * 64))
        assert store.get("e" * 64) is None
        assert store.counters["corrupt"] == 1

    def test_missing_entry_is_a_plain_miss(self, tmp_path):
        store = ProofStore(tmp_path)
        assert store.get("0" * 64) is None
        assert store.counters["corrupt"] == 0

    def test_stats_counts_disk(self, tmp_path):
        store = ProofStore(tmp_path)
        store.put(_holds_record())
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["entry_bytes"] > 0
        assert stats["writes"] == 1

    def test_clear_removes_everything(self, tmp_path):
        store = ProofStore(tmp_path)
        store.put(_holds_record())
        store.put(_fails_record())
        assert store.clear() == 2
        assert store.stats()["entries"] == 0


class TestGC:
    def _fill(self, store: ProofStore, count: int) -> list[str]:
        cones = []
        for i in range(count):
            cone = f"{i:064d}"
            store.put(_holds_record(cone))
            # Distinct mtimes make LRU order deterministic.
            os.utime(store.entry_path(cone), (i, i))
            cones.append(cone)
        return cones

    def test_lru_evicts_oldest_first(self, tmp_path):
        store = ProofStore(tmp_path)
        cones = self._fill(store, 4)
        assert store.gc(max_entries=2) == 2
        assert store.get(cones[0]) is None
        assert store.get(cones[1]) is None
        assert store.get(cones[3]) is not None

    def test_max_bytes_bound(self, tmp_path):
        store = ProofStore(tmp_path)
        self._fill(store, 3)
        assert store.gc(max_bytes=1) == 3


class TestWarmLogs:
    def test_save_load_round_trip(self, tmp_path):
        ts = _system()
        store = ProofStore(tmp_path)
        assert store.save_warm("d" * 64, ts, [(-1,), (-2, 3)]) == 2
        assert store.load_warm("d" * 64, ts) == [(-1,), (-2, 3)]
        assert store.counters["warm_loads"] == 1
        assert store.counters["warm_clauses"] == 2

    def test_merge_deduplicates(self, tmp_path):
        ts = _system()
        store = ProofStore(tmp_path)
        store.save_warm("d" * 64, ts, [(-1,)])
        assert store.save_warm("d" * 64, ts, [(-1,), (-3,)]) == 1
        assert sorted(store.load_warm("d" * 64, ts)) == [(-3,), (-1,)]

    def test_corrupt_log_is_no_warm_start(self, tmp_path):
        ts = _system()
        store = ProofStore(tmp_path)
        store.warm_dir.mkdir(parents=True)
        store.warm_path("d" * 64).write_text("clausedb 99\nq0 q1 q2\n-1\n")
        assert store.load_warm("d" * 64, ts) == []
        assert store.counters["corrupt"] == 1

    def test_missing_log_is_empty(self, tmp_path):
        assert ProofStore(tmp_path).load_warm("d" * 64, _system()) == []
