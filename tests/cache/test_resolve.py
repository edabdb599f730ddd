"""CacheResolver: certification-gated hits, poisoning, incremental hits."""

from __future__ import annotations

import json

import pytest

from repro.cache.resolve import CacheResolver
from repro.cache.store import ProofStore
from repro.circuit.aig import AIG, aig_not
from repro.engines.result import PropStatus
from repro.gen import all_true_designs, failing_designs
from repro.gen.counter import fixed_counter
from repro.multiprop.ja import JAVerifier
from repro.session import Session, VerificationConfig
from repro.ts.system import TransitionSystem


def _counter_ts() -> TransitionSystem:
    return TransitionSystem(fixed_counter(4))


def _two_cones(b_init: int = 0) -> TransitionSystem:
    aig = AIG()
    a = aig.add_latch("a", init=0)
    aig.set_next(a, a)
    b = aig.add_latch("b", init=b_init)
    aig.set_next(b, b)
    aig.add_property("Pa", aig_not(a))
    aig.add_property("Pb", aig_not(b))
    return TransitionSystem(aig)


def _one_failing_property() -> TransitionSystem:
    """One latch loaded from an input, one property ``never_a`` (fails)."""
    aig = AIG()
    a = aig.add_latch("a", init=0)
    aig.set_next(a, aig.add_input("i"))
    aig.add_property("never_a", aig_not(a))
    return TransitionSystem(aig)


def _populate(store: ProofStore, ts: TransitionSystem) -> dict:
    """Cold-prove ``ts`` and write every verdict back; return outcomes."""
    report = JAVerifier(ts).run()
    written = CacheResolver(store).record_outcomes(ts, report.outcomes)
    assert written == len(report.outcomes)
    return report.outcomes


class TestResolve:
    def test_cold_then_warm_full_parity(self, tmp_path):
        # The one-property design has no sibling to assume: its local
        # proof assumes nothing and must still be served as local.
        for make, names in ((_counter_ts, ["P0", "P1"]), (_one_failing_property, ["never_a"])):
            store = ProofStore(tmp_path / names[0])
            cold = _populate(store, make())

            warm_ts = make()
            events = []
            outcomes, remaining = CacheResolver(store).resolve(
                warm_ts, names, emit=events.append
            )
            assert remaining == []
            for name, outcome in outcomes.items():
                assert outcome.engine == "cache"
                assert outcome.status is cold[name].status
                assert outcome.frames == cold[name].frames
                assert outcome.local == cold[name].local
            hits = [e for e in events if e.kind == "cache-hit"]
            assert {(h.name, h.exact_design) for h in hits} == {(name, True) for name in names}
            assert store.counters["hits"] == len(names)

    def test_read_mode_never_writes(self, tmp_path):
        store = ProofStore(tmp_path)
        ts = _counter_ts()
        report = JAVerifier(ts).run()
        assert CacheResolver(store, "read").record_outcomes(ts, report.outcomes) == 0
        assert store.stats()["entries"] == 0

    def test_off_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CacheResolver(ProofStore(tmp_path), "offish")
        resolver = CacheResolver(ProofStore(tmp_path), "off")
        outcomes, remaining = resolver.resolve(_counter_ts(), ["P0", "P1"])
        assert outcomes == {}
        assert remaining == ["P0", "P1"]

    def test_cache_served_outcomes_not_rewritten(self, tmp_path):
        store = ProofStore(tmp_path)
        _populate(store, _counter_ts())
        resolver = CacheResolver(store)
        outcomes, _ = resolver.resolve(_counter_ts(), ["P0", "P1"])
        assert resolver.record_outcomes(_counter_ts(), outcomes) == 0

    def test_unknown_not_cached(self, tmp_path):
        store = ProofStore(tmp_path)
        ts = _counter_ts()
        report = JAVerifier(ts).run()
        outcome = report.outcomes["P1"]
        outcome.status = PropStatus.UNKNOWN
        written = CacheResolver(store).record_outcomes(ts, report.outcomes)
        assert written == 1  # only P0 qualifies


class TestPoisoning:
    def _poison(self, store: ProofStore, mutate) -> str:
        [path] = [
            p
            for p in store.entries_dir.iterdir()
            if json.loads(p.read_text())["status"] == "holds"
        ]
        obj = json.loads(path.read_text())
        mutate(obj)
        path.write_text(json.dumps(obj))
        return obj["prop"]

    def test_flipped_invariant_literal_rejected(self, tmp_path):
        store = ProofStore(tmp_path)
        _populate(store, _counter_ts())
        # Flip one invariant literal: the clause now claims a latch is
        # TRUE in a design that initializes it FALSE.
        prop = self._poison(
            store, lambda obj: obj["invariant"].__setitem__(0, [-obj["invariant"][0][0]])
        )
        outcomes, remaining = CacheResolver(store).resolve(
            _counter_ts(), ["P0", "P1"]
        )
        assert prop in remaining  # degraded to a re-proof, not a verdict
        assert store.counters["certify_rejects"] == 1
        assert outcomes[("P0" if prop == "P1" else "P1")].engine == "cache"

    def test_swapped_status_rejected(self, tmp_path):
        store = ProofStore(tmp_path)
        _populate(store, _counter_ts())
        prop = self._poison(
            store, lambda obj: obj.update(status="fails", trace=None)
        )
        _, remaining = CacheResolver(store).resolve(_counter_ts(), ["P0", "P1"])
        assert prop in remaining

    def test_tampered_trace_rejected(self, tmp_path):
        store = ProofStore(tmp_path)
        _populate(store, _counter_ts())
        [path] = [
            p
            for p in store.entries_dir.iterdir()
            if json.loads(p.read_text())["status"] == "fails"
        ]
        obj = json.loads(path.read_text())
        obj["trace"]["inputs"] = []  # no frames: cannot witness a failure
        path.write_text(json.dumps(obj))
        _, remaining = CacheResolver(store).resolve(_counter_ts(), ["P0", "P1"])
        assert obj["prop"] in remaining

    def test_reproof_after_poison_gives_correct_verdict(self, tmp_path):
        store = ProofStore(tmp_path)
        _populate(store, _counter_ts())
        self._poison(store, lambda obj: obj["invariant"].clear() or obj[
            "invariant"
        ].append([1]))
        ts = _counter_ts()
        resolver = CacheResolver(store)
        outcomes, remaining = resolver.resolve(ts, ["P0", "P1"])
        report = JAVerifier(ts, VerificationConfig(order=remaining)).run()
        merged = dict(outcomes)
        merged.update(report.outcomes)
        assert merged["P0"].status is PropStatus.FAILS
        assert merged["P1"].status is PropStatus.HOLDS

    def test_a_record_written_for_another_design_is_served(self, tmp_path):
        # f104 and t135 share structurally identical cones, so those
        # properties' cone digests match across the two designs.  The
        # records f104 wrote are in cone coordinates, so they certify on
        # t135's cones (t135 has fewer latches) and are served.
        designs = {**failing_designs(), **all_true_designs()}
        Session(TransitionSystem(designs["f104"]), strategy="ja", cache_dir=str(tmp_path)).run()
        ts = TransitionSystem(designs["t135"])
        assert ts.num_state_vars < TransitionSystem(designs["f104"]).num_state_vars
        store = ProofStore(tmp_path)
        outcomes, remaining = CacheResolver(store).resolve(ts, [p.name for p in ts.properties])
        assert outcomes and store.counters["certify_rejects"] == 0
        assert len(outcomes) + len(remaining) == len(ts.properties)

        warm = Session(ts, strategy="ja", cache_dir=str(tmp_path)).run()
        cold = Session(TransitionSystem(designs["t135"]), strategy="ja").run()
        assert {n: o.status for n, o in warm.outcomes.items()} == {
            n: o.status for n, o in cold.outcomes.items()
        }


class TestIncremental:
    def test_out_of_cone_edit_still_hits(self, tmp_path):
        store = ProofStore(tmp_path)
        _populate(store, _two_cones(b_init=0))

        edited = _two_cones(b_init=1)  # Pb's cone changed, Pa's did not
        events = []
        outcomes, remaining = CacheResolver(store).resolve(
            edited, ["Pa", "Pb"], emit=events.append
        )
        assert list(outcomes) == ["Pa"]
        assert remaining == ["Pb"]
        [hit] = [e for e in events if e.kind == "cache-hit"]
        assert hit.name == "Pa"
        assert hit.exact_design is False  # cone-level hit on an edited design

    def test_edited_cone_reproves_and_recaches(self, tmp_path):
        store = ProofStore(tmp_path)
        _populate(store, _two_cones(b_init=0))
        edited = _two_cones(b_init=1)
        resolver = CacheResolver(store)
        _, remaining = resolver.resolve(edited, ["Pa", "Pb"])
        report = JAVerifier(edited, VerificationConfig(order=remaining)).run()
        assert report.outcomes["Pb"].status is PropStatus.FAILS
        resolver.record_outcomes(edited, report.outcomes)
        outcomes, remaining = resolver.resolve(_two_cones(b_init=1), ["Pa", "Pb"])
        assert remaining == []
        assert outcomes["Pb"].status is PropStatus.FAILS
