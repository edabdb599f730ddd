"""Tests for JA-verification: debugging sets, spurious CEXs, ETF, reuse."""

from __future__ import annotations

import pytest

from repro.circuit.aig import AIG, aig_not
from repro.engines.result import PropStatus
from repro.gen.blocks import guarded_counter_slice, token_ring_slice
from repro.gen.random_designs import random_design
from repro.cache import ProofStore, design_digest
from repro.multiprop.ja import WARM_LOG, JAVerifier, ja_verify
from repro.progress import ClauseImport
from repro.session import ConfigError, VerificationConfig
from repro.ts.projection import ProjectedReachability
from repro.ts.system import TransitionSystem


class TestExample1:
    def test_debugging_set_is_p0(self, counter4):
        report = ja_verify(counter4)
        assert report.debugging_set() == ["P0"]
        assert report.true_props() == ["P1"]
        assert not report.unsolved()

    def test_outcomes_are_local(self, counter4):
        report = ja_verify(counter4)
        assert all(o.local for o in report.outcomes.values())

    def test_p0_cex_is_shallow(self, counter4):
        report = ja_verify(counter4)
        assert report.outcomes["P0"].cex_depth == 1

    def test_assumed_sets_recorded(self, counter4):
        report = ja_verify(counter4)
        assert report.outcomes["P0"].assumed == ["P1"]
        assert report.outcomes["P1"].assumed == ["P0"]


class TestAgainstGroundTruth:
    def test_debugging_sets_match_explicit_semantics(self):
        for seed in range(50):
            ts = TransitionSystem(random_design(seed))
            gt = ProjectedReachability(ts)
            report = ja_verify(ts)
            assert not report.unsolved(), seed
            assert report.debugging_set() == sorted(gt.debugging_set()), seed

    def test_both_lifting_modes_agree(self):
        for seed in range(25):
            ts = TransitionSystem(random_design(seed))
            fast = ja_verify(ts, VerificationConfig(respect_constraints_in_lifting=False))
            slow = ja_verify(ts, VerificationConfig(respect_constraints_in_lifting=True))
            assert fast.debugging_set() == slow.debugging_set(), seed

    def test_spurious_reruns_happen_and_are_corrected(self):
        # Across many random designs, ignore-mode lifting must trigger at
        # least one spurious re-run, and the final verdicts still match.
        total_reruns = 0
        for seed in range(50):
            ts = TransitionSystem(random_design(seed))
            report = ja_verify(ts)
            total_reruns += int(report.stats["spurious_reruns"])
        assert total_reruns > 0

    def test_clause_reuse_does_not_change_verdicts(self):
        for seed in range(30):
            ts = TransitionSystem(random_design(seed))
            with_reuse = ja_verify(ts, VerificationConfig(clause_reuse=True))
            without = ja_verify(ts, VerificationConfig(clause_reuse=False))
            for name in with_reuse.outcomes:
                assert (
                    with_reuse.outcomes[name].status
                    == without.outcomes[name].status
                ), (seed, name)


class TestSimultaneousFailure:
    def test_both_properties_in_debugging_set(self):
        # Properties that only fail together must BOTH fail locally
        # (Proposition 5 corner case; see tests/ts/test_projection.py).
        aig = AIG()
        x = aig.add_input("x")
        q = aig.add_latch("q", init=0)
        aig.set_next(q, x)
        aig.add_property("A", aig_not(q))
        aig.add_property("B", aig_not(q))
        report = ja_verify(TransitionSystem(aig))
        assert report.debugging_set() == ["A", "B"]


class TestETF:
    @staticmethod
    def _design_with_etf():
        # An ETF property (reachability goal) plus an ETH property that
        # fails only after the ETF one does.
        aig = AIG()
        x = aig.add_input("x")
        q = aig.add_latch("q", init=0)  # becomes 1 when x pulses
        aig.set_next(q, aig.or_(q, x))
        r = aig.add_latch("r", init=0)  # follows q one cycle later
        aig.set_next(r, q)
        aig.add_property("etf_q_reachable", aig_not(q), expected_to_fail=True)
        aig.add_property("eth_r_stays_0", aig_not(r))
        return TransitionSystem(aig)

    def test_etf_not_assumed(self):
        ts = self._design_with_etf()
        report = ja_verify(ts)
        # The ETH property fails only after the ETF property has failed;
        # because ETF properties are never assumed, the ETH failure must
        # still be found (excluding those traces would be "a mistake").
        assert report.outcomes["eth_r_stays_0"].status is PropStatus.FAILS
        assert report.outcomes["etf_q_reachable"].status is PropStatus.FAILS

    def test_etf_failures_not_in_debugging_set(self):
        ts = self._design_with_etf()
        report = ja_verify(ts)
        assert report.debugging_set() == ["eth_r_stays_0"]
        assert report.etf_confirmed() == ["etf_q_reachable"]

    def test_etf_unconfirmed_warning(self):
        # An ETF property that actually holds: the narrative must warn.
        from repro.multiprop.debugging import debugging_report

        aig = AIG()
        q = aig.add_latch("q", init=0)
        aig.set_next(q, q)  # q can never rise
        aig.add_property("etf_unreachable", aig_not(q), expected_to_fail=True)
        aig.add_property("eth_fine", aig_not(q))
        report = debugging_report(ja_verify(TransitionSystem(aig)))
        assert report.etf_unconfirmed == ["etf_unreachable"]
        assert "WARNING" in report.narrative()

    def test_etf_cex_respects_eth_assumptions(self):
        # When solving the ETF property, ETH properties are assumed: the
        # CEX for the ETF property must not break any ETH property first.
        ts = self._design_with_etf()
        verifier = JAVerifier(ts)
        report = verifier.run()
        cex = verifier.results["etf_q_reachable"].cex
        eth = {"eth_r_stays_0": ts.prop_by_name["eth_r_stays_0"].lit}
        frame, _ = cex.first_failures(ts.aig, eth)
        assert frame is None or frame >= len(cex) - 1


class TestOptions:
    def test_order_override(self, counter4):
        report = ja_verify(counter4, VerificationConfig(order=["P1", "P0"]))
        assert set(report.outcomes) == {"P0", "P1"}

    def test_bad_order_rejected(self, counter4):
        with pytest.raises(ConfigError):
            ja_verify(counter4, VerificationConfig(order=["nope"]))

    def test_per_property_budget_gives_unknown(self):
        aig = AIG()
        guarded_counter_slice(aig, "s", 6, 2, [20, 30])
        ts = TransitionSystem(aig)
        report = ja_verify(ts, VerificationConfig(per_property_time=0.0))
        assert report.unsolved()

    def test_total_time_budget(self, counter4):
        report = ja_verify(counter4, VerificationConfig(total_time=0.0))
        assert len(report.unsolved()) == 2

    def test_clause_db_persisted(self, counter4, tmp_path):
        """The clause DB outlives the run as the design's warm log, and
        seeds the next run's, unless reuse or the cache is off."""
        first = JAVerifier(counter4)
        first.run()
        assert len(first.clause_db) > 0
        ProofStore(str(tmp_path)).save_warm(
            design_digest(counter4), counter4, first.clause_db.clauses()
        )

        def warm_start(**config):
            events = []
            verifier = JAVerifier(
                counter4, VerificationConfig(cache_dir=str(tmp_path), **config), events.append
            )
            verifier.run()
            imports = [e.count for e in events if isinstance(e, ClauseImport) and e.name == WARM_LOG]
            return imports, verifier.clause_db.clauses()

        imports, clauses = warm_start()
        assert imports == [len(first.clause_db)]
        assert clauses[: len(first.clause_db)] == first.clause_db.clauses()
        assert warm_start(cache_mode="read")[0] == imports
        assert warm_start(clause_reuse=False) == ([], [])
        assert warm_start(cache_mode="off")[0] == []


class TestGuardedSliceStructure:
    def test_guard_in_debug_set_dependents_locally_true(self):
        aig = AIG()
        names = guarded_counter_slice(aig, "s", 4, 2, [3, 5])
        ts = TransitionSystem(aig)
        report = ja_verify(ts)
        assert report.debugging_set() == ["s_G"]
        for name in names:
            if name != "s_G":
                assert report.outcomes[name].status is PropStatus.HOLDS

    def test_ring_all_true(self):
        aig = AIG()
        names = token_ring_slice(aig, "r", 5)
        report = ja_verify(TransitionSystem(aig))
        assert not report.debugging_set()
        assert report.true_props() == sorted(names)
