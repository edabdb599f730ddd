"""Tests for the COI front end and CTG generalization inside JA-verification."""

from __future__ import annotations

from repro.engines.ic3 import IC3Options, ic3_check
from repro.gen.counter import buggy_counter
from repro.gen.random_designs import random_design
from repro.multiprop.ja import JAVerifier, ja_verify
from repro.session import VerificationConfig
from repro.ts.projection import ProjectedReachability
from repro.ts.system import TransitionSystem


class TestCoiJA:
    def test_verdicts_unchanged_on_random_designs(self):
        for seed in range(40):
            ts = TransitionSystem(random_design(seed))
            gt = ProjectedReachability(ts)
            report = ja_verify(ts, VerificationConfig(coi_reduction=True))
            assert not report.unsolved(), seed
            assert report.debugging_set() == sorted(gt.debugging_set()), seed

    def test_example1_input_coupling_preserved(self):
        # P0 and P1 interact only through the `req` input; the COI fixpoint
        # must keep P0 as an assumption when reducing for P1.
        ts = TransitionSystem(buggy_counter(5))
        report = ja_verify(ts, VerificationConfig(coi_reduction=True))
        assert report.debugging_set() == ["P0"]
        assert report.true_props() == ["P1"]
        assert report.outcomes["P1"].assumed == ["P0"]

    def test_coi_prunes_disjoint_designs(self):
        # On a design of disjoint slices, each local proof sees only its
        # own slice: its solvers load far fewer clauses (424 vs 2,500).
        from repro.circuit.aig import AIG
        from repro.gen.blocks import hold_slice, lfsr_ballast, token_ring_slice

        aig = AIG()
        lfsr_ballast(aig, "b", 30, 6)
        hold_slice(aig, "z", 8)
        token_ring_slice(aig, "r", 4)
        ts = TransitionSystem(aig)
        plain = JAVerifier(ts)
        reduced = JAVerifier(ts, VerificationConfig(coi_reduction=True))
        assert plain.run().true_props() == reduced.run().true_props()

        def insertions(verifier):
            return sum(r.stats["clause_insertions"] for r in verifier.results.values())

        assert 4 * insertions(reduced) < insertions(plain)

    def test_coi_cex_validates_on_original(self):
        from repro.multiprop.ja import JAVerifier

        for seed in range(15):
            ts = TransitionSystem(random_design(seed))
            verifier = JAVerifier(ts, VerificationConfig(coi_reduction=True))
            verifier.run()
            for name, result in verifier.results.items():
                if result.cex is not None:
                    prop = ts.prop_by_name[name]
                    assert result.cex.validate(ts.aig, prop.lit), (seed, name)

    def test_coi_invariants_translate_back(self):
        from repro.engines.certify import certify_invariant
        from repro.multiprop.ja import JAVerifier

        ts = TransitionSystem(buggy_counter(4))
        verifier = JAVerifier(ts, VerificationConfig(coi_reduction=True))
        verifier.run()
        result = verifier.results["P1"]
        assert result.holds
        report = certify_invariant(ts, "P1", result.invariant, assumed=("P0",))
        assert report.valid, report.reason


class TestCtg:
    def test_verdicts_unchanged(self):
        for seed in range(30):
            ts = TransitionSystem(random_design(seed))
            gt = ProjectedReachability(ts)
            for prop in ts.properties:
                result = ic3_check(ts, prop.name, IC3Options(ctg=True))
                assert not result.unknown
                assert result.fails == gt.fails_globally(prop.name), (seed, prop.name)

    def test_ctg_triggers_on_token_ring(self):
        # Token rings make generalization fail on counterexamples-to-
        # generalization; the CTG path must fire and block them.
        from repro.circuit.aig import AIG
        from repro.gen.blocks import token_ring_slice

        aig = AIG()
        names = token_ring_slice(aig, "r", 8)
        ts = TransitionSystem(aig)
        result = ic3_check(ts, names[0], IC3Options(ctg=True))
        assert result.holds
        assert result.stats.get("ctg_blocked", 0) > 0

    def test_ctg_with_ja(self, counter4):
        report = ja_verify(counter4, VerificationConfig(ctg=True))
        assert report.debugging_set() == ["P0"]
