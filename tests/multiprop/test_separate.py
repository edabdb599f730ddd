"""Tests for separate verification with global proofs."""

from __future__ import annotations

from repro.engines.result import PropStatus
from repro.gen.counter import buggy_counter
from repro.gen.random_designs import random_design
from repro.multiprop.ja import separate_verify
from repro.session import VerificationConfig
from repro.ts.projection import ProjectedReachability
from repro.ts.system import TransitionSystem


class TestExample1:
    def test_both_properties_fail_globally(self, counter4):
        report = separate_verify(counter4)
        assert report.false_props() == ["P0", "P1"]
        assert report.outcomes["P0"].cex_depth == 1
        assert report.outcomes["P1"].cex_depth == 10

    def test_verdicts_are_global(self, counter4):
        report = separate_verify(counter4)
        assert all(not o.local for o in report.outcomes.values())


class TestAgainstGroundTruth:
    def test_matches_explicit_semantics(self):
        for seed in range(35):
            ts = TransitionSystem(random_design(seed))
            gt = ProjectedReachability(ts)
            report = separate_verify(ts)
            assert not report.unsolved(), seed
            expected = sorted(
                p.name for p in ts.properties if gt.fails_globally(p.name)
            )
            assert report.false_props() == expected, seed

    def test_reuse_does_not_change_verdicts(self):
        for seed in range(25):
            ts = TransitionSystem(random_design(seed))
            with_reuse = separate_verify(ts, VerificationConfig(clause_reuse=True))
            without = separate_verify(ts, VerificationConfig(clause_reuse=False))
            for name in with_reuse.outcomes:
                assert (
                    with_reuse.outcomes[name].status == without.outcomes[name].status
                ), (seed, name)

    def test_agrees_with_ja_on_correct_designs(self):
        # On designs where nothing fails, local and global verdicts match.
        from repro.multiprop.ja import ja_verify

        for seed in range(30):
            ts = TransitionSystem(random_design(seed))
            sep = separate_verify(ts)
            if sep.false_props():
                continue
            ja = ja_verify(ts)
            assert ja.true_props() == sep.true_props(), seed


class TestBudgets:
    def test_per_property_conflicts(self):
        ts = TransitionSystem(random_design(0))
        report = separate_verify(ts, VerificationConfig(per_property_conflicts=0))
        # Tiny designs may still solve within the first unbudgeted query;
        # the run must at least terminate with a verdict for everything.
        assert len(report.outcomes) == len(ts.properties)

    def test_total_time_zero(self, counter4):
        report = separate_verify(counter4, VerificationConfig(total_time=0.0))
        assert len(report.unsolved()) == 2

    def test_total_conflicts_bound_the_run(self):
        # P1's global counterexample takes hundreds of conflicts at 8 bits.
        ts = TransitionSystem(buggy_counter(8))
        report = separate_verify(ts, VerificationConfig(total_conflicts=50))
        assert report.outcomes["P0"].status is PropStatus.FAILS
        assert report.outcomes["P1"].status is PropStatus.UNKNOWN

    def test_order_respected(self, counter4):
        report = separate_verify(counter4, VerificationConfig(order=["P1", "P0"]))
        assert list(report.outcomes) == ["P1", "P0"]
