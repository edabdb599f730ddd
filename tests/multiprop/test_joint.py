"""Tests for joint verification (Jnt-ver analogue)."""

from __future__ import annotations

from repro.cache.hashing import design_digest
from repro.circuit.aig import AIG, aig_not
from repro.gen import buggy_counter
from repro.gen.random_designs import random_design
from repro.multiprop.clustering import clustered_verify
from repro.multiprop.joint import joint_verify
from repro.session import VerificationConfig
from repro.ts.projection import ProjectedReachability
from repro.ts.system import TransitionSystem


class TestExample1:
    def test_finds_both_failures(self, counter4):
        report = joint_verify(counter4)
        assert report.false_props() == ["P0", "P1"]
        assert report.stats["iterations"] == 2

    def test_verdicts_are_global(self, counter4):
        report = joint_verify(counter4)
        assert all(not o.local for o in report.outcomes.values())
        assert report.debugging_set() == []  # global method: no debug info

    def test_order_names_the_properties_to_prove(self, counter4):
        report = joint_verify(counter4, VerificationConfig(order=["P1"]))
        assert list(report.outcomes) == ["P1"]
        assert report.false_props() == ["P1"]


class TestAgainstGroundTruth:
    def test_complete_on_small_designs(self):
        for seed in range(40):
            ts = TransitionSystem(random_design(seed))
            gt = ProjectedReachability(ts)
            report = joint_verify(ts)
            assert not report.unsolved(), seed
            expected_false = sorted(
                p.name for p in ts.properties if gt.fails_globally(p.name)
            )
            assert report.false_props() == expected_false, seed

    def test_cex_depths_non_decreasing_across_iterations(self):
        # Jnt-ver removes refuted properties and re-runs; later CEXs can
        # only be deeper or equal (the first failure frame of the shrunken
        # aggregate cannot get earlier).
        for seed in range(20):
            ts = TransitionSystem(random_design(seed))
            report = joint_verify(ts)
            depths = [
                o.cex_depth
                for o in report.outcomes.values()  # insertion = discovery order
                if o.cex_depth is not None
            ]
            assert depths == sorted(depths), seed


class TestBudgets:
    def test_zero_budget_reports_all_unknown(self, counter4):
        report = joint_verify(counter4, VerificationConfig(total_time=0.0))
        assert len(report.unsolved()) == 2

    def test_conflict_budget(self):
        aig = random_design(3)
        ts = TransitionSystem(aig)
        report = joint_verify(ts, VerificationConfig(total_conflicts=0))
        # With a zero conflict budget at most the trivial iteration runs.
        assert len(report.outcomes) == len(ts.properties)


class TestAllTrue:
    def test_single_iteration_when_all_hold(self):
        aig = AIG()
        q = aig.add_latch("q", init=0)
        aig.set_next(q, q)
        aig.add_property("a", aig_not(q))
        r = aig.add_latch("r", init=1)
        aig.set_next(r, r)
        aig.add_property("b", r)
        report = joint_verify(TransitionSystem(aig))
        assert report.true_props() == ["a", "b"]
        assert report.stats["iterations"] == 1

    def test_aggregate_not_registered_on_design(self, counter4):
        n_before = len(counter4.aig.properties)
        joint_verify(counter4)
        assert len(counter4.aig.properties) == n_before

    def test_the_design_is_left_as_it_was(self):
        # The aggregates are built on a private copy of the AIG: a joint
        # or clustered run leaves the caller's design, and its digest,
        # untouched, run after run, with the same verdicts each time.
        ts = TransitionSystem(buggy_counter(4))
        ands, digest = ts.aig.stats()["ands"], design_digest(ts)
        for verify in (joint_verify, clustered_verify, joint_verify):
            report = verify(ts)
            assert report.false_props() == ["P0", "P1"]
            assert ts.aig.stats()["ands"] == ands
            assert design_digest(ts) == digest
