"""Tests for the k-induction cross-check engine."""

from __future__ import annotations

from repro.circuit.aig import AIG, aig_not
from repro.engines.kinduction import kinduction_check
from repro.engines.result import PropStatus
from repro.gen.counter import buggy_counter, fixed_counter
from repro.gen.random_designs import random_design
from repro.ts.projection import ProjectedReachability
from repro.ts.system import TransitionSystem


class TestBasic:
    def test_inductive_property_proved_at_k0(self):
        aig = AIG()
        q = aig.add_latch("q", init=0)
        aig.set_next(q, q)
        aig.add_property("p", aig_not(q))
        result = kinduction_check(TransitionSystem(aig), "p")
        assert result.holds

    def test_counterexample_found(self, toggler):
        result = kinduction_check(toggler, "never_q", max_k=4)
        assert result.fails
        assert result.frames == 2

    def test_true_property(self, toggler):
        result = kinduction_check(toggler, "never_r", max_k=4)
        assert result.holds

    def test_counter_p1_fails(self, counter4):
        result = kinduction_check(counter4, "P1", max_k=16)
        assert result.fails
        assert result.frames == 10

    def test_counter_p1_local_holds(self, counter4):
        result = kinduction_check(counter4, "P1", max_k=16, assumed=["P0"])
        assert result.holds

    def test_fixed_counter_needs_uniqueness(self):
        # P1 on the fixed counter is not plain-inductive at small k but
        # provable with simple-path constraints on a finite system.
        ts = TransitionSystem(fixed_counter(3))
        result = kinduction_check(ts, "P1", max_k=24)
        assert result.holds

    def test_the_design_is_never_written(self, counter4):
        # The step case's free frame 0 once swapped every latch of the
        # shared design for an uninitialized copy and back.
        class Recording(list):
            writes = 0

            def __setitem__(self, index, value):
                Recording.writes += 1
                super().__setitem__(index, value)

        counter4.aig.latches = Recording(counter4.aig.latches)
        assert kinduction_check(counter4, "P1", max_k=16, assumed=["P0"]).holds
        assert Recording.writes == 0


class TestAgreesWithGroundTruth:
    def test_small_random_designs(self):
        for seed in range(15):
            ts = TransitionSystem(random_design(seed))
            gt = ProjectedReachability(ts)
            for prop in ts.properties:
                result = kinduction_check(ts, prop.name, max_k=18)
                expected_fail = gt.fails_globally(prop.name)
                if result.status is PropStatus.UNKNOWN:
                    continue  # k-induction may fail to converge; never wrong
                assert result.fails == expected_fail, (seed, prop.name)

    def test_agrees_with_ic3(self):
        from repro.engines.ic3 import ic3_check

        for seed in range(40, 55):
            ts = TransitionSystem(random_design(seed))
            for prop in ts.properties:
                kind = kinduction_check(ts, prop.name, max_k=18)
                if kind.status is PropStatus.UNKNOWN:
                    continue
                ic3 = ic3_check(ts, prop.name)
                assert kind.status == ic3.status, (seed, prop.name)
