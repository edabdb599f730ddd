"""Tests for random-simulation property sweeping."""

from __future__ import annotations

from repro.circuit.aig import AIG, aig_not
from repro.gen.counter import buggy_counter
from repro.gen.random_designs import random_design
from repro.multiprop.sweep import sweep, swept_ja_verify
from repro.ts.projection import ProjectedReachability
from repro.ts.system import TransitionSystem


class TestSweep:
    def test_finds_shallow_failures(self, counter4):
        result = sweep(counter4, runs=8, depth=4, seed=1)
        assert "P0" in result.failed  # req==1 fails on almost any stimulus

    def test_witnesses_validate(self, counter4):
        result = sweep(counter4, runs=16, depth=24, seed=2)
        for name, trace in result.failed.items():
            prop = counter4.prop_by_name[name]
            assert trace.validate(counter4.aig, prop.lit), name

    def test_never_false_positives(self):
        # Anything the sweep calls failed must be globally false.
        for seed in range(20):
            ts = TransitionSystem(random_design(seed))
            gt = ProjectedReachability(ts)
            result = sweep(ts, runs=16, depth=12, seed=seed)
            for name in result.failed:
                assert gt.fails_globally(name), (seed, name)

    def test_survivors_plus_failed_cover_all(self, counter4):
        result = sweep(counter4, runs=4, depth=4, seed=0)
        assert set(result.survivors) | set(result.failed) == {"P0", "P1"}

    def test_deterministic(self, counter4):
        a = sweep(counter4, runs=8, depth=8, seed=5)
        b = sweep(counter4, runs=8, depth=8, seed=5)
        assert sorted(a.failed) == sorted(b.failed)
        assert a.frames_simulated == b.frames_simulated

    def test_respects_constraints(self):
        # With the constraint req==0, P0-like failures are mandatory but
        # runs that violate the constraint must be abandoned.
        aig = AIG()
        x = aig.add_input("x")
        q = aig.add_latch("q", init=0)
        aig.set_next(q, x)
        aig.add_property("p", aig_not(q))
        aig.add_constraint(aig_not(x))
        ts = TransitionSystem(aig)
        result = sweep(ts, runs=16, depth=8, seed=0)
        # q can never rise under the constraint: no witness may exist.
        assert "p" not in result.failed


class TestSweptJA:
    def test_verdicts_match_plain_ja(self, counter4):
        from repro.multiprop.ja import ja_verify

        swept = swept_ja_verify(counter4)
        plain = ja_verify(counter4)
        assert swept.debugging_set() == plain.debugging_set()
        assert swept.method == "sweep-ja"
        assert swept.stats["sweep_failed"] >= 1
