"""Tests for the IC3/PDR engine: verdicts, invariants, lifting, seeds."""

from __future__ import annotations

import pytest

from repro.circuit.aig import AIG, aig_not
from repro.engines.ic3 import IC3Options, SeedCertificateError, ic3_check
from repro.engines.result import PropStatus, ResourceBudget
from repro.gen.counter import buggy_counter, fixed_counter
from repro.gen.random_designs import random_design
from repro.sat import Solver, Status
from repro.ts.projection import ProjectedReachability, assumption_names
from repro.ts.system import TransitionSystem, negate_cube


def check_invariant(ts, prop_name, clauses, assumed=()):
    """Independent certificate check: I ⊆ F, F ∧ C ∧ T ⊆ F', F ⊆ P."""
    for clause in clauses:
        assert ts.clause_holds_at_init(clause)
    solver = Solver()
    enc = ts.encode_step(solver)
    for name in assumed:
        solver.add_clause([enc.prop_curr[name]])
    for clause in clauses:
        solver.add_clause(enc.clause_lits_curr(clause))
    for clause in clauses:
        cube = negate_cube(clause)
        assert solver.solve(enc.cube_lits_next(cube)) == Status.UNSAT
    bad = Solver()
    bad_enc = ts.encode_bad_frame(bad)
    for clause in clauses:
        bad.add_clause(bad_enc.clause_lits_curr(clause))
    assert bad.solve([-bad_enc.prop_curr[prop_name]]) == Status.UNSAT


class TestExample1:
    def test_p0_fails_globally(self, counter4):
        result = ic3_check(counter4, "P0")
        assert result.status is PropStatus.FAILS
        assert result.frames == 1

    def test_p1_fails_globally_with_deep_cex(self, counter4):
        result = ic3_check(counter4, "P1")
        assert result.status is PropStatus.FAILS
        assert len(result.cex) == 10  # shortest CEX: val reaches 9
        assert result.cex.validate(counter4.aig, counter4.prop_by_name["P1"].lit)

    def test_p1_holds_locally(self, counter4):
        result = ic3_check(counter4, "P1", IC3Options(assumed=("P0",)))
        assert result.status is PropStatus.HOLDS
        assert result.invariant is not None
        check_invariant(counter4, "P1", result.invariant, assumed=("P0",))

    def test_p0_fails_locally(self, counter4):
        result = ic3_check(counter4, "P0", IC3Options(assumed=("P1",)))
        assert result.status is PropStatus.FAILS
        assert result.frames == 1

    def test_local_proof_flat_in_counter_width(self):
        # The heart of Table I: the *global* CEX depth grows as 2^(bits-1)
        # but the local proof effort stays polynomial (frames grow at most
        # linearly, versus the exponential global trace length).
        for bits in (4, 6, 8):
            ts = TransitionSystem(buggy_counter(bits))
            result = ic3_check(ts, "P1", IC3Options(assumed=("P0",)))
            assert result.holds
            assert result.frames <= bits + 2

    def test_fixed_counter_p1_global_proof(self):
        ts = TransitionSystem(fixed_counter(4))
        result = ic3_check(ts, "P1")
        assert result.holds
        check_invariant(ts, "P1", result.invariant)


class TestVerdictsAgainstGroundTruth:
    def test_global_verdicts(self):
        for seed in range(40):
            ts = TransitionSystem(random_design(seed))
            gt = ProjectedReachability(ts)
            for prop in ts.properties:
                result = ic3_check(ts, prop.name)
                assert not result.unknown
                assert result.fails == gt.fails_globally(prop.name), (seed, prop.name)
                if result.holds:
                    check_invariant(ts, prop.name, result.invariant)

    def test_local_verdicts_respecting_lifting(self):
        # With constraint-respecting lifting there are no spurious CEXs:
        # the engine verdict equals the T^P ground truth directly.
        for seed in range(30):
            ts = TransitionSystem(random_design(seed))
            gt = ProjectedReachability(ts)
            for prop in ts.properties:
                assumed = assumption_names(ts, prop.name)
                result = ic3_check(
                    ts,
                    prop.name,
                    IC3Options(assumed=assumed, respect_constraints_in_lifting=True),
                )
                assert not result.unknown
                expected = gt.fails(prop.name, assumed)
                assert result.fails == expected, (seed, prop.name)
                if result.holds:
                    check_invariant(ts, prop.name, result.invariant, assumed)

    def test_ignoring_lifting_sound_for_proofs(self):
        # Ignoring constraints in lifting may yield spurious CEXs but a
        # HOLDS verdict is always correct, and every CEX is at least a
        # genuine *global* trace refuting the property at its last frame.
        for seed in range(30):
            ts = TransitionSystem(random_design(seed))
            gt = ProjectedReachability(ts)
            for prop in ts.properties:
                assumed = assumption_names(ts, prop.name)
                result = ic3_check(ts, prop.name, IC3Options(assumed=assumed))
                assert not result.unknown
                if result.holds:
                    assert not gt.fails(prop.name, assumed), (seed, prop.name)
                else:
                    assert result.cex.validate(ts.aig, prop.lit)

    def test_cex_not_shorter_than_bfs_optimum(self):
        for seed in range(20):
            ts = TransitionSystem(random_design(seed))
            gt = ProjectedReachability(ts)
            for prop in ts.properties:
                result = ic3_check(ts, prop.name)
                if result.fails:
                    assert len(result.cex) >= gt.min_cex_depth(prop.name, ())


class TestSeeds:
    def test_valid_seed_accepted_and_preserves_verdict(self, counter4):
        first = ic3_check(counter4, "P1", IC3Options(assumed=("P0",)))
        assert first.holds
        again = ic3_check(
            counter4,
            "P1",
            IC3Options(assumed=("P0",), seed_clauses=first.invariant),
        )
        assert again.holds
        check_invariant(counter4, "P1", again.invariant, assumed=("P0",))

    def test_seed_violating_init_rejected(self, counter4):
        # Clause "val[0]" is false at the initial state (val=0).
        with pytest.raises(ValueError):
            ic3_check(counter4, "P1", IC3Options(seed_clauses=[(1,)]))

    def test_poisoned_seed_raises_certificate_error(self):
        # Design: x free input feeds q; r counts one step behind.
        # Clause (-1,) ("q is always 0") holds at init but is NOT
        # inductive; a seeded run that converges must detect it.
        aig = AIG()
        x = aig.add_input("x")
        q = aig.add_latch("q", init=0)
        aig.set_next(q, x)
        aig.add_property("p", 1)  # trivially true property
        ts = TransitionSystem(aig)
        with pytest.raises(SeedCertificateError):
            ic3_check(ts, "p", IC3Options(seed_clauses=[(-1,)]))

    def test_invariant_exports_are_reusable_across_properties(self):
        # Clauses exported while proving one ring property seed the next.
        from repro.gen.blocks import token_ring_slice

        aig = AIG()
        names = token_ring_slice(aig, "r", 5)
        ts = TransitionSystem(aig)
        first = ic3_check(ts, names[0])
        assert first.holds and first.invariant
        second = ic3_check(
            ts, names[1], IC3Options(seed_clauses=first.invariant)
        )
        assert second.holds
        check_invariant(ts, names[1], second.invariant)


class TestBudgets:
    def test_conflict_budget_unknown(self, counter4):
        budget = ResourceBudget(conflict_limit=1)
        result = ic3_check(counter4, "P1", IC3Options(budget=budget))
        assert result.status is PropStatus.UNKNOWN

    def test_max_frames_unknown(self):
        ts = TransitionSystem(fixed_counter(5))
        result = ic3_check(ts, "P1", IC3Options(max_frames=1))
        assert result.status in (PropStatus.UNKNOWN, PropStatus.HOLDS)


class TestEdgeCases:
    def test_no_latches_combinational_true(self):
        aig = AIG()
        x = aig.add_input("x")
        aig.add_property("p", aig_not(aig.and_(x, aig_not(x))))
        result = ic3_check(TransitionSystem(aig), "p")
        assert result.holds

    def test_no_latches_combinational_false(self):
        aig = AIG()
        x = aig.add_input("x")
        aig.add_property("p", x)
        result = ic3_check(TransitionSystem(aig), "p")
        assert result.fails
        assert result.frames == 1

    def test_input_only_property_on_sequential_design(self):
        # The lift of a bad state may drop every latch; the engine must
        # not emit empty cubes (Example 1's P0 exercises this).
        aig = AIG()
        x = aig.add_input("x")
        q = aig.add_latch("q", init=0)
        aig.set_next(q, q)
        aig.add_property("p", x)
        result = ic3_check(TransitionSystem(aig), "p")
        assert result.fails and result.frames == 1

    def test_uninitialized_latch_cex(self):
        aig = AIG()
        q = aig.add_latch("q", init=None)
        aig.set_next(q, q)
        aig.add_property("p", aig_not(q))
        result = ic3_check(TransitionSystem(aig), "p")
        assert result.fails
        assert result.cex.uninit[q] is True

    def test_self_assumption_rejected(self, counter4):
        with pytest.raises(ValueError):
            ic3_check(counter4, "P1", IC3Options(assumed=("P1",)))

    def test_aig_constraints_respected(self):
        # With the constraint x==0 the latch can never rise: p holds.
        aig = AIG()
        x = aig.add_input("x")
        q = aig.add_latch("q", init=0)
        aig.set_next(q, x)
        aig.add_property("p", aig_not(q))
        aig.add_constraint(aig_not(x))
        result = ic3_check(TransitionSystem(aig), "p")
        assert result.holds
