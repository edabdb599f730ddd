"""Unit tests for the CDCL solver core."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.sat import Solver, Status, luby
from tests.conftest import brute_force_sat, random_cnf


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert Solver().solve() == Status.SAT

    def test_unit_clause(self):
        s = Solver()
        assert s.add_clause([3])
        assert s.solve() == Status.SAT
        assert s.value(3) is True
        assert s.value(-3) is False

    def test_contradictory_units(self):
        s = Solver()
        assert s.add_clause([1])
        assert not s.add_clause([-1])
        assert s.solve() == Status.UNSAT
        assert not s.ok

    def test_tautology_is_dropped(self):
        s = Solver()
        assert s.add_clause([1, -1])
        assert s.num_clauses() == 0
        assert s.solve() == Status.SAT

    def test_duplicate_literals_collapse(self):
        s = Solver()
        assert s.add_clause([2, 2, 2])
        assert s.solve() == Status.SAT
        assert s.value(2) is True

    def test_empty_clause_rejected(self):
        s = Solver()
        assert not s.add_clause([])
        assert s.solve() == Status.UNSAT

    def test_model_satisfies_formula(self):
        s = Solver()
        clauses = [[1, 2], [-1, 3], [-2, -3], [2, 3]]
        for c in clauses:
            s.add_clause(c)
        assert s.solve() == Status.SAT
        for c in clauses:
            assert any(s.value(l) for l in c)

    def test_add_clause_after_solve(self):
        s = Solver()
        s.add_clause([1, 2])
        assert s.solve() == Status.SAT
        s.add_clause([-1])
        s.add_clause([-2])
        assert s.solve() == Status.UNSAT

    def test_new_var_indices_are_sequential(self):
        s = Solver()
        assert [s.new_var() for _ in range(3)] == [1, 2, 3]


class TestPigeonhole:
    @staticmethod
    def php(n_pigeons: int, n_holes: int) -> Solver:
        s = Solver()

        def var(p: int, h: int) -> int:
            return p * n_holes + h + 1

        for p in range(n_pigeons):
            s.add_clause([var(p, h) for h in range(n_holes)])
        for h in range(n_holes):
            for p1 in range(n_pigeons):
                for p2 in range(p1 + 1, n_pigeons):
                    s.add_clause([-var(p1, h), -var(p2, h)])
        return s

    def test_php_4_3_unsat(self):
        assert self.php(4, 3).solve() == Status.UNSAT

    def test_php_6_5_unsat(self):
        assert self.php(6, 5).solve() == Status.UNSAT

    def test_php_5_5_sat(self):
        assert self.php(5, 5).solve() == Status.SAT


class TestAssumptions:
    def test_failed_assumption_core(self):
        s = Solver()
        s.add_clause([-1, -2])
        assert s.solve([1, 2]) == Status.UNSAT
        core = s.core()
        assert core and core <= {1, 2}

    def test_solver_usable_after_assumption_unsat(self):
        s = Solver()
        s.add_clause([-1, -2])
        assert s.solve([1, 2]) == Status.UNSAT
        assert s.solve([1]) == Status.SAT
        assert s.value(2) is False
        assert s.solve([2]) == Status.SAT

    def test_assumption_conflicting_with_unit(self):
        s = Solver()
        s.add_clause([5])
        assert s.solve([-5]) == Status.UNSAT
        assert s.core() == frozenset({-5})

    def test_core_is_sufficient(self):
        # x1 & x2 -> conflict via chain; x3 irrelevant.
        s = Solver()
        s.add_clause([-1, 4])
        s.add_clause([-2, -4])
        assert s.solve([1, 2, 3]) == Status.UNSAT
        core = s.core()
        assert 3 not in core
        assert core <= {1, 2}

    def test_assumptions_dont_persist(self):
        s = Solver()
        s.add_clause([1, 2])
        assert s.solve([-1]) == Status.SAT
        assert s.value(2) is True
        assert s.solve([-2]) == Status.SAT
        assert s.value(1) is True


class TestBudgets:
    def test_conflict_budget_returns_unknown(self):
        s = TestPigeonhole.php(8, 7)
        s.set_budget(conflicts=5)
        assert s.solve() == Status.UNKNOWN

    def test_budget_resets_per_call(self):
        s = TestPigeonhole.php(4, 3)
        s.set_budget(conflicts=1)
        assert s.solve() == Status.UNKNOWN
        s.set_budget(conflicts=None)
        assert s.solve() == Status.UNSAT


class TestLuby:
    def test_prefix(self):
        assert [luby(2, i) for i in range(10)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2]

    def test_scaling(self):
        assert luby(3.0, 2) == 3.0
        assert luby(3.0, 6) == 9.0


class TestRandomizedAgainstBruteForce:
    def test_random_instances(self):
        rng = random.Random(2024)
        for _ in range(400):
            num_vars, clauses = random_cnf(rng)
            s = Solver()
            ok = all(s.add_clause(c) for c in clauses)
            got = s.solve() if ok else Status.UNSAT
            expected = brute_force_sat(num_vars, clauses)
            assert (got == Status.SAT) == expected
            if got == Status.SAT:
                for c in clauses:
                    assert any(s.value(l) for l in c)

    def test_random_incremental_with_assumptions(self):
        rng = random.Random(77)
        for _ in range(150):
            num_vars, clauses = random_cnf(rng)
            s = Solver()
            ok = all(s.add_clause(c) for c in clauses)
            for _ in range(4):
                assumps = sorted(
                    {rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(rng.randint(0, 3))}
                )
                if not ok:
                    break
                got = s.solve(assumps)
                expected = brute_force_sat(
                    num_vars, list(clauses) + [[a] for a in assumps]
                )
                assert (got == Status.SAT) == expected
                if got == Status.UNSAT and assumps:
                    core = s.core()
                    assert core <= set(assumps)
                    assert not brute_force_sat(
                        num_vars, list(clauses) + [[a] for a in core]
                    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hypothesis_sat_matches_brute_force(data):
    """Property-based: solver verdict always matches exhaustive search."""
    num_vars = data.draw(st.integers(min_value=1, max_value=6))
    clauses = data.draw(
        st.lists(
            st.lists(
                st.integers(min_value=1, max_value=num_vars).flatmap(
                    lambda v: st.sampled_from([v, -v])
                ),
                min_size=1,
                max_size=3,
            ),
            min_size=0,
            max_size=20,
        )
    )
    s = Solver()
    ok = all(s.add_clause(c) for c in clauses)
    got = s.solve() if ok else Status.UNSAT
    assert (got == Status.SAT) == brute_force_sat(num_vars, clauses)
