"""``Solver.add_block``: the bulk clause loader equals sequential loading.

The contract is state equality, not just equisatisfiability: after a
block is loaded the solver must hold what ``new_var`` x n followed by
one ``add_clause`` per clause would have left (stored clauses and their
literal order, watch lists, root trail with reasons, counters), so that
every later search is bit-identical.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.encode.cnf import CnfBuilder
from repro.sat import CompactSolver, Solver, Status
from tests.conftest import random_cnf, solver_state


def sequential(solver: Solver, num_vars: int, clauses) -> Solver:
    for _ in range(num_vars):
        solver.new_var()
    for clause in clauses:
        solver.add_clause(clause)
    return solver


def bulk(solver: Solver, num_vars: int, clauses) -> Solver:
    cnf = CnfBuilder()
    cnf.num_vars = num_vars
    cnf.add_all(clauses)
    block = cnf.freeze()
    assert block.num_vars == num_vars
    base = solver.num_vars
    assert solver.add_block(block.num_vars, block.clauses) == base
    return solver


def shifted(clauses, base: int):
    return [[lit + base if lit > 0 else lit - base for lit in clause] for clause in clauses]


def _random_cnf(seed: int):
    """Units, duplicate literals and (often) root contradictions included;
    tautologies are not, because ``freeze`` drops them (tests/encode)."""
    num_vars, clauses = random_cnf(random.Random(seed), max_vars=7, max_clauses=25)
    return num_vars, [c for c in clauses if not any(-lit in c for lit in c)]


CNFS = st.integers(min_value=0, max_value=2**32).map(_random_cnf)


class TestEqualsSequential:
    @settings(max_examples=150, deadline=None)
    @given(CNFS)
    def test_fresh_solver(self, cnf):
        num_vars, clauses = cnf
        assert solver_state(bulk(Solver(), num_vars, clauses)) == solver_state(
            sequential(Solver(), num_vars, clauses)
        )

    @settings(max_examples=100, deadline=None)
    @given(CNFS, CNFS)
    def test_second_block_at_nonzero_base(self, first, second):
        expected, actual = Solver(), Solver()
        sequential(expected, *first)
        sequential(actual, *first)
        base = expected.num_vars
        sequential(expected, second[0], shifted(second[1], base))
        bulk(actual, *second)
        assert solver_state(actual) == solver_state(expected)

    @settings(max_examples=60, deadline=None)
    @given(CNFS, st.lists(st.integers(min_value=-7, max_value=7).filter(bool), max_size=4))
    def test_search_after_loading_is_identical(self, cnf, assumptions):
        num_vars, clauses = cnf
        assumptions = [lit for lit in assumptions if abs(lit) <= num_vars]
        expected = sequential(Solver(), num_vars, clauses)
        actual = bulk(Solver(), num_vars, clauses)
        assert actual.solve(assumptions) == expected.solve(assumptions)
        assert actual.model() == expected.model()
        assert actual.core() == expected.core()
        assert solver_state(actual) == solver_state(expected)

    def test_compact_backend_inherits_it(self):
        num_vars, clauses = _random_cnf(5)
        assert solver_state(bulk(CompactSolver(), num_vars, clauses)) == solver_state(
            sequential(CompactSolver(), num_vars, clauses)
        )


class TestUnitsAndContradictions:
    def test_unit_block_propagates_at_root(self):
        solver = bulk(Solver(), 3, [[-1, 2], [-2, 3], [1]])
        assert solver.ok
        assert [lit >> 1 for lit in solver._trail] == [0, 1, 2]
        assert solver.solve([-3]) is Status.UNSAT

    def test_clauses_after_a_unit_are_simplified(self):
        solver = bulk(Solver(), 3, [[1], [1, 2], [-1, 2, 3]])
        # [1, 2] is satisfied at root and dropped; [-1, 2, 3] loses -1.
        assert [list(clause) for clause in solver._clauses] == [[2, 4]]

    def test_contradictory_units_make_the_solver_not_ok(self):
        solver = bulk(Solver(), 2, [[1], [-1], [1, 2]])
        assert not solver.ok
        # Counted up to and including the contradiction, like add_clause.
        assert solver.stats()["clauses_added"] == 2
        assert solver_state(solver) == solver_state(
            sequential(Solver(), 2, [[1], [-1], [1, 2]])
        )
        assert solver.solve() is Status.UNSAT

    def test_already_not_ok_solver_takes_variables_only(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert not solver.ok
        before = solver.stats()["clauses_added"]
        assert solver.add_block(2, ((0, 2),)) == 1
        assert solver.num_vars == 3
        assert solver.stats()["clauses_added"] == before
        assert solver.num_clauses() == 0

    def test_above_decision_level_zero_raises_and_changes_nothing(self):
        solver = sequential(Solver(), 2, [[1, 2]])
        solver._trail_lim.append(len(solver._trail))
        before = solver_state(solver)
        with pytest.raises(RuntimeError, match="decision level 0"):
            solver.add_block(2, ((0, 2),))
        assert solver_state(solver) == before

    def test_clauses_added_grows_by_the_clauses_loaded(self):
        # IC3.stats["clause_insertions"] sums this counter, so Table
        # VII's reuse-on/off comparison keeps counting loaded clauses.
        solver = Solver()
        solver.add_clause([1, 2])
        bulk(solver, 3, [[1, 2], [-2, 3], [2, -3], [3]])
        assert solver.stats()["clauses_added"] == 1 + 4

    def test_empty_block(self):
        solver = Solver()
        assert solver.add_block(0, ()) == 0
        assert solver_state(solver) == solver_state(Solver())
