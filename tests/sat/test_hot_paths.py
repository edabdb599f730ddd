"""The solver's hot paths: in-place watch compaction and the decision heap.

``test_search_identity`` pins *what* the search does; this file checks
the structures the fast paths maintain while doing it:

* the decision heap holds exactly one current entry per unassigned
  variable, ``_in_heap`` says so, and the heap stays bounded however
  long a solver lives (it used to grow by one entry per cancelled
  variable and shrink only on a SAT answer);
* ``_propagate`` compacts a watch list in place without reordering what
  stays, also when a conflict cuts the scan short.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import Solver, Status
from repro.sat.types import UNASSIGNED
from tests.conftest import brute_force_sat, three_cnf


def heap_bound(solver: Solver) -> int:
    return 2 * solver.num_vars + 64


def check_heap(solver: Solver) -> None:
    """The decision-heap invariant, as it must hold between solves."""
    assert not solver._trail_lim
    heap = solver._order_heap
    entries = Counter(heap)
    assert all(heap[(i - 1) >> 1] <= heap[i] for i in range(1, len(heap)))
    assert len(heap) <= heap_bound(solver)
    for var in range(solver.num_vars):
        current = entries[(-solver._activity[var], var)]
        assert solver._in_heap[var] == (current > 0), var
        if var >= solver._heap_seeded:
            assert current == 0, var  # created since the last solve
        elif solver._assign[var] == UNASSIGNED:
            assert current == 1, var


# ----------------------------------------------------------------------
# Heap invariant under random incremental use
# ----------------------------------------------------------------------
MAX_VARS = 8

_LIT = st.integers(min_value=1, max_value=MAX_VARS).flatmap(
    lambda v: st.sampled_from([v, -v])
)
_CLAUSE = st.lists(_LIT, min_size=1, max_size=4)
_STEP = st.one_of(
    st.tuples(st.just("add"), st.lists(_CLAUSE, min_size=1, max_size=6)),
    st.tuples(st.just("solve"), st.lists(_LIT, max_size=3, unique_by=abs)),
    st.tuples(st.just("group"), st.lists(_CLAUSE, min_size=1, max_size=3)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_STEP, min_size=1, max_size=12))
def test_heap_invariant_after_every_solve_of_a_random_script(steps):
    solver = Solver()
    for _ in range(MAX_VARS):
        solver.new_var()  # activation variables come after the formula's
    added: list = []
    for kind, payload in steps:
        if kind == "add":
            for clause in payload:
                solver.add_clause(clause)
                added.append(clause)
            continue
        if kind == "solve":
            status = solver.solve(payload)
            expected = brute_force_sat(MAX_VARS, added + [[lit] for lit in payload])
        else:
            # A retractable group: enabled for one solve, then retired.
            act = solver.new_activation()
            for clause in payload:
                solver.add_clause([-act] + clause)
            status = solver.solve([act])
            expected = brute_force_sat(MAX_VARS, added + payload)
            solver.retire(act)
        assert (status == Status.SAT) == expected
        check_heap(solver)


# ----------------------------------------------------------------------
# The heap is bounded
# ----------------------------------------------------------------------
def test_unsat_only_incremental_use_does_not_grow_the_heap():
    """200,200 entries before the heap stopped holding duplicates."""
    solver = Solver()
    for var in range(1, 200):
        solver.add_clause([-var, var + 1])
    for _ in range(1000):
        assert solver.solve([1, -200]) == Status.UNSAT
        assert len(solver._order_heap) <= heap_bound(solver)
    assert len(solver._order_heap) == 200
    check_heap(solver)


def test_conflict_heavy_run_sweeps_stale_entries(monkeypatch):
    """Activity bumps leave stale entries; the bound sweeps them."""
    rebuilds = []
    rebuild = Solver._rebuild_heap

    def counting_rebuild(self) -> None:
        rebuilds.append(len(self._order_heap))
        rebuild(self)

    monkeypatch.setattr(Solver, "_rebuild_heap", counting_rebuild)
    rng = random.Random(2301)
    num_vars = 90
    solver = Solver()
    for clause in three_cnf(rng, num_vars, int(num_vars * 4.2)):
        solver.add_clause(clause)
    answers = set()
    while solver.stats()["conflicts"] < 2000:
        assumptions = [
            rng.choice([-1, 1]) * var for var in rng.sample(range(1, num_vars + 1), 4)
        ]
        answers.add(solver.solve(assumptions))
        check_heap(solver)
    assert answers == {Status.SAT, Status.UNSAT}
    # No rescale in so few conflicts (see _RESCALE_LIMIT): every rebuild
    # was the bound's.
    assert rebuilds and solver._var_inc > 1.0


# ----------------------------------------------------------------------
# Hand cases: the decision heap
# ----------------------------------------------------------------------
def test_activity_rescale_mid_search_keeps_the_invariant():
    rng = random.Random(7)
    clauses = three_cnf(rng, 40, 168)
    reference = Solver()
    solver = Solver()
    for clause in clauses:
        reference.add_clause(clause)
        solver.add_clause(clause)
    solver._var_inc = 9e99  # two bumps of one variable from _RESCALE_LIMIT
    status = solver.solve()
    assert solver._var_inc < 1e50, "the run must rescale"
    assert solver.stats()["conflicts"] > 0
    assert status == reference.solve()
    if status == Status.SAT:
        assert all(any(solver.value(lit) for lit in clause) for clause in clauses)
    check_heap(solver)
    # ... and the solver goes on working afterwards.
    assert solver.solve([1]) in (Status.SAT, Status.UNSAT)
    check_heap(solver)


def test_recycled_activation_variable_is_decided_again():
    solver = Solver()
    solver.add_clause([1, 2])
    first = solver.new_activation()
    solver.add_clause([-first, -1])
    solver.add_clause([-first, -2])
    assert solver.solve([first]) == Status.UNSAT
    check_heap(solver)
    solver.retire(first)
    second = solver.new_activation()
    assert second == first  # recycled, not a fresh variable
    solver.add_clause([-second, -1])
    assert solver.solve([second]) == Status.SAT
    assert solver.value(2) is True
    check_heap(solver)
    solver.retire(second)
    assert solver.solve() == Status.SAT
    assert solver.value(second) is not None  # a free variable: decided
    check_heap(solver)


def test_variables_made_by_add_clause_are_seeded_by_the_next_solve():
    solver = Solver()
    solver.add_clause([1, 2])
    assert solver.solve() == Status.SAT
    solver.add_clause([-2, 5])  # creates variables 3, 4 and 5
    assert solver._heap_seeded == 2 < solver.num_vars == 5
    check_heap(solver)
    assert solver.solve([2]) == Status.SAT
    assert solver._heap_seeded == 5
    assert solver.value(5) is True
    assert None not in [solver.value(var) for var in (3, 4)]
    check_heap(solver)


def test_sat_is_detected_when_propagation_assigns_the_last_variable():
    solver = Solver()
    solver.add_clause([1, 2])
    assert solver.solve() == Status.SAT
    # Default phase is negative: deciding -1 propagates 2, and no
    # decision is spent finding out that nothing is left.
    assert solver.stats()["decisions"] == 1
    assert (solver.value(1), solver.value(2)) == (False, True)
    # Variable 2's entry was never popped: SAT no longer drains the heap.
    assert len(solver._order_heap) == 2
    check_heap(solver)


def test_sat_is_detected_when_a_decision_assigns_the_last_variable():
    solver = Solver()
    solver.new_var()
    solver.new_var()
    assert solver.solve() == Status.SAT
    assert solver.stats()["decisions"] == 2
    assert solver.stats()["propagations"] == 2
    assert solver.model() == [-1, -2]
    check_heap(solver)


# ----------------------------------------------------------------------
# Hand cases: in-place watch propagation
# ----------------------------------------------------------------------
def same_objects(actual: list, expected: list) -> bool:
    return len(actual) == len(expected) and all(a is b for a, b in zip(actual, expected))


def test_conflict_in_mid_scan_keeps_the_unscanned_tail_in_order():
    solver = Solver()
    for clause in ([-1, 2], [-1, 3, 4], [-1, -2], [-1, 5, 6], [-1, 7]):
        solver.add_clause(clause)
    unit, moves, conflicting, tail_a, tail_b = solver._clauses
    # All five watch -1 first, so literal 1 (internal 0) scans them in order.
    assert same_objects(solver._watches[0], list(solver._clauses))
    assert solver.solve([1]) == Status.UNSAT
    assert solver.core() == {1}
    # [-1, 2] stayed (it made 2 true), [-1, 3, 4] moved its watch to 4,
    # [-1, -2] stayed as the conflict, the rest were never scanned.
    assert same_objects(solver._watches[0], [unit, conflicting, tail_a, tail_b])
    assert moves[:2] == [4, 6] and moves in solver._watches[6 ^ 1]
    assert solver.stats()["propagations"] == 1
    assert solver._qhead == len(solver._trail) == 0
    # The untouched tail still propagates.
    assert solver.solve([-2, 1]) == Status.UNSAT
    assert solver.solve() == Status.SAT
    assert solver.value(1) is False


def test_duplicate_clauses_in_one_watch_list_both_stay():
    solver = Solver()
    solver.add_clause([-1, 2])
    solver.add_clause([-1, 2])
    first, second = solver._clauses
    assert first is not second
    assert solver.solve([1]) == Status.SAT
    assert solver.value(2) is True
    # The first copy made 2 true, the second found it true: both keep
    # their place.
    assert same_objects(solver._watches[0], [first, second])


def test_clause_scanned_under_both_watches_in_one_propagation():
    solver = Solver()
    solver.add_clause([-1, -2, 3])
    solver.add_clause([-1, 2])
    ternary, _ = solver._clauses
    assert solver.solve([1]) == Status.SAT
    # Literal 1 moved the ternary clause's first watch on to 3; literal
    # 2, implied in the same propagation, then found it unit on 3.
    assert solver.value(3) is True
    assert solver.stats()["decisions"] == 1
    assert solver.stats()["propagations"] == 3
    assert solver._watches[0] == [[2, 1]]
    assert same_objects(solver._watches[2], [ternary])


def test_unit_at_root_inside_a_block_propagates_the_rest_of_it():
    solver = Solver()
    # Block variables a, b, c (0-based literals 2v / 2v+1):
    # (a) (-a b) (-b c) -- a unit and the chain it implies.
    assert solver.add_block(3, [[0], [1, 2], [3, 4]]) == 0
    assert solver.ok
    assert solver._trail == [0, 2, 4]
    assert solver._qhead == 3
    assert solver.stats()["propagations"] == 3
    assert solver.solve() == Status.SAT
    assert solver.stats()["decisions"] == 0
    assert solver.model() == [1, 2, 3]
    check_heap(solver)


@pytest.mark.parametrize("assumptions", [[0], [1, 0], [0, -1]])
def test_zero_is_still_not_a_literal(assumptions):
    with pytest.raises(ValueError, match="non-zero"):
        Solver().solve(assumptions)
