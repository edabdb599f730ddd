"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import random
from collections.abc import Sequence

import pytest

from repro.circuit.aig import AIG, aig_not
from repro.gen.counter import buggy_counter
from repro.ts import system
from repro.ts.system import TransitionSystem


def brute_force_sat(num_vars: int, clauses: Sequence[Sequence[int]]) -> bool:
    """Reference satisfiability by exhaustive enumeration (tiny instances)."""
    for model in range(1 << num_vars):
        if all(
            any(((model >> (abs(l) - 1)) & 1) == (1 if l > 0 else 0) for l in c)
            for c in clauses
        ):
            return True
    return False


def random_cnf(
    rng: random.Random, max_vars: int = 8, max_clauses: int = 35, max_width: int = 3
) -> tuple[int, list[list[int]]]:
    """A random small CNF instance."""
    num_vars = rng.randint(2, max_vars)
    num_clauses = rng.randint(1, max_clauses)
    clauses = [
        [
            rng.choice([-1, 1]) * rng.randint(1, num_vars)
            for _ in range(rng.randint(1, max_width))
        ]
        for _ in range(num_clauses)
    ]
    return num_vars, clauses


def three_cnf(rng: random.Random, num_vars: int, num_clauses: int) -> list[list[int]]:
    """Uniform random 3-CNF, three distinct variables per clause."""
    return [
        [var if rng.random() < 0.5 else -var for var in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(num_clauses)
    ]


def solver_state(solver) -> dict:
    """Everything a ``cdcl`` solver's search depends on, with clause
    identity replaced by position in the store (bulk-loader tests)."""
    store = solver._clauses + solver._learnts
    index = {id(clause): i for i, clause in enumerate(store)}
    return {
        "num_vars": solver.num_vars,
        "ok": solver.ok,
        "clauses": [list(clause) for clause in store],
        "original": len(solver._clauses),
        "live": sorted(index[cid] for cid in solver._clause_ids | solver._learnt_ids),
        "watches": [[index[id(c)] for c in watch] for watch in solver._watches],
        "trail": list(solver._trail),
        "qhead": solver._qhead,
        "assign": list(solver._assign),
        "level": list(solver._level),
        "reason": [None if r is None else index[id(r)] for r in solver._reason],
        "per_var": [
            list(column)
            for column in (solver._activity, solver._polarity, solver._seen, solver._in_heap)
        ],
        "counters": dict(solver.counters),
    }


@pytest.fixture
def encoder_runs(monkeypatch) -> list[str]:
    """One entry — the sink's type name — per ``ConeEncoder`` that
    ``ts/system.py`` constructs while the test runs."""
    runs: list[str] = []

    class CountingEncoder(system.ConeEncoder):
        def __init__(self, aig, sink) -> None:
            super().__init__(aig, sink)
            runs.append(type(sink).__name__)

    monkeypatch.setattr(system, "ConeEncoder", CountingEncoder)
    return runs


@pytest.fixture
def counter4() -> TransitionSystem:
    """Example 1's counter at 4 bits (rval = 8): fast but non-trivial."""
    return TransitionSystem(buggy_counter(bits=4))


@pytest.fixture
def toggler() -> TransitionSystem:
    """A 1-latch toggling design with one true and one false property."""
    aig = AIG()
    q = aig.add_latch("q", init=0)
    aig.set_next(q, aig_not(q))
    r = aig.add_latch("r", init=0)
    aig.set_next(r, r)
    aig.add_property("never_r", aig_not(r))  # true: r stuck at 0
    aig.add_property("never_q", aig_not(q))  # false at frame 1
    return TransitionSystem(aig)
