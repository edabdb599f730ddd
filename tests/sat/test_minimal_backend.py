"""A backend without the optional ``add_block`` is a full citizen.

``add_block`` is the one optional member of the ``SatBackend`` contract:
a third-party backend that only speaks ``new_var``/``add_clause`` must
pass the whole conformance suite of ``tests/sat/test_backends.py`` and
reach the verdicts ``cdcl`` reaches, with templates replayed into it
clause by clause.
"""

from __future__ import annotations

import pytest

from repro.gen import failing_designs
from repro.sat import SatBackend, Solver, create_solver, register_backend, unregister_backend
from repro.session import Session
from repro.ts.system import TransitionSystem
from tests.sat import test_backends as conformance

NAME = "conformance-no-bulk"


class NoBulkSolver:
    """A test-only backend: ``cdcl`` behind the protocol's required methods only."""

    def __init__(self) -> None:
        self._solver = Solver()
        self.clauses_replayed = 0

    @property
    def num_vars(self) -> int:
        return self._solver.num_vars

    def new_var(self) -> int:
        return self._solver.new_var()

    def add_clause(self, lits) -> bool:
        self.clauses_replayed += 1
        return self._solver.add_clause(lits)

    def solve(self, assumptions=()):
        return self._solver.solve(assumptions)

    def value(self, lit):
        return self._solver.value(lit)

    def core(self):
        return self._solver.core()

    def new_activation(self) -> int:
        return self._solver.new_activation()

    def retire(self, act) -> None:
        self._solver.retire(act)

    def stats(self) -> dict:
        return self._solver.stats()

    # Not protocol, but the conformance suite reads them.
    def model(self):
        return self._solver.model()

    def num_clauses(self) -> int:
        return self._solver.num_clauses()


@pytest.fixture
def backend():
    register_backend(NAME)(NoBulkSolver)
    try:
        yield NAME
    finally:
        unregister_backend(NAME)


CONFORMANCE = [
    pytest.param(cls, name, id=f"{cls.__name__}.{name}")
    for cls in (conformance.TestProtocol, conformance.TestIncrementalSemantics)
    for name in sorted(vars(cls))
    if name.startswith("test_")
]


@pytest.mark.parametrize("cls, name", CONFORMANCE)
def test_conformance_suite(cls, name, backend):
    getattr(cls(), name)(backend)


def test_it_really_lacks_the_bulk_method(backend):
    solver = create_solver(backend)
    assert isinstance(solver, SatBackend)
    assert not hasattr(solver, "add_block")


def test_templates_are_replayed_clause_by_clause(backend):
    ts = TransitionSystem(failing_designs()["f175"])
    solver = create_solver(backend)
    ts.encode_step(solver)
    reference = Solver()
    ts.encode_step(reference)
    assert solver.clauses_replayed == reference.stats()["clauses_added"] > 0
    assert solver.num_vars == reference.num_vars


@pytest.mark.parametrize("strategy", ["ja", "joint"])
def test_verdicts_match_cdcl(strategy, backend):
    design = TransitionSystem(failing_designs()["f175"])
    verdicts = {}
    for name in ("cdcl", backend):
        report = Session(design, strategy=strategy, solver_backend=name).run()
        verdicts[name] = {n: (o.status, o.frames) for n, o in report.outcomes.items()}
    assert verdicts[backend] == verdicts["cdcl"]
