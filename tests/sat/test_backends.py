"""Backend conformance suite: every registered backend obeys the contract.

One parametrized module covers the whole registry, so a backend added
tomorrow is checked automatically:

* registry semantics (lookup, duplicate registration, env-var default);
* sat/differential checks against the brute-force enumerator;
* incremental semantics — clauses persist across solves, assumptions
  do not, activation-literal groups retract correctly, cores are
  sufficient;
* determinism: identical call sequences replay identically;
* strategy-verdict parity: every Session strategy must return the same
  verdicts under every backend.
"""

from __future__ import annotations

import random

import pytest

from repro.gen.random_designs import random_design
from repro.sat import (
    BACKEND_ENV_VAR,
    SatBackend,
    Solver,
    Status,
    UnknownBackendError,
    available_backends,
    create_solver,
    default_backend,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.session import Session
from repro.ts.system import TransitionSystem
from tests.conftest import brute_force_sat, random_cnf

BACKENDS = sorted(available_backends())


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_backends_present(self):
        assert "cdcl" in BACKENDS and "cdcl-compact" in BACKENDS

    def test_descriptions_are_nonempty_one_liners(self):
        for name, description in available_backends().items():
            assert description and "\n" not in description, name

    def test_unknown_name_raises_with_candidates(self):
        with pytest.raises(UnknownBackendError) as exc:
            get_backend("no-such-solver")
        assert "cdcl" in str(exc.value)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_backend("cdcl")(Solver)

    def test_replace_and_unregister_roundtrip(self):
        class Custom(Solver):
            """A test-only backend."""

        register_backend("conformance-tmp")(Custom)
        try:
            assert get_backend("conformance-tmp") is Custom
            register_backend("conformance-tmp", replace=True)(Solver)
            assert get_backend("conformance-tmp") is Solver
        finally:
            unregister_backend("conformance-tmp")
        with pytest.raises(UnknownBackendError):
            get_backend("conformance-tmp")

    def test_default_backend_env_override(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert default_backend() == "cdcl"
        monkeypatch.setenv(BACKEND_ENV_VAR, "cdcl-compact")
        assert default_backend() == "cdcl-compact"
        assert isinstance(create_solver(), SatBackend)

    def test_default_backend_rejects_unknown_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "not-a-backend")
        with pytest.raises(UnknownBackendError):
            default_backend()


# ----------------------------------------------------------------------
# Solver-level conformance, parametrized over the registry
# ----------------------------------------------------------------------
@pytest.fixture(params=BACKENDS)
def backend(request) -> str:
    return request.param


class TestProtocol:
    def test_instance_satisfies_protocol(self, backend):
        assert isinstance(create_solver(backend), SatBackend)

    def test_stats_snapshot_counts_work(self, backend):
        solver = create_solver(backend)
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        before = solver.stats()
        assert before["clauses_added"] == 2
        assert solver.solve() is Status.SAT
        after = solver.stats()
        assert after["solves"] == before["solves"] + 1
        # stats() is a snapshot, not a live view.
        solver.add_clause([-2, 1])
        assert after["clauses_added"] == 2

    def test_differential_against_brute_force(self, backend):
        rng = random.Random(20260727)
        for _ in range(60):
            num_vars, clauses = random_cnf(rng)
            solver = create_solver(backend)
            ok = True
            for clause in clauses:
                ok = solver.add_clause(clause) and ok
            expected = brute_force_sat(num_vars, clauses)
            status = solver.solve() if ok else Status.UNSAT
            assert status in (Status.SAT, Status.UNSAT)
            assert (status is Status.SAT) == expected
            if status is Status.SAT:
                for clause in clauses:
                    assert any(solver.value(lit) for lit in clause)

    def test_determinism(self, backend):
        def run():
            rng = random.Random(7)
            transcript = []
            solver = create_solver(backend)
            for _ in range(30):
                num_vars, clauses = random_cnf(rng, max_vars=6, max_clauses=12)
                for clause in clauses:
                    solver.add_clause(clause)
                status = solver.solve()
                transcript.append((status, tuple(solver.model())))
                if status is Status.UNSAT:
                    solver = create_solver(backend)
            return transcript

        assert run() == run()


class TestIncrementalSemantics:
    def test_clauses_persist_across_solves(self, backend):
        solver = create_solver(backend)
        solver.add_clause([1, 2])
        assert solver.solve() is Status.SAT
        solver.add_clause([-1])
        assert solver.solve() is Status.SAT
        assert solver.value(2) is True
        solver.add_clause([-2])
        assert solver.solve() is Status.UNSAT

    def test_assumptions_do_not_persist(self, backend):
        solver = create_solver(backend)
        solver.add_clause([1, 2])
        assert solver.solve([-1, -2]) is Status.UNSAT
        assert solver.solve() is Status.SAT
        assert solver.solve([-1]) is Status.SAT
        assert solver.value(2) is True

    def test_core_is_sufficient_subset(self, backend):
        rng = random.Random(99)
        checked = 0
        while checked < 25:
            num_vars, clauses = random_cnf(rng, max_vars=6, max_clauses=20)
            solver = create_solver(backend)
            ok = all(solver.add_clause(c) for c in clauses)
            if not ok:
                continue
            assumptions = [
                rng.choice([-1, 1]) * v for v in range(1, num_vars + 1)
            ]
            if solver.solve(assumptions) is not Status.UNSAT:
                continue
            core = solver.core()
            assert core <= set(assumptions)
            # The core alone must keep the formula unsatisfiable.
            with_core = list(clauses) + [[lit] for lit in core]
            assert not brute_force_sat(num_vars, with_core)
            checked += 1

    def test_activation_group_retirement(self, backend):
        solver = create_solver(backend)
        solver.add_clause([1, 2])
        act = solver.new_activation()
        solver.add_clause([-act, -1])
        solver.add_clause([-act, -2])
        # Group enabled by assumption: forces both false -> UNSAT.
        assert solver.solve([act]) is Status.UNSAT
        assert act in {abs(lit) for lit in solver.core()}
        # Without the assumption the group is dormant.
        assert solver.solve() is Status.SAT
        solver.retire(act)
        # Retired: the group can never be re-enabled.
        assert solver.solve() is Status.SAT
        assert solver.value(1) or solver.value(2)
        assert solver.stats()["activations_retired"] == 1
        # Only a live activation literal can be retired: not a plain
        # variable, and not the same group twice.
        for stale in (1, act, solver.num_vars + 1):
            with pytest.raises(ValueError, match="unknown activation"):
                solver.retire(stale)
        assert solver.stats()["activations_retired"] == 1

    def test_many_activation_generations(self, backend):
        """IC3's usage pattern: guard, query, retire, repeat."""
        solver = create_solver(backend)
        solver.add_clause([1, 2, 3])
        for _ in range(50):
            act = solver.new_activation()
            solver.add_clause([-act, -1])
            solver.add_clause([-act, -2])
            solver.add_clause([-act, -3])
            assert solver.solve([act]) is Status.UNSAT
            assert solver.solve() is Status.SAT
            solver.retire(act)

    def test_retired_activation_variables_are_recycled(self, backend):
        """Variable and clause counts stay bounded over many guard/
        query/retire generations — the long-IC3-run compaction fix."""
        solver = create_solver(backend)
        solver.add_clause([1, 2, 3])
        base_vars = solver.num_vars
        base_clauses = solver.num_clauses()
        for _ in range(200):
            act = solver.new_activation()
            solver.add_clause([-act, -1])
            solver.add_clause([-act, -2])
            solver.add_clause([-act, -3])
            assert solver.solve([act]) is Status.UNSAT
            solver.retire(act)
        # One generation may be in flight; growth must not scale with
        # the generation count.
        assert solver.num_vars <= base_vars + 1
        assert solver.num_clauses() <= base_clauses + 3
        stats = solver.stats()
        assert stats["activations_retired"] == 200
        assert stats["activations_recycled"] == 199
        # The store stays sound after all that recycling.
        assert solver.solve() is Status.SAT

    def test_recycled_activation_group_is_independent(self, backend):
        """A recycled variable's new group must carry none of the old
        group's constraints (or their learned consequences)."""
        solver = create_solver(backend)
        solver.add_clause([1, 2])
        first = solver.new_activation()
        solver.add_clause([-first, -1])
        solver.add_clause([-first, -2])
        assert solver.solve([first]) is Status.UNSAT
        solver.retire(first)
        second = solver.new_activation()
        assert second == first  # the variable was recycled
        solver.add_clause([-second, -1])
        # The old group forced -2 as well; the new one must not.
        assert solver.solve([second]) is Status.SAT
        assert solver.value(2) is True

    def test_degenerate_unit_group_is_abandoned_not_recycled(self, backend):
        """A group clause that collapses to the unit ``[-act]`` pins the
        variable at root; it must never return to the free list."""
        solver = create_solver(backend)
        solver.add_clause([1])
        act = solver.new_activation()
        solver.add_clause([-act, -1])  # simplifies to [-act]: act := False
        solver.retire(act)
        replacement = solver.new_activation()
        assert replacement != act
        fresh = solver.new_var()
        solver.add_clause([-replacement, fresh])
        assert solver.solve([replacement]) is Status.SAT
        assert solver.value(fresh) is True

    def test_retirement_deletes_dependent_learnts(self, backend):
        """Learned clauses mentioning a retired activation variable are
        consequences of its group and must go with it: after recycling,
        solving under the fresh group of the same variable must not be
        poisoned by stale lemmas."""
        rng = random.Random(4242)
        for _ in range(15):
            num_vars, clauses = random_cnf(rng, max_vars=6, max_clauses=18)
            solver = create_solver(backend)
            ok = all(solver.add_clause(c) for c in clauses)
            if not ok:
                continue
            act = solver.new_activation()
            for v in range(1, num_vars + 1):
                solver.add_clause([-act, v if v % 2 else -v])
            solver.solve([act])  # may learn clauses mentioning -act
            solver.retire(act)
            # The base formula's satisfiability is untouched by the
            # retired group or its learned consequences.
            expected = brute_force_sat(num_vars, clauses)
            assert (solver.solve() is Status.SAT) == expected


# ----------------------------------------------------------------------
# Engine / strategy parity across backends
# ----------------------------------------------------------------------
class TestVerdictParity:
    @pytest.fixture(scope="class")
    def design(self):
        return TransitionSystem(random_design(seed=20260727, n_props=3))

    @pytest.mark.parametrize("strategy", ["ja", "joint", "separate", "clustered"])
    def test_strategy_verdicts_identical_across_backends(self, design, strategy):
        verdicts = {}
        for name in BACKENDS:
            report = Session(design, strategy=strategy, solver_backend=name).run()
            verdicts[name] = {n: o.status for n, o in report.outcomes.items()}
        reference = verdicts[BACKENDS[0]]
        assert reference, "design must have properties"
        for name in BACKENDS[1:]:
            assert verdicts[name] == reference, name

    def test_config_rejects_unknown_backend(self, design):
        from repro.session import ConfigError

        with pytest.raises(ConfigError):
            Session(design, strategy="ja", solver_backend="nope")
