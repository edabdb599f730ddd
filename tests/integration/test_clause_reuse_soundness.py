"""Integration tests targeting the subtle soundness question of clause
re-use across differently-constrained local proofs (see the discussion
in repro/multiprop/clausedb.py).

The paper re-uses strengthening clauses from one local proof in the
next local proof even though the assumption sets differ.  These tests
hammer that mechanism: across many random designs, JA with re-use must
produce exactly the same debugging sets as JA without re-use and as the
explicit-state ground truth, and every certificate the engine emits must
check out independently.
"""

from __future__ import annotations

from repro.engines.ic3 import IC3Options, ic3_check
from repro.gen.random_designs import random_design
from repro.multiprop.clausedb import ClauseDB
from repro.multiprop.ja import JAVerifier
from repro.session import VerificationConfig
from repro.ts.projection import ProjectedReachability, assumption_names
from repro.ts.system import TransitionSystem
from tests.engines.test_ic3 import check_invariant


class TestReuseNeverChangesVerdicts:
    def test_against_ground_truth_many_designs(self):
        for seed in range(60):
            ts = TransitionSystem(random_design(seed))
            gt = ProjectedReachability(ts)
            verifier = JAVerifier(ts, VerificationConfig(clause_reuse=True))
            report = verifier.run()
            assert report.debugging_set() == sorted(gt.debugging_set()), seed

    def test_certificates_always_valid(self):
        for seed in range(25):
            ts = TransitionSystem(random_design(seed))
            verifier = JAVerifier(ts, VerificationConfig(clause_reuse=True))
            verifier.run()
            for name, result in verifier.results.items():
                if result.holds:
                    check_invariant(
                        ts, name, result.invariant, assumed=tuple(result.assumed)
                    )

    def test_cross_property_seeding_manually(self):
        # Drive the mechanism by hand: prove P0 locally, seed its clauses
        # into P1's local proof, and cross-check P1's verdict.
        for seed in range(25):
            ts = TransitionSystem(random_design(seed))
            gt = ProjectedReachability(ts)
            names = [p.name for p in ts.properties]
            db = ClauseDB(ts)
            for name in names:
                assumed = assumption_names(ts, name)
                result = ic3_check(
                    ts,
                    name,
                    IC3Options(
                        assumed=assumed,
                        seed_clauses=db.clauses(),
                        respect_constraints_in_lifting=True,
                    ),
                )
                assert result.fails == gt.fails(name, assumed), (seed, name)
                if result.holds:
                    db.add_all(result.invariant)

    def test_reuse_reduces_work_on_shared_invariants(self):
        # On a ring, later properties should need fewer SAT queries when
        # seeded with the first property's strengthening clauses.
        from repro.circuit.aig import AIG
        from repro.gen.blocks import token_ring_slice

        aig = AIG()
        names = token_ring_slice(aig, "r", 7)
        ts = TransitionSystem(aig)
        first = ic3_check(ts, names[0])
        assert first.holds
        cold = ic3_check(ts, names[3])
        warm = ic3_check(ts, names[3], IC3Options(seed_clauses=first.invariant))
        assert warm.stats["sat_queries"] <= cold.stats["sat_queries"]
