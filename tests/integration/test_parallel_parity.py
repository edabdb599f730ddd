"""Verdict parity: ``parallel-ja`` must agree with sequential ``ja``.

Local proofs are independent of scheduling, and clause exchange only
changes how fast proofs finish, never what they conclude — so every
worker-count/exchange combination must reproduce the sequential
per-property statuses exactly.  Checked on generated multi-property
families: the synthetic paper designs and Hypothesis-driven random
designs (where the explicit-state ground truth is also available).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.engines.result import PropStatus
from repro.gen import FAILING_SPECS
from repro.gen.random_designs import random_design
from repro.session import Session
from repro.ts.projection import ProjectedReachability
from repro.ts.system import TransitionSystem


def statuses(report):
    return {name: o.status for name, o in report.outcomes.items()}


def run(ts, **overrides):
    return Session(ts, strategy="parallel-ja", **overrides).run()


class TestPaperFamilies:
    @pytest.fixture(scope="class")
    def family(self):
        """f175: 2 locally false + 3 true properties — both verdict kinds."""
        return TransitionSystem(FAILING_SPECS["f175"].build())

    @pytest.fixture(scope="class")
    def sequential(self, family):
        return statuses(Session(family, strategy="ja").run())

    @pytest.mark.parametrize("backend", ["cdcl", "cdcl-compact"])
    def test_two_workers_exchange_on(self, family, sequential, backend):
        """The relay changes which clauses seed a proof, the backend how
        each query is searched; neither may change a verdict."""
        report = run(family, workers=2, solver_backend=backend)
        assert statuses(report) == sequential
        assert report.stats["worker_crashes"] == 0

    def test_two_workers_exchange_off(self, family, sequential):
        assert statuses(run(family, workers=2, exchange=False)) == sequential

    @pytest.mark.slow
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("exchange", [True, False])
    def test_worker_exchange_matrix(self, family, sequential, workers, exchange):
        report = run(family, workers=workers, exchange=exchange)
        assert statuses(report) == sequential
        assert report.stats["workers"] == min(workers, len(family.properties))
        if not exchange:
            assert report.stats["exchange_clauses"] == 0

    @pytest.mark.slow
    def test_larger_failing_family(self):
        ts = TransitionSystem(FAILING_SPECS["f207"].build())
        sequential = statuses(
            Session(ts, strategy="ja", per_property_conflicts=2000).run()
        )
        parallel = statuses(
            run(ts, workers=4, per_property_conflicts=2000)
        )
        assert parallel == sequential


class TestGeneratedFamilies:
    """Hypothesis-generated designs, cross-checked three ways."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_props=st.integers(min_value=2, max_value=4),
        workers=st.sampled_from([1, 2, 4]),
        exchange=st.booleans(),
    )
    def test_parallel_matches_sequential_and_ground_truth(
        self, seed, n_props, workers, exchange
    ):
        ts = TransitionSystem(random_design(seed, n_props=n_props))
        sequential = statuses(Session(ts, strategy="ja").run())
        parallel = statuses(run(ts, workers=workers, exchange=exchange))
        assert parallel == sequential
        truth = ProjectedReachability(ts)
        for prop in ts.properties:
            expected = (
                PropStatus.FAILS
                if truth.fails_locally(prop.name)
                else PropStatus.HOLDS
            )
            assert parallel[prop.name] is expected, prop.name


class TestEightPropertyAcceptance:
    """The ISSUE acceptance shape: a >= 8-property family, 4 workers."""

    @pytest.mark.slow
    def test_eight_plus_properties_four_workers(self):
        ts = TransitionSystem(FAILING_SPECS["f335"].build())
        assert len(ts.properties) >= 8
        sequential = statuses(Session(ts, strategy="ja").run())
        parallel = statuses(run(ts, workers=4))
        assert parallel == sequential
        assert any(s is PropStatus.FAILS for s in parallel.values())
        assert any(s is PropStatus.HOLDS for s in parallel.values())
