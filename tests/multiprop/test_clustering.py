"""Tests for structure-aware property clustering (related-work baseline)."""

from __future__ import annotations

import pytest

from repro.circuit.aig import AIG
from repro.engines.result import PropStatus
from repro.gen import FAILING_SPECS
from repro.gen.blocks import hold_slice, token_ring_slice
from repro.gen.random_designs import random_design
from repro.multiprop.clustering import (
    cluster_properties,
    clustered_verify,
    jaccard,
)
from repro.multiprop.ja import separate_verify
from repro.progress import ClusterStarted, PropertyStarted
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem


class TestJaccard:
    def test_identical(self):
        assert jaccard(frozenset({1, 2}), frozenset({1, 2})) == 1.0

    def test_disjoint(self):
        assert jaccard(frozenset({1}), frozenset({2})) == 0.0

    def test_partial(self):
        assert jaccard(frozenset({1, 2}), frozenset({2, 3})) == pytest.approx(1 / 3)

    def test_empty(self):
        assert jaccard(frozenset(), frozenset()) == 1.0


class TestClustering:
    def _design(self):
        aig = AIG()
        token_ring_slice(aig, "r", 4)  # 4 props, same cone
        hold_slice(aig, "z", 3)  # 3 props, disjoint cones
        return TransitionSystem(aig)

    def test_ring_props_cluster_together(self):
        ts = self._design()
        clusters = cluster_properties(ts, threshold=0.5)
        ring_cluster = next(c for c in clusters if c[0].startswith("r_"))
        assert len(ring_cluster) == 4

    def test_hold_props_stay_separate(self):
        ts = self._design()
        clusters = cluster_properties(ts, threshold=0.5)
        hold_clusters = [c for c in clusters if c[0].startswith("z_")]
        assert all(len(c) == 1 for c in hold_clusters)

    def test_threshold_zero_merges_everything(self):
        ts = self._design()
        clusters = cluster_properties(ts, threshold=0.0)
        assert len(clusters) == 1

    def test_covers_all_properties(self):
        ts = self._design()
        clusters = cluster_properties(ts)
        flattened = sorted(n for c in clusters for n in c)
        assert flattened == sorted(p.name for p in ts.properties)


class TestClusteredVerify:
    def test_matches_separate_verdicts(self):
        for seed in range(15):
            ts = TransitionSystem(random_design(seed))
            clustered = clustered_verify(ts)
            flat = separate_verify(ts)
            assert clustered.false_props() == flat.false_props(), seed
            assert not clustered.unsolved(), seed

    def test_stats_report_clusters(self):
        ts = TransitionSystem(random_design(1))
        report = clustered_verify(ts)
        assert report.stats["clusters"] >= 1
        assert report.stats["largest_cluster"] >= 1

    def test_total_conflicts_bound_the_whole_run(self):
        # f207's 8 clusters each spend hundreds of conflicts unbudgeted;
        # the run's total is one budget, not one per cluster.
        ts = TransitionSystem(FAILING_SPECS["f207"].build())
        report = clustered_verify(ts, VerificationConfig(total_conflicts=100))
        assert report.stats["clusters"] == 8
        assert report.stats["conflicts"] <= 2 * 100
        assert report.unsolved()

    def test_a_spent_budget_leaves_every_later_cluster_unknown(self):
        # A cluster that starts after the run's budget is spent proves
        # nothing: no aggregate proof, every member UNKNOWN.
        ts = TransitionSystem(FAILING_SPECS["f207"].build())
        events: list = []
        report = clustered_verify(
            ts, VerificationConfig(total_conflicts=140), events.append
        )
        proofs: dict[tuple, int] = {}  # cluster -> aggregate proofs started
        for event in events:
            if isinstance(event, ClusterStarted):
                cluster = event.members
                proofs[cluster] = 0
            elif isinstance(event, PropertyStarted):
                proofs[cluster] += 1
        statuses = [{report.outcomes[n].status for n in c} for c in proofs]
        # The first cluster left with an UNKNOWN is where the budget ran out.
        spent = next(i for i, s in enumerate(statuses) if PropStatus.UNKNOWN in s)
        later = list(proofs)[spent + 1 :]
        assert later, "the budget must run out before the last cluster"
        assert [proofs[c] for c in later] == [0] * len(later)
        assert statuses[spent + 1 :] == [{PropStatus.UNKNOWN}] * len(later)

    def test_order_names_the_properties_to_prove(self):
        ts = TransitionSystem(FAILING_SPECS["f175"].build())
        names = [p.name for p in ts.properties][1:4]
        report = clustered_verify(ts, VerificationConfig(order=names))
        assert sorted(report.outcomes) == sorted(names)
        clusters = cluster_properties(ts, names=names)
        assert sorted(n for c in clusters for n in c) == sorted(names)
