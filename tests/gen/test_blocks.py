"""Tests for the benchmark building blocks: each block must have exactly
the local/global verification structure its docstring promises."""

from __future__ import annotations

import pytest

from repro.circuit.aig import AIG
from repro.gen.blocks import (
    good_chain_slice,
    guarded_counter_slice,
    hold_slice,
    lfsr_ballast,
    token_ring_slice,
)
from repro.multiprop.ja import ja_verify, separate_verify
from repro.ts.projection import ProjectedReachability
from repro.ts.system import TransitionSystem


class TestGuardedCounterSlice:
    def test_property_names(self):
        aig = AIG()
        names = guarded_counter_slice(aig, "s", 4, 2, [3, 5])
        assert names == ["s_G", "s_D0", "s_D1", "s_T"]

    def test_ground_truth_structure(self):
        aig = AIG()
        guarded_counter_slice(aig, "s", 3, 1, [2])
        gt = ProjectedReachability(TransitionSystem(aig))
        assert gt.fails_globally("s_G")
        assert gt.fails_globally("s_D0")
        assert not gt.fails_globally("s_T")
        # Debugging set is exactly the guard.
        assert gt.debugging_set() == ["s_G"]

    def test_guard_cex_depth(self):
        aig = AIG()
        guarded_counter_slice(aig, "s", 3, 2, [])
        gt = ProjectedReachability(TransitionSystem(aig))
        assert gt.min_cex_depth("s_G", ()) == 3  # guard_depth + 1

    def test_dependent_depth_grows_with_value(self):
        aig = AIG()
        guarded_counter_slice(aig, "s", 3, 1, [2, 4])
        gt = ProjectedReachability(TransitionSystem(aig))
        d0 = gt.min_cex_depth("s_D0", ())
        d1 = gt.min_cex_depth("s_D1", ())
        assert d1 == d0 + 2  # two more increments needed

    def test_rejects_bad_parameters(self):
        aig = AIG()
        with pytest.raises(ValueError):
            guarded_counter_slice(aig, "s", 3, 0, [])
        with pytest.raises(ValueError):
            guarded_counter_slice(aig, "t", 3, 1, [8])


class TestTokenRingSlice:
    def test_all_properties_true(self):
        aig = AIG()
        token_ring_slice(aig, "r", 5)
        report = separate_verify(TransitionSystem(aig))
        assert not report.false_props()
        assert len(report.true_props()) == 5

    def test_n_props_limits(self):
        aig = AIG()
        names = token_ring_slice(aig, "r", 6, n_props=3)
        assert len(names) == 3

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            token_ring_slice(AIG(), "r", 2)


class TestGoodChainSlice:
    def test_all_true_and_locally_one_step(self):
        aig = AIG()
        names = good_chain_slice(aig, "c", 6)
        ts = TransitionSystem(aig)
        report = ja_verify(ts)
        assert report.true_props() == sorted(names)

    def test_expose_every(self):
        aig = AIG()
        names = good_chain_slice(aig, "c", 10, expose_every=3)
        assert names == ["c_C0", "c_C3", "c_C6", "c_C9"]

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            good_chain_slice(AIG(), "c", 0)


class TestHoldAndBallast:
    def test_hold_props_trivially_true(self):
        aig = AIG()
        names = hold_slice(aig, "z", 4)
        report = separate_verify(TransitionSystem(aig))
        assert report.true_props() == sorted(names)

    def test_ballast_adds_no_properties(self):
        aig = AIG()
        lfsr_ballast(aig, "b", 16)
        assert not aig.properties
        assert len(aig.latches) == 16

    def test_ballast_is_deterministic(self):
        a, b = AIG(), AIG()
        lfsr_ballast(a, "b", 12, seed=5)
        lfsr_ballast(b, "b", 12, seed=5)
        assert a.stats() == b.stats()
