"""Tests for cone-of-influence reduction."""

from __future__ import annotations

import pytest

from repro.circuit.aig import AIG
from repro.circuit.coi import coi_signature, reduce_to_cone, support_signature
from repro.engines.ic3 import ic3_check
from repro.gen.blocks import guarded_counter_slice, hold_slice, token_ring_slice
from repro.gen.counter import buggy_counter
from repro.gen.random_designs import random_design
from repro.ts.system import TransitionSystem


def _two_slices():
    aig = AIG()
    ring_names = token_ring_slice(aig, "r", 4)
    hold_names = hold_slice(aig, "z", 3)
    return aig, ring_names, hold_names


class TestReduce:
    def test_keeps_only_cone_latches(self):
        aig, ring_names, hold_names = _two_slices()
        reduction = reduce_to_cone(aig, [hold_names[0]])
        assert len(reduction.aig.latches) == 1
        assert reduction.aig.latches[0].name == "z_z0"
        assert reduction.kept_properties == [hold_names[0]]

    def test_ring_cone_keeps_whole_ring(self):
        aig, ring_names, _ = _two_slices()
        reduction = reduce_to_cone(aig, [ring_names[0]])
        assert len(reduction.aig.latches) == 4
        assert all(l.name.startswith("r_") for l in reduction.aig.latches)

    def test_preserves_init_and_names(self):
        aig = buggy_counter(4)
        reduction = reduce_to_cone(aig, ["P1"])
        originals = {l.name: l.init for l in aig.latches}
        for latch in reduction.aig.latches:
            assert originals[latch.name] == latch.init

    def test_unknown_property_rejected(self):
        aig, _, _ = _two_slices()
        with pytest.raises(KeyError):
            reduce_to_cone(aig, ["nope"])

    def test_verdicts_transfer(self):
        # The reduced design gives the same verdict as the full one.
        for seed in range(20):
            aig = random_design(seed)
            ts = TransitionSystem(aig)
            for prop in ts.properties:
                full = ic3_check(ts, prop.name)
                reduction = reduce_to_cone(aig, [prop.name])
                sub = TransitionSystem(reduction.aig)
                reduced = ic3_check(sub, prop.name)
                assert full.status == reduced.status, (seed, prop.name)

    def test_cex_translates_back(self):
        aig = AIG()
        guarded_counter_slice(aig, "s", 3, 1, [2])
        hold_slice(aig, "z", 2)
        reduction = reduce_to_cone(aig, ["s_G"])
        sub = TransitionSystem(reduction.aig)
        result = ic3_check(sub, "s_G")
        assert result.fails
        trace = reduction.trace_from_cone(result.cex)
        prop = TransitionSystem(aig).prop_by_name["s_G"]
        assert trace.validate(aig, prop.lit)
        assert reduction.trace_to_cone(trace) == result.cex


class TestSignatures:
    def test_disjoint_slices_disjoint_signatures(self):
        aig, ring_names, hold_names = _two_slices()
        props = {p.name: p for p in aig.properties}
        ring_sig = coi_signature(aig, props[ring_names[0]])
        hold_sig = coi_signature(aig, props[hold_names[0]])
        assert not ring_sig & hold_sig

    def test_support_includes_inputs(self):
        aig = buggy_counter(4)
        p0 = aig.properties[0]  # req == 1: cone has no latches
        assert not coi_signature(aig, p0)
        support = support_signature(aig, p0.lit)
        assert support  # contains the req input

    def test_shared_input_couples_properties(self):
        # Example 1: P0 and P1 overlap through the req input only.
        aig = buggy_counter(4)
        s0 = support_signature(aig, aig.properties[0].lit)
        s1 = support_signature(aig, aig.properties[1].lit)
        assert s0 & s1
