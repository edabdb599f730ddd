"""Tests for the named benchmark families (the HWMCC stand-ins)."""

from __future__ import annotations

import pytest

from repro.gen.families import (
    ALL_TRUE_SPECS,
    FAILING_SPECS,
    LARGE_DESIGN_NAMES,
    all_true_designs,
    failing_designs,
    huge_design,
    large_design,
)
from repro.multiprop.ja import ja_verify
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem


class TestSpecs:
    def test_failing_designs_build(self):
        designs = failing_designs()
        assert set(designs) == set(FAILING_SPECS)
        for name, aig in designs.items():
            assert aig.properties, name
            assert aig.latches, name

    def test_all_true_designs_build(self):
        designs = all_true_designs()
        assert set(designs) == set(ALL_TRUE_SPECS)

    def test_large_designs_build(self):
        for name in LARGE_DESIGN_NAMES:
            aig = large_design(name)
            assert len(aig.properties) >= 40, name

    def test_unknown_large_design(self):
        with pytest.raises(KeyError):
            large_design("r999")

    def test_builds_are_deterministic(self):
        a = FAILING_SPECS["f207"].build()
        b = FAILING_SPECS["f207"].build()
        assert a.stats() == b.stats()
        assert [p.name for p in a.properties] == [p.name for p in b.properties]


class TestFailingStructure:
    """Each failing design must show the Table III signature: a small
    debugging set and no unsolved properties for JA."""

    @pytest.mark.parametrize("name", ["f260", "f175", "f254", "f207"])
    def test_debugging_set_is_the_guards(self, name):
        aig = FAILING_SPECS[name].build()
        ts = TransitionSystem(aig)
        report = ja_verify(ts, VerificationConfig(design_name=name))
        assert not report.unsolved()
        debug = report.debugging_set()
        expected_guards = sorted(
            p.name for p in ts.properties if p.name.endswith("_G")
        )
        assert debug == expected_guards

    def test_debugging_set_smaller_than_global_failures(self):
        # The defining Table III property, checked on one mid-size design.
        from repro.multiprop.ja import separate_verify

        aig = FAILING_SPECS["f254"].build()
        ts = TransitionSystem(aig)
        ja = ja_verify(ts)
        sep = separate_verify(ts, VerificationConfig(per_property_time=1.0))
        assert len(ja.debugging_set()) < len(sep.false_props())


class TestAllTrueStructure:
    @pytest.mark.parametrize("name", ["t135", "t256", "t273", "tbob"])
    def test_everything_holds(self, name):
        aig = ALL_TRUE_SPECS[name].build()
        report = ja_verify(TransitionSystem(aig), VerificationConfig(design_name=name))
        assert not report.debugging_set()
        assert not report.unsolved()


class TestHugeDesign:
    def test_chain_and_rings_present(self):
        aig = huge_design(chain_depth=20)
        names = [p.name for p in aig.properties]
        assert "c0_C0" in names and "c0_C19" in names
        assert any(n.startswith("r0_") for n in names)

    def test_sampled_properties_hold_locally(self):
        ts = TransitionSystem(huge_design(chain_depth=20))
        report = ja_verify(
            ts, VerificationConfig(order=["c0_C5", "c0_C15"], clause_reuse=False)
        )
        assert report.outcomes["c0_C5"].status.value == "holds"
        assert report.outcomes["c0_C15"].status.value == "holds"
