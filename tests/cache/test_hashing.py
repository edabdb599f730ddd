"""Unified content hashes: stability, boundaries, cone invariance."""

from __future__ import annotations

from repro.cache.hashing import (
    cone_digest,
    design_digest,
    joined_digest,
    payload_digest,
    text_digest,
)
from repro.circuit.aig import AIG, aig_not
from repro.gen.counter import fixed_counter
from repro.multiprop.cones import cone_properties
from repro.ts.system import TransitionSystem


def _two_cones(b_init: int = 0) -> TransitionSystem:
    """Two independent stuck latches, one property each."""
    aig = AIG()
    a = aig.add_latch("a", init=0)
    aig.set_next(a, a)
    b = aig.add_latch("b", init=b_init)
    aig.set_next(b, b)
    aig.add_property("Pa", aig_not(a))
    aig.add_property("Pb", aig_not(b))
    return TransitionSystem(aig)


class TestPrimitives:
    def test_payload_digest_stable(self):
        assert payload_digest(b"abc") == payload_digest(b"abc")
        assert payload_digest(b"abc") != payload_digest(b"abd")

    def test_text_digest_matches_utf8_payload(self):
        assert text_digest("héllo") == payload_digest("héllo".encode())

    def test_joined_digest_field_boundaries(self):
        # NUL separation: ("ab","c") must not smear into ("a","bc").
        assert joined_digest("ab", "c") != joined_digest("a", "bc")
        assert joined_digest(1, "x") == joined_digest("1", "x")


class TestDesignDigest:
    def test_identical_builds_collide(self):
        a = TransitionSystem(fixed_counter(4))
        b = TransitionSystem(fixed_counter(4))
        assert design_digest(a) == design_digest(b)

    def test_different_designs_differ(self):
        a = TransitionSystem(fixed_counter(4))
        b = TransitionSystem(fixed_counter(5))
        assert design_digest(a) != design_digest(b)


class TestConeDigest:
    def test_shared_cone_distinct_keys(self):
        # Mutually-assuming properties share one cone AIG; the target
        # name disambiguates the keys or one verdict overwrites the other.
        ts = TransitionSystem(fixed_counter(4))
        assert cone_digest(ts, "P0") != cone_digest(ts, "P1")

    def test_independent_properties_not_in_cone(self):
        ts = _two_cones()
        assert cone_properties(ts, "Pa") == []
        assert cone_properties(ts, "Pb") == []

    def test_out_of_cone_edit_preserves_digest(self):
        before = _two_cones(b_init=0)
        after = _two_cones(b_init=1)
        assert design_digest(before) != design_digest(after)
        # Pa's cone never sees latch b: digest survives the edit.
        assert cone_digest(before, "Pa") == cone_digest(after, "Pa")
        assert cone_digest(before, "Pb") != cone_digest(after, "Pb")

    def test_connected_assumptions_enter_cone(self):
        ts = TransitionSystem(fixed_counter(4))
        assert cone_properties(ts, "P0") == ["P1"]
        assert cone_properties(ts, "P1") == ["P0"]
