"""Tests for the binary flavour of the AIGER (.aig) reader/writer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.aig import AIG, aig_not
from repro.circuit.aiger import (
    _decode_varint,
    _encode_varint,
    parse_aag,
    parse_aig,
    write_aag,
    write_aig,
)
from repro.gen.counter import buggy_counter
from repro.gen.random_designs import random_design
from tests.circuit.test_aiger import _behaviours_equal


class TestVarints:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=1 << 40))
    def test_roundtrip(self, value):
        data = _encode_varint(value)
        decoded, pos = _decode_varint(data, 0)
        assert decoded == value
        assert pos == len(data)

    def test_known_encodings(self):
        assert _encode_varint(0) == b"\x00"
        assert _encode_varint(127) == b"\x7f"
        assert _encode_varint(128) == b"\x80\x01"

    def test_truncated_raises(self):
        with pytest.raises(ValueError):
            _decode_varint(b"\x80", 0)


class TestRoundTrip:
    def test_counter(self):
        original = buggy_counter(4)
        recovered = parse_aig(write_aig(original))
        assert _behaviours_equal(original, recovered)
        assert [p.name for p in recovered.properties] == ["P0", "P1"]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_designs(self, seed):
        original = random_design(seed)
        recovered = parse_aig(write_aig(original))
        assert _behaviours_equal(original, recovered, n_frames=6, seeds=range(3))

    def test_binary_and_ascii_agree(self):
        aig = random_design(17)
        via_binary = parse_aig(write_aig(aig))
        via_ascii = parse_aag(write_aag(aig))
        assert _behaviours_equal(via_binary, via_ascii, n_frames=6, seeds=range(3))

    def test_etf_and_init_preserved(self):
        aig = AIG()
        x = aig.add_input("x")
        q = aig.add_latch("q", init=1)
        aig.set_next(q, x)
        u = aig.add_latch("u", init=None)
        aig.set_next(u, u)
        aig.add_property("goal", aig_not(q), expected_to_fail=True)
        recovered = parse_aig(write_aig(aig))
        assert [l.init for l in recovered.latches] == [1, None]
        assert recovered.properties[0].expected_to_fail

    def test_constraints_preserved(self):
        aig = AIG()
        x = aig.add_input("x")
        q = aig.add_latch("q", init=0)
        aig.set_next(q, x)
        aig.add_property("p", aig_not(q))
        aig.add_constraint(aig_not(x))
        recovered = parse_aig(write_aig(aig))
        assert len(recovered.constraints) == 1


class TestErrors:
    def test_rejects_ascii_file(self):
        with pytest.raises(ValueError):
            parse_aig(b"aag 0 0 0 0 0\n")

    def test_rejects_missing_header(self):
        with pytest.raises(ValueError):
            parse_aig(b"")
