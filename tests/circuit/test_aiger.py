"""Tests for AIGER ASCII serialization, including round-trip equivalence."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.aig import AIG, aig_not
from repro.circuit.aiger import load_design, parse_aag, parse_aig, save_design, write_aag, write_aig
from repro.circuit.simulate import Simulator
from repro.gen import ALL_TRUE_SPECS, FAILING_SPECS
from repro.gen.counter import buggy_counter
from repro.gen.random_designs import random_design


def _behaviours_equal(a: AIG, b: AIG, n_frames: int = 8, seeds=(0, 1, 2, 3, 4)) -> bool:
    """Compare property traces of two AIGs under common random stimuli."""
    import random

    if len(a.properties) != len(b.properties):
        return False
    for seed in seeds:
        rng = random.Random(seed)
        seq = [
            {inp: rng.random() < 0.5 for inp in a.inputs} for _ in range(n_frames)
        ]
        # Translate by input position (names/literals may differ).
        seq_b = [
            {b.inputs[i]: frame[a.inputs[i]] for i in range(len(a.inputs))}
            for frame in seq
        ]
        sim_a, sim_b = Simulator(a), Simulator(b)
        for frame_a, frame_b in zip(seq, seq_b):
            for pa, pb in zip(a.properties, b.properties):
                if sim_a.eval_lit(pa.lit, frame_a) != sim_b.eval_lit(pb.lit, frame_b):
                    return False
            sim_a.step(frame_a)
            sim_b.step(frame_b)
    return True


class TestWrite:
    def test_header_counts(self):
        aig = buggy_counter(4)
        text = write_aag(aig)
        header = text.splitlines()[0].split()
        assert header[0] == "aag"
        assert int(header[2]) == 2  # inputs
        assert int(header[3]) == 4  # latches
        assert int(header[4]) == 0  # outputs
        assert int(header[6]) == 2  # bad (properties)

    def test_symbol_table_has_property_names(self):
        text = write_aag(buggy_counter(4))
        assert "b0 P0" in text
        assert "b1 P1" in text

    def test_etf_flag_serialized(self):
        aig = AIG()
        x = aig.add_input("x")
        aig.add_latch("pad")
        aig.add_property("will_fail", x, expected_to_fail=True)
        text = write_aag(aig)
        assert "b0 will_fail etf" in text


class TestParse:
    def test_toggler(self):
        text = "aag 1 0 1 0 0 1\n2 3\n3\nb0 never\n"
        aig = parse_aag(text)
        assert len(aig.latches) == 1
        assert aig.properties[0].name == "never"

    def test_legacy_outputs_as_bad(self):
        # Pre-1.9 file: outputs double as bad literals.
        text = "aag 1 1 0 1 0\n2\n2\n"
        aig = parse_aag(text)
        assert len(aig.properties) == 1

    def test_latch_reset_values(self):
        text = "aag 3 0 3 0 0 1\n2 2 0\n4 4 1\n6 6 6\n7\n"
        aig = parse_aag(text)
        assert [l.init for l in aig.latches] == [0, 1, None]

    def test_rejects_binary_format(self):
        with pytest.raises(ValueError):
            parse_aag("aig 5 1 1 0 2\n")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_aag("")

    def test_rejects_undefined_variable(self):
        with pytest.raises(ValueError):
            parse_aag("aag 2 1 0 1 0\n2\n4\n")

    @pytest.mark.parametrize(
        "text, where",
        [
            ("secret\n", "header"),
            ("aag 1 secret 0 0 0\n", "header"),
            ("aag 1 0 1 0 0 1\n2 secret\n3\n", "latch row 1"),
            ("aag 2 1 0 0 1 1\n2\n4\n4 secret 2\n", "AND gate 1"),
            ("aag 3 1 1 0 0 2\n2\n4 2\n4\n", "file"),
        ],
    )
    def test_errors_name_the_place_never_the_bytes(self, text, where):
        with pytest.raises(ValueError) as err:
            parse_aag(text)
        assert where in str(err.value)
        assert "secret" not in str(err.value)


class TestRoundTrip:
    def test_counter_roundtrip(self):
        original = buggy_counter(4)
        recovered = parse_aag(write_aag(original))
        assert _behaviours_equal(original, recovered)
        assert [p.name for p in recovered.properties] == ["P0", "P1"]

    def test_etf_roundtrip(self):
        aig = AIG()
        x = aig.add_input("x")
        aig.add_latch("pad")
        aig.add_property("p", x, expected_to_fail=True)
        recovered = parse_aag(write_aag(aig))
        assert recovered.properties[0].expected_to_fail

    def test_constraint_roundtrip(self):
        aig = AIG()
        x = aig.add_input("x")
        q = aig.add_latch("q", init=0)
        aig.set_next(q, x)
        aig.add_property("p", aig_not(q))
        aig.add_constraint(aig_not(x))
        recovered = parse_aag(write_aag(aig))
        assert len(recovered.constraints) == 1

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_designs_roundtrip(self, seed):
        original = random_design(seed)
        recovered = parse_aag(write_aag(original))
        assert _behaviours_equal(original, recovered, n_frames=6, seeds=range(3))

    def test_double_roundtrip_is_stable(self):
        aig = random_design(1)
        once = write_aag(parse_aag(write_aag(aig)))
        twice = write_aag(parse_aag(once))
        assert once == twice


FAMILIES = {**FAILING_SPECS, **ALL_TRUE_SPECS}


@pytest.mark.parametrize("name", [*sorted(FAMILIES), "counter4"])
def test_write_parse_write_is_the_identity(name):
    """Names included: a design is the same design by every route."""
    aig = buggy_counter(4) if name == "counter4" else FAMILIES[name].build()
    text, data = write_aag(aig), write_aig(aig)
    assert write_aag(parse_aag(text)) == text
    assert write_aig(parse_aig(data)) == data
    assert write_aag(parse_aig(data)) == text


@pytest.mark.parametrize("suffix", [".aag", ".aig"])
def test_load_design_reads_what_save_design_wrote(tmp_path, suffix):
    aig = FAILING_SPECS["f175"].build()
    path = tmp_path / f"d{suffix}"
    save_design(aig, path)
    assert path.read_bytes()[:3] == suffix[1:].encode()
    assert write_aag(load_design(path)) == write_aag(aig)
