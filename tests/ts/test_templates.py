"""Frame templates: one Tseitin run per design and frame kind, loaded many times.

``TransitionSystem.encode_*`` load a per-design template into the
caller's sink.  The reference is ``TransitionSystem._encode_into`` run
straight into a solver — the ``ConeEncoder`` path the templates record —
and "equal" means equal solver state (``tests.conftest.solver_state``),
so that every search over a loaded template is bit-identical.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.aig import AIG, Property, aig_not
from repro.encode.cnf import CnfBuilder
from repro.gen import all_true_designs, failing_designs, random_design
from repro.sat import Solver, Status
from repro.ts.system import FrameEncoding, TransitionSystem
from tests.conftest import solver_state

FAMILIES = {**failing_designs(), **all_true_designs()}
KINDS = ("step", "bad", "init")
LOADERS = {
    "step": TransitionSystem.encode_step,
    "bad": TransitionSystem.encode_bad_frame,
    "init": TransitionSystem.encode_init_frame,
}

RANDOM_DESIGNS = st.builds(
    random_design,
    seed=st.integers(min_value=0, max_value=10_000),
    n_latches=st.integers(min_value=1, max_value=5),
    n_inputs=st.integers(min_value=0, max_value=3),
    n_gates=st.integers(min_value=0, max_value=14),
    n_props=st.integers(min_value=1, max_value=4),
)


def constrained_design() -> AIG:
    """Constants as roots, constraints and an uninitialised latch: every
    unit clause the encoders can emit, some of them mid-stream."""
    aig = AIG()
    x = aig.add_input("x")
    y = aig.add_input("y")
    q = aig.add_latch("q", init=0)
    r = aig.add_latch("r", init=1)
    u = aig.add_latch("u", init=None)
    aig.set_next(q, aig.and_(x, aig_not(r)))
    aig.set_next(r, 1)  # constant TRUE
    aig.set_next(u, aig.xor(u, y))
    aig.add_property("const_true", 1)
    aig.add_property("p", aig.or_(aig_not(q), r))
    aig.add_constraint(aig.or_(x, y))
    aig.add_constraint(aig_not(aig.and_(x, y)))
    return aig


def direct(ts: TransitionSystem, kind: str, sink):
    """The un-templated path, as the encoding object the loader returns."""
    enc = ts._encode_into(kind, sink)
    if kind == "step":
        return enc
    assert enc.next == []
    return FrameEncoding(enc.curr, enc.inputs, enc.prop_curr, enc.constraint_curr)


def assert_loads_like_direct(aig: AIG) -> None:
    ts = TransitionSystem(aig)
    for kind in KINDS:
        expected, actual = Solver(), Solver()
        assert LOADERS[kind](ts, actual) == direct(ts, kind, expected)
        assert solver_state(actual) == solver_state(expected)
    # Two frames into one solver: the second lands at a non-zero base.
    expected, actual = Solver(), Solver()
    for kind in ("bad", "step", "init"):
        assert LOADERS[kind](ts, actual) == direct(ts, kind, expected)
        assert solver_state(actual) == solver_state(expected)


class TestLoadedEqualsDirect:
    def test_all_sixteen_families_are_covered(self):
        assert len(FAMILIES) == 16

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family(self, name):
        assert_loads_like_direct(FAMILIES[name])

    @settings(max_examples=60, deadline=None)
    @given(RANDOM_DESIGNS)
    def test_random_designs(self, aig):
        assert_loads_like_direct(aig)

    def test_units_constants_and_constraints(self):
        assert_loads_like_direct(constrained_design())

    @pytest.mark.parametrize("name", ["f175", "t256"])
    def test_replay_fallback_fills_a_plain_sink_with_the_same_clauses(self, name):
        ts = TransitionSystem(FAMILIES[name])
        for kind in KINDS:
            expected, actual = CnfBuilder(), CnfBuilder()
            assert not hasattr(actual, "add_block")
            assert LOADERS[kind](ts, actual) == direct(ts, kind, expected)
            assert actual.num_vars == expected.num_vars
            # Same clauses in the same order; a template keeps each
            # clause's literals sorted by variable.
            assert actual.clauses == [sorted(c, key=abs) for c in expected.clauses]

    def test_fallback_at_a_nonzero_base(self):
        ts = TransitionSystem(constrained_design())
        expected, actual = CnfBuilder(), CnfBuilder()
        for sink in (expected, actual):
            sink.add_clause([sink.new_var(), -sink.new_var()])
        assert ts.encode_step(actual) == direct(ts, "step", expected)
        assert actual.clauses == [sorted(c, key=abs) for c in expected.clauses]

    def test_loaded_encodings_are_private_copies(self):
        ts = TransitionSystem(FAMILIES["f175"])
        first = ts.encode_step(Solver())
        first.curr.clear()
        first.prop_curr.clear()
        second = ts.encode_step(Solver())
        assert len(second.curr) == ts.num_state_vars and second.prop_curr


class TestCacheLifetime:
    def test_one_encoder_run_per_kind_however_many_loads(self, encoder_runs):
        ts = TransitionSystem(FAMILIES["f175"])
        for _ in range(5):
            for kind in KINDS:
                LOADERS[kind](ts, Solver())
        assert len(encoder_runs) == 3

    def test_pickle_is_byte_identical_cold_and_warm(self, encoder_runs):
        ts = TransitionSystem(FAMILIES["f175"])
        cold = pickle.dumps(ts)
        for kind in KINDS:
            LOADERS[kind](ts, Solver())
        assert ts._templates
        assert pickle.dumps(ts) == cold
        # The sender keeps its templates; the receiver starts without
        # and rebuilds on first use.
        assert len(ts._templates) == 3
        clone = pickle.loads(pickle.dumps(ts))
        assert clone._templates == {}
        before = len(encoder_runs)
        expected, actual = Solver(), Solver()
        assert clone.encode_step(actual) == ts.encode_step(expected)
        assert solver_state(actual) == solver_state(expected)
        assert len(encoder_runs) == before + 1

    def test_appending_and_nodes_keeps_templates(self, encoder_runs):
        # What multiprop/joint.py does to the shared AIG before it
        # builds its aggregate view.
        ts = TransitionSystem(FAMILIES["f175"])
        ts.encode_step(Solver())
        nodes = ts.aig.num_nodes
        aggregate = ts.aggregate_property_lit()
        assert ts.aig.num_nodes > nodes
        ts.encode_step(Solver())
        assert len(encoder_runs) == 1
        # The view is its own design with its own templates.
        view = TransitionSystem(ts.aig, properties=[Property("agg", aggregate)])
        assert "agg" in view.encode_step(Solver()).prop_curr
        assert len(encoder_runs) == 2

    def test_a_new_property_rebuilds(self, encoder_runs):
        ts = TransitionSystem(FAMILIES["f175"])
        assert "late" not in ts.encode_bad_frame(Solver()).prop_curr
        prop = Property("late", aig_not(ts.latches[0].lit))
        ts.properties.append(prop)
        ts.prop_by_name[prop.name] = prop
        solver = Solver()
        enc = ts.encode_bad_frame(solver)
        assert len(encoder_runs) == 2
        assert solver.solve([enc.prop_curr["late"], enc.curr[0]]) is Status.UNSAT

    def test_a_new_constraint_rebuilds(self, encoder_runs):
        ts = TransitionSystem(FAMILIES["f175"])
        solver = Solver()
        enc = ts.encode_step(solver)
        assert solver.solve([enc.curr[0]]) is Status.SAT
        ts.aig.add_constraint(aig_not(ts.latches[0].lit))
        solver = Solver()
        enc = ts.encode_step(solver)
        assert len(encoder_runs) == 2
        assert solver.solve([enc.curr[0]]) is Status.UNSAT

    def test_a_changed_latch_list_rebuilds(self, encoder_runs):
        ts = TransitionSystem(FAMILIES["f175"])
        assert len(ts.encode_step(Solver()).next) == len(ts.latches)
        ts.latches.pop()
        assert len(ts.encode_step(Solver()).next) == len(ts.latches)
        assert len(encoder_runs) == 2
