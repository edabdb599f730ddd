"""Frame templates: one Tseitin run per design, every frame projected from it.

``TransitionSystem.encode_*`` load a per-design template into the
caller's sink.  The reference is ``TransitionSystem._encode_into`` run
straight into a solver — the ``ConeEncoder`` path the templates record —
and "equal" means equal solver state (``tests.conftest.solver_state``),
so that every search over a loaded template is bit-identical.

``TransitionSystem.encode_cone`` loads a frame projected onto one
target's cone.  Its reference is the simulator: with every latch and
input fixed, each literal the frame exposes (properties, constraints,
next-state variables) must take the value ``repro.circuit.simulate``
gives it, and proofs over projected frames must keep the verdicts,
frames and query counts recorded before projections existed.
"""

from __future__ import annotations

import pickle
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.aig import AIG, Property, aig_not
from repro.circuit.simulate import Simulator
from repro.encode.cnf import CnfBuilder
from repro.engines.ic3 import IC3, IC3Options
from repro.gen import all_true_designs, failing_designs, random_design
from repro.multiprop.ja import JAVerifier
from repro.sat import Solver, Status
from repro.session import VerificationConfig
from repro.ts.projection import assumption_names
from repro.ts import system
from repro.ts.system import FrameEncoding, OutOfSliceError, TransitionSystem
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
    def test_one_encoder_run_per_design_however_many_loads(self, encoder_runs):
        ts = TransitionSystem(FAMILIES["f175"])
        for _ in range(5):
            for kind in KINDS:
                LOADERS[kind](ts, Solver())
            for name in ts.prop_by_name:
                for kind in KINDS:
                    ts.encode_cone(Solver(), kind, name, ts.prop_by_name.keys() - {name})
        assert encoder_runs == ["CnfBuilder"]

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

    def test_concurrent_first_use_builds_one_cone_index(self, monkeypatch):
        # Two jobs certifying on one shared system (the proof cache's
        # cones are shared): the first is held inside the cone index's
        # construction while the second asks for another projection.
        # The second must wait for the first's index, not build its own
        # over it.
        ts = TransitionSystem(FAMILIES["f175"])
        ts.encode_step(Solver())
        held, release, progressed = threading.Event(), threading.Event(), threading.Event()
        built = []
        init = system.ConeIndex.__init__

        def held_init(index, *args):
            built.append(threading.current_thread().name)
            if len(built) == 1:
                held.set()
                assert release.wait(60)
            init(index, *args)

        class WaitingLock:
            """The system's lock; says when the second job reaches it."""

            def __init__(self, lock):
                self.lock = lock

            def __enter__(self):
                if threading.current_thread().name == "second":
                    progressed.set()
                return self.lock.__enter__()

            def __exit__(self, *exc):
                return self.lock.__exit__(*exc)

        monkeypatch.setattr(system.ConeIndex, "__init__", held_init)
        ts._lock = WaitingLock(getattr(ts, "_lock", threading.RLock()))
        first_name, second_name = sorted(ts.prop_by_name)[:2]
        frames = {}

        def load(name):
            frames[name] = ts.encode_cone(Solver(), "bad", name)
            progressed.set()

        first = threading.Thread(target=load, args=(first_name,), name="first")
        first.start()
        assert held.wait(60)
        second = threading.Thread(target=load, args=(second_name,), name="second")
        second.start()
        assert progressed.wait(60)
        release.set()
        first.join(60)
        second.join(60)
        assert built == ["first"]
        assert set(frames) == {first_name, second_name}
        assert ("bad", first_name) in ts._templates
        assert ("bad", second_name) in ts._templates


# ----------------------------------------------------------------------
# Per-target projections
# ----------------------------------------------------------------------
def cone_frames(ts: TransitionSystem):
    """Every per-target frame ``ja`` and ``separate`` load: (kind,
    target, assumed, respect)."""
    for prop in ts.properties:
        yield "bad", prop.name, (), False
        yield "init", prop.name, (), False
        yield "step", prop.name, (), False
        assumed = assumption_names(ts, prop.name)
        for respect in (False, True):
            yield "step", prop.name, assumed, respect


def assert_projections_simulate(aig: AIG, seed: int) -> None:
    ts = TransitionSystem(aig)
    rng = random.Random(seed)
    sim = Simulator(aig)
    for kind, target, assumed, respect in cone_frames(ts):
        solver = Solver()
        enc = ts.encode_cone(solver, kind, target, assumed, respect)
        state = {latch.lit: rng.random() < 0.5 for latch in ts.latches}
        if kind == "init":
            for latch in ts.latches:
                if latch.init is not None:
                    state[latch.lit] = bool(latch.init)
        inputs = {inp: rng.random() < 0.5 for inp in aig.inputs}
        fixed = [
            var if state[latch.lit] else -var
            for var, latch in zip(enc.curr, ts.latches)
        ] + [var if inputs[inp] else -var for inp, var in enc.inputs.items()]
        sim.state = state
        admitted = all(sim.eval_lits(aig.constraints, inputs))
        status = solver.solve(fixed)
        assert status is (Status.SAT if admitted else Status.UNSAT)
        assert set(enc.prop_curr) == ({target} if kind != "step" else set(assumed))
        if not admitted:
            continue
        for name, lit in enc.prop_curr.items():
            assert solver.value(lit) == sim.eval_lit(ts.prop_by_name[name].lit, inputs)
        assert all(solver.value(lit) for lit in enc.constraint_curr)
        if kind == "step":
            assert 0 in enc.next
            for position, var in enc.next.items():
                expected = sim.eval_lit(ts.latches[position].next, inputs)
                assert solver.value(var) == expected
            for position in set(range(len(ts.latches))) - set(enc.next):
                with pytest.raises(OutOfSliceError):
                    enc.cube_lits_next((position + 1,))


def input_only_design() -> AIG:
    """Targets over inputs only: a lifted cube is empty, so IC3 falls
    back to a latch-0 literal, and latch 0 is in no property's cone."""
    aig = AIG()
    x = aig.add_input("x")
    y = aig.add_input("y")
    a = aig.add_latch("a", init=1)
    q = aig.add_latch("q", init=0)
    r = aig.add_latch("r", init=0)
    aig.set_next(a, a)
    aig.set_next(q, x)
    aig.set_next(r, q)
    aig.add_constraint(aig.or_(x, y))
    aig.add_property("in_only", aig.or_(x, y))
    aig.add_property("in_mix", aig_not(aig.and_(x, y)))
    aig.add_property("r_low", aig_not(r))
    return aig


def latch_constraint_design() -> AIG:
    """A constraint over a latch no property reads: ``h`` stays 1 and
    keeps ``x`` at 0, so ``q`` and ``r`` stay 0.  Lifting keeps ``h`` in
    the cubes that need the constraint, so the slice must follow the
    constraints' cones too."""
    aig = AIG()
    x = aig.add_input("x")
    z = aig.add_latch("z", init=0)
    h = aig.add_latch("h", init=1)
    q = aig.add_latch("q", init=0)
    r = aig.add_latch("r", init=0)
    aig.set_next(z, z)
    aig.set_next(h, h)
    aig.set_next(q, x)
    aig.set_next(r, q)
    aig.add_constraint(aig_not(aig.and_(h, x)))
    aig.add_property("r_low", aig_not(r))
    aig.add_property("z_low", aig_not(z))
    return aig


def results(aig: AIG, local: bool) -> dict:
    verifier = JAVerifier(
        TransitionSystem(aig), VerificationConfig(solver_backend="cdcl"), local=local
    )
    report = verifier.run()
    return {
        name: (
            outcome.status.name,
            outcome.frames,
            verifier.results[name].stats["sat_queries"],
            outcome.cex_depth,
            outcome.reruns,
        )
        for name, outcome in report.outcomes.items()
    }


#: design -> strategy -> property -> (status, frames, sat_queries,
#: cex_depth, reruns), recorded on whole-design frames, before
#: per-target projections existed.
_INPUT_ONLY = {
    "in_only": ("HOLDS", 2, 2, None, 0),
    "in_mix": ("FAILS", 1, 1, 1, 0),
    "r_low": ("FAILS", 3, 8, 3, 0),
}
_CONSTRAINED = {"const_true": ("HOLDS", 2, 2, None, 0), "p": ("HOLDS", 3, 9, None, 0)}
_LATCH_CONSTRAINT = {"r_low": ("HOLDS", 3, 15, None, 0), "z_low": ("HOLDS", 2, 5, None, 0)}
EDGE_PINS = {
    "input_only": {"ja": _INPUT_ONLY, "separate": _INPUT_ONLY},
    "constrained": {"ja": _CONSTRAINED, "separate": _CONSTRAINED},
    "latch_constraint": {"ja": _LATCH_CONSTRAINT, "separate": _LATCH_CONSTRAINT},
    "random_design(0)": {
        # P2's first local run finds a CEX spurious under P0/P1: the
        # ladder re-runs it with constraint-respecting lifting.
        "ja": {
            "P0": ("FAILS", 2, 3, 2, 0),
            "P1": ("FAILS", 1, 1, 1, 0),
            "P2": ("HOLDS", 3, 21, None, 1),
        },
        "separate": {
            "P0": ("FAILS", 2, 3, 2, 0),
            "P1": ("FAILS", 1, 1, 1, 0),
            "P2": ("FAILS", 2, 3, 2, 0),
        },
    },
}
EDGE_DESIGNS = {
    "input_only": input_only_design,
    "constrained": constrained_design,
    "latch_constraint": latch_constraint_design,
    "random_design(0)": lambda: random_design(0),
}


class TestProjections:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family_frames_compute_what_the_simulator_does(self, name):
        assert_projections_simulate(FAMILIES[name], seed=len(name))

    @settings(max_examples=60, deadline=None)
    @given(RANDOM_DESIGNS, st.integers(min_value=0, max_value=10_000))
    def test_random_design_frames_compute_what_the_simulator_does(self, aig, seed):
        assert_projections_simulate(aig, seed)

    @pytest.mark.parametrize("design", sorted(EDGE_DESIGNS))
    def test_edge_design_frames_compute_what_the_simulator_does(self, design):
        assert_projections_simulate(EDGE_DESIGNS[design](), seed=0)

    def test_bad_and_init_frames_hold_the_target_cone_only(self):
        ts = TransitionSystem(FAMILIES["f380"])
        whole = Solver()
        ts.encode_bad_frame(whole)
        for prop in ts.properties[:4]:
            solver = Solver()
            ts.encode_cone(solver, "bad", prop.name)
            assert 0 < solver.num_vars < whole.num_vars

    def test_unknown_target_and_kind_are_named(self):
        ts = TransitionSystem(FAMILIES["f175"])
        with pytest.raises(KeyError, match="nope"):
            ts.encode_cone(Solver(), "bad", "nope")
        with pytest.raises(ValueError, match="frame kind"):
            ts.encode_cone(Solver(), "next", ts.properties[0].name)


class TestProjectedProofs:
    """Edge cases of the slice, proved with the verdicts recorded on
    whole-design frames."""

    @pytest.mark.parametrize("design", sorted(EDGE_DESIGNS))
    @pytest.mark.parametrize("strategy", ["ja", "separate"])
    def test_verdicts_frames_and_queries_are_unchanged(self, design, strategy):
        aig = EDGE_DESIGNS[design]()
        assert results(aig, strategy == "ja") == EDGE_PINS[design][strategy]

    def test_the_latch_zero_cube_of_an_input_only_target_has_a_next_state(self):
        ts = TransitionSystem(input_only_design())
        ic3 = IC3(ts, "in_only", IC3Options(assumed=["in_mix", "r_low"]))
        _, enc = ic3._step_solver()
        # Nothing the target or the constraint reads is a latch: the
        # slice is latch 0 alone, which an empty lifted cube falls back to.
        assert set(enc.next) == {0}
        with pytest.raises(OutOfSliceError):
            enc.cube_lits_next((2,))
        cube = ic3._cube_from_lifted([None, None, None], (False, True, False))
        assert cube == (-1,)
        blocked, _ = ic3._consecution(cube, 0)
        assert blocked  # latch a is 1 initially and forever

    def test_a_spurious_local_cex_reruns_on_a_respecting_slice(self):
        ts = TransitionSystem(random_design(0))
        report = JAVerifier(ts, VerificationConfig(solver_backend="cdcl")).run()
        assert report.outcomes["P2"].reruns == 1
        # The rerun loaded the slice that also follows the assumptions.
        assumed = tuple(assumption_names(ts, "P2"))
        assert ("step", "P2", assumed, True) in ts._templates
