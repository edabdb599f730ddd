"""Unit tests for the concrete simulator."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.circuit.aig import AIG, aig_not
from repro.circuit.simulate import Simulator
from repro.gen.random_designs import random_design
from repro.ts.trace import Trace


class TestCombinational:
    def test_gates(self):
        aig = AIG()
        a, b = aig.add_input("a"), aig.add_input("b")
        g_and = aig.and_(a, b)
        g_or = aig.or_(a, b)
        g_xor = aig.xor(a, b)
        sim = Simulator(aig)
        for va in (False, True):
            for vb in (False, True):
                inputs = {a: va, b: vb}
                assert sim.eval_lit(g_and, inputs) == (va and vb)
                assert sim.eval_lit(g_or, inputs) == (va or vb)
                assert sim.eval_lit(g_xor, inputs) == (va != vb)

    def test_constants(self):
        aig = AIG()
        sim = Simulator(aig)
        assert sim.eval_lit(0, {}) is False
        assert sim.eval_lit(1, {}) is True

    def test_missing_inputs_default_false(self):
        aig = AIG()
        a = aig.add_input("a")
        sim = Simulator(aig)
        assert sim.eval_lit(a, {}) is False

    def test_deep_chain_no_recursion_error(self):
        aig = AIG()
        x = aig.add_input("x")
        lit = x
        other = aig.add_input("y")
        for _ in range(5000):
            lit = aig.and_(lit, other)
        sim = Simulator(aig)
        assert sim.eval_lit(lit, {x: True, other: True}) is True


class TestSequential:
    def test_toggler(self):
        aig = AIG()
        q = aig.add_latch("q", init=0)
        aig.set_next(q, aig_not(q))
        sim = Simulator(aig)
        values = []
        for _ in range(4):
            values.append(sim.state[q])
            sim.step({})
        assert values == [False, True, False, True]

    def test_reset_restores_init(self):
        aig = AIG()
        q = aig.add_latch("q", init=1)
        aig.set_next(q, 0)
        sim = Simulator(aig)
        sim.step({})
        assert sim.state[q] is False
        sim.reset()
        assert sim.state[q] is True

    def test_uninitialized_latch_values(self):
        aig = AIG()
        q = aig.add_latch("q", init=None)
        aig.set_next(q, q)
        sim = Simulator(aig)
        assert sim.state[q] is False  # default
        sim.reset({q: True})
        assert sim.state[q] is True

    def test_enabled_register(self):
        aig = AIG()
        en, d = aig.add_input("en"), aig.add_input("d")
        q = aig.add_latch("q", init=0)
        aig.set_next(q, aig.mux(en, d, q))
        sim = Simulator(aig)
        sim.step({en: False, d: True})
        assert sim.state[q] is False  # not enabled: holds
        sim.step({en: True, d: True})
        assert sim.state[q] is True

    def test_run_watches_literals(self):
        aig = AIG()
        q = aig.add_latch("q", init=0)
        aig.set_next(q, aig_not(q))
        sim = Simulator(aig)
        rows = sim.run([{}] * 3, watch=[q, aig_not(q)])
        assert [r[q] for r in rows] == [False, True, False]
        assert [r[aig_not(q)] for r in rows] == [True, False, True]


class TestPropertyFailure:
    def test_failure_frame(self):
        aig = AIG()
        q = aig.add_latch("q", init=0)
        aig.set_next(q, aig_not(q))
        prop = aig_not(q)  # fails when q first becomes 1, at frame 1
        sim = Simulator(aig)
        assert sim.check_property_failure([{}] * 5, prop) == 1

    def test_no_failure_returns_none(self):
        aig = AIG()
        q = aig.add_latch("q", init=0)
        aig.set_next(q, q)
        sim = Simulator(aig)
        assert sim.check_property_failure([{}] * 5, aig_not(q)) is None

    def test_input_dependent_property(self):
        aig = AIG()
        x = aig.add_input("x")
        aig.add_latch("pad", init=0)  # keep the design sequential
        sim = Simulator(aig)
        seq = [{x: True}, {x: True}, {x: False}]
        assert sim.check_property_failure(seq, x) == 2


# ----------------------------------------------------------------------
# Against a reference: a memo-free recursive evaluator over the AIG
# ----------------------------------------------------------------------
def reference_eval(aig, lit, state, inputs):
    idx = lit >> 1
    kind = aig.kind(idx)
    if kind == "const":
        value = False
    elif kind == "input":
        value = bool(inputs.get(2 * idx, False))
    elif kind == "latch":
        value = state[2 * idx]
    else:
        left, right = aig.and_fanins(idx)
        value = reference_eval(aig, left, state, inputs) and reference_eval(
            aig, right, state, inputs
        )
    return value != bool(lit & 1)


def reference_step(aig, state, inputs):
    return {l.lit: reference_eval(aig, l.next, state, inputs) for l in aig.latches}


def reference_reset(aig, uninit):
    return {
        l.lit: bool(uninit.get(l.lit, False)) if l.init is None else bool(l.init)
        for l in aig.latches
    }


@st.composite
def design_and_stimulus(draw):
    aig = random_design(
        draw(st.integers(0, 10_000)), n_latches=5, n_inputs=3, n_gates=18, n_props=3
    )
    frame = st.fixed_dictionaries({}, optional={x: st.booleans() for x in aig.inputs})
    frames = draw(st.lists(frame, min_size=1, max_size=6))
    uninit = {l.lit: draw(st.booleans()) for l in aig.latches if l.init is None}
    return aig, frames, uninit


class TestAgainstReference:
    @settings(max_examples=120, deadline=None)
    @given(design_and_stimulus())
    def test_step_and_eval_lit(self, case):
        aig, frames, uninit = case
        sim = Simulator(aig)
        sim.reset(uninit)
        state = reference_reset(aig, uninit)
        lits = [p.lit for p in aig.properties] + [l.next ^ 1 for l in aig.latches]
        for inputs in frames:
            assert sim.state == state
            for lit in lits:
                assert sim.eval_lit(lit, inputs) is reference_eval(aig, lit, state, inputs)
            sim.step(inputs)
            state = reference_step(aig, state, inputs)
        assert sim.state == state

    @settings(max_examples=120, deadline=None)
    @given(design_and_stimulus())
    def test_check_property_failure_and_first_failures(self, case):
        aig, frames, uninit = case
        props = {p.name: p.lit for p in aig.properties}
        state = reference_reset(aig, uninit)
        failing = []  # per frame, the properties FALSE there
        for inputs in frames:
            failing.append(
                sorted(n for n, lit in props.items() if not reference_eval(aig, lit, state, inputs))
            )
            state = reference_step(aig, state, inputs)
        sim = Simulator(aig)
        for name, lit in props.items():
            expected = next((t for t, names in enumerate(failing) if name in names), None)
            assert sim.check_property_failure(frames, lit, uninit) == expected
        first = next((t for t, names in enumerate(failing) if names), None)
        trace = Trace(inputs=frames, uninit=uninit)
        assert trace.first_failures(aig, props) == (
            (None, []) if first is None else (first, failing[first])
        )

    def test_and_nodes_appended_after_the_first_evaluation(self):
        aig = AIG()
        a, b = aig.add_input("a"), aig.add_input("b")
        sim = Simulator(aig)
        assert sim.eval_lit(aig.and_(a, b), {a: True, b: True}) is True
        late = aig.and_(aig.and_(a, b), aig_not(b))
        assert sim.eval_lit(aig_not(late), {a: True, b: True}) is True
