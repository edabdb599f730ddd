"""Tests for ternary simulation and state lifting.

``oracle_evaluate``/``oracle_lift`` are the lifter this repository had
before the netlist was compiled: X out one latch at a time, last latch
first, and re-evaluate every target's cone from scratch.  The compiled,
event-driven :class:`Lifter` must return the very same list, call by
call — that is what keeps every IC3 search counter where it was.
"""

from __future__ import annotations

import pickle
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.aig import AIG, aig_not, aig_var, is_negated
from repro.circuit.simulate import FALSE, TRUE, X, ConeEvaluator, Simulator
from repro.engines.ic3 import core as ic3_core
from repro.engines.ic3.ternary import Lifter
from repro.gen import all_true_designs, failing_designs
from repro.gen.random_designs import random_design
from repro.multiprop.ja import JAVerifier
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem


# ----------------------------------------------------------------------
# The reference: a dict-cached walk per evaluation, one per dropped latch
# ----------------------------------------------------------------------
def _apply_sign(value, negated):
    if value is None:
        return None
    return (not value) if negated else value


def oracle_evaluate(aig, roots, latch_values, input_values):
    """Ternary values (True/False/None) of ``roots``; missing leaves are X."""
    cache = {0: False}
    out = []
    for root in roots:
        stack = [aig_var(root)]
        while stack:
            idx = stack[-1]
            if idx in cache:
                stack.pop()
                continue
            kind = aig.kind(idx)
            if kind == "input":
                cache[idx] = input_values.get(idx * 2, None)
                stack.pop()
            elif kind == "latch":
                cache[idx] = latch_values.get(idx * 2, None)
                stack.pop()
            else:
                left, right = aig.and_fanins(idx)
                lv, rv = aig_var(left), aig_var(right)
                pending = [v for v in (lv, rv) if v not in cache]
                if pending:
                    stack.extend(pending)
                    continue
                lval = _apply_sign(cache[lv], is_negated(left))
                rval = _apply_sign(cache[rv], is_negated(right))
                if lval is False or rval is False:
                    cache[idx] = False
                elif lval is None or rval is None:
                    cache[idx] = None
                else:
                    cache[idx] = True
                stack.pop()
        out.append(_apply_sign(cache[aig_var(root)], is_negated(root)))
    return out


def oracle_lift(aig, latch_order, latch_values, input_values, require_true, require_false=()):
    targets = list(require_true) + list(require_false)
    n_true = len(list(require_true))

    def check(assignment):
        values = oracle_evaluate(aig, targets, assignment, input_values)
        return all(
            value is not None and value is (i < n_true) for i, value in enumerate(values)
        )

    current = {lit: bool(v) for lit, v in zip(latch_order, latch_values)}
    if not check(current):
        raise ValueError("lifting targets do not hold in the concrete state")
    for lit in reversed(list(latch_order)):
        saved = current[lit]
        current[lit] = None
        if not check(current):
            current[lit] = saved
    return [current[lit] for lit in latch_order]


def evaluate(aig, roots, latch_values, input_values):
    """``oracle_evaluate``'s contract on the compiled evaluator."""
    ev = ConeEvaluator(aig)
    values = {**input_values, **latch_values}
    as_ternary = {None: X, False: FALSE, True: TRUE}
    ev.evaluate(roots, lambda node: as_ternary[values.get(2 * node)])
    return [{FALSE: False, X: None, TRUE: True}[ev.val[root]] for root in roots]


def lift(aig, latch_order, latch_values, input_values, require_true, require_false=()):
    return Lifter(aig, latch_order).lift(latch_values, input_values, require_true, require_false)


class TestTernaryEvaluator:
    def setup_method(self):
        self.aig = AIG()
        self.a = self.aig.add_input("a")
        self.b = self.aig.add_input("b")
        self.g = self.aig.and_(self.a, self.b)

    def _eval(self, lit, inputs):
        value = evaluate(self.aig, [lit], {}, inputs)[0]
        assert value is oracle_evaluate(self.aig, [lit], {}, inputs)[0]
        return value

    def test_definite_values(self):
        assert self._eval(self.g, {self.a: True, self.b: True}) is True
        assert self._eval(self.g, {self.a: True, self.b: False}) is False

    def test_false_dominates_x(self):
        assert self._eval(self.g, {self.a: False, self.b: None}) is False

    def test_x_propagates(self):
        assert self._eval(self.g, {self.a: True, self.b: None}) is None

    def test_negation_of_x_is_x(self):
        assert self._eval(aig_not(self.g), {self.a: True, self.b: None}) is None

    def test_missing_leaf_defaults_to_x(self):
        assert self._eval(self.g, {self.a: True}) is None

    def test_constants(self):
        assert self._eval(0, {}) is False
        assert self._eval(1, {}) is True

    def test_conservative_wrt_concrete(self):
        # A definite ternary value must equal the concrete value for every
        # completion of the X-ed inputs.
        rng = random.Random(5)
        for seed in range(20):
            aig = random_design(seed, n_props=1)
            sim = Simulator(aig)
            root = aig.properties[0].lit
            latch_vals = {l.lit: rng.random() < 0.5 for l in aig.latches}
            input_vals = {
                x: rng.choice([True, False, None]) for x in aig.inputs
            }
            ternary = evaluate(aig, [root], latch_vals, input_vals)[0]
            assert ternary is oracle_evaluate(aig, [root], latch_vals, input_vals)[0]
            if ternary is None:
                continue
            sim.state = dict(latch_vals)
            for completion in range(4):
                concrete = {
                    x: (v if v is not None else bool(completion & 1))
                    for x, v in input_vals.items()
                }
                assert sim.eval_lit(root, concrete) == ternary


class TestLiftState:
    def test_drops_irrelevant_latches(self):
        aig = AIG()
        q0 = aig.add_latch("q0", init=0)
        q1 = aig.add_latch("q1", init=0)
        aig.set_next(q0, q0)
        aig.set_next(q1, q1)
        lifted = lift(
            aig,
            latch_order=[q0, q1],
            latch_values=[True, True],
            input_values={},
            require_true=[q0],
        )
        assert lifted == [True, None]  # q1 is irrelevant to the target

    def test_keeps_required_latches(self):
        aig = AIG()
        q0 = aig.add_latch("q0", init=0)
        q1 = aig.add_latch("q1", init=0)
        g = aig.and_(q0, q1)
        lifted = lift(aig, [q0, q1], [True, True], {}, require_true=[g])
        assert lifted == [True, True]

    def test_require_false(self):
        aig = AIG()
        q0 = aig.add_latch("q0", init=0)
        q1 = aig.add_latch("q1", init=0)
        g = aig.and_(q0, q1)
        lifted = lift(
            aig, [q0, q1], [False, True], {}, require_true=[], require_false=[g]
        )
        # q0=False alone falsifies g: q1 can be lifted away.
        assert lifted == [False, None]

    def test_rejects_violated_targets(self):
        aig = AIG()
        q0 = aig.add_latch("q0", init=0)
        with pytest.raises(ValueError):
            lift(aig, [q0], [False], {}, require_true=[q0])

    def test_lifting_is_sound(self):
        # Every completion of the lifted cube keeps the targets definite.
        rng = random.Random(11)
        for seed in range(15):
            aig = random_design(seed, n_props=2)
            latch_order = [l.lit for l in aig.latches]
            sim = Simulator(aig)
            state = [rng.random() < 0.5 for _ in latch_order]
            inputs = {x: rng.random() < 0.5 for x in aig.inputs}
            sim.state = dict(zip(latch_order, state))
            target = aig.properties[0].lit
            want = sim.eval_lit(target, inputs)
            lifted = lift(
                aig,
                latch_order,
                state,
                inputs,
                require_true=[target] if want else [],
                require_false=[] if want else [target],
            )
            free = [i for i, v in enumerate(lifted) if v is None]
            for completion in range(1 << min(len(free), 5)):
                values = list(lifted)
                for k, idx in enumerate(free[:5]):
                    values[idx] = bool((completion >> k) & 1)
                for idx, v in enumerate(values):
                    if v is None:
                        values[idx] = state[idx]
                sim.state = dict(zip(latch_order, values))
                assert sim.eval_lit(target, inputs) == want


# ----------------------------------------------------------------------
# Cube identity against the reference
# ----------------------------------------------------------------------
def both(aig, latch_order, latch_values, input_values, require_true, require_false=()):
    """The lifted list, asserted equal to the reference's."""
    args = (latch_values, input_values, require_true, require_false)
    lifted = lift(aig, latch_order, *args)
    assert lifted == oracle_lift(aig, latch_order, *args)
    return lifted


class TestHandCases:
    def setup_method(self):
        # g = (q0 & q1) | q2 ; h = q3 & x
        self.aig = aig = AIG()
        self.x = aig.add_input("x")
        self.q = [aig.add_latch(f"q{i}", init=0) for i in range(5)]
        q0, q1, q2, q3, _ = self.q
        self.g = aig.or_(aig.and_(q0, q1), q2)
        self.h = aig.and_(q3, self.x)

    def test_failed_drop_then_successful_drop_restores_every_node(self):
        q0, q1, q2, q3, q4 = self.q
        # Last first: q4 is outside the cone; q2 (False) cannot go, and its
        # failed attempt walked up to g before the undo; q1 then goes
        # because q0 = False holds the AND — which only reads correctly if
        # the undo put q2, the OR's inner AND and g back.
        lifted = both(self.aig, self.q, [False, True, False, True, True], {}, [], [self.g])
        assert lifted == [False, None, False, None, None]

    def test_undo_restores_values_for_the_next_attempt(self):
        q0, q1, q2, _, _ = self.q
        # g true through q0 & q1 only: q2 (False) goes, then q1 and q0
        # each fail after touching the inner AND, the OR and g.
        lifted = both(self.aig, [q0, q1, q2], [True, True, False], {}, [self.g])
        assert lifted == [True, True, None]

    def test_failed_x_out_leaves_no_trace(self):
        q0, q1, q2, _, _ = self.q
        ev = ConeEvaluator(self.aig)
        ev.evaluate([self.g], lambda node: FALSE if node == aig_var(q2) else TRUE)
        before = list(ev.val)
        required = {aig_var(self.g)}
        assert not ev.x_out(aig_var(q1), required)  # X-es q1, q0 & q1, then meets g
        assert ev.val == before
        assert ev.x_out(aig_var(q2), required)
        assert ev.val != before and ev.val[self.g] == TRUE

    def test_latch_that_is_itself_a_target(self):
        q0, q1 = self.q[:2]
        assert both(self.aig, [q0, q1], [True, False], {}, [q0], [q1]) == [True, False]
        assert both(self.aig, [q0, q1], [True, False], {}, [q0]) == [True, None]

    def test_target_depending_on_inputs_only(self):
        assert both(self.aig, self.q, [True] * 5, {self.x: True}, [self.x]) == [None] * 5

    def test_latch_outside_every_cone(self):
        lifted = both(self.aig, self.q, [True] * 5, {self.x: True}, [self.h])
        assert lifted == [None, None, None, True, None]

    def test_missing_input_is_x(self):
        q3 = self.q[3]
        # h = q3 & x with x unknown: definite only when q3 is False.
        assert both(self.aig, self.q, [False] * 5, {}, [], [self.h])[3] is False
        with pytest.raises(ValueError):
            lift(self.aig, self.q, [True] * 5, {}, [self.h])
        with pytest.raises(ValueError):
            oracle_lift(self.aig, self.q, [True] * 5, {}, [self.h])
        assert q3 in self.q

    def test_cone_latch_absent_from_latch_order_is_x(self):
        q0, q1, q2, _, _ = self.q
        # COI-reduced callers name a subset: q1 is X, so q0 & q1 is X
        # unless q0 is False, and g is definite only through q2.
        assert both(self.aig, [q0, q2], [True, True], {}, [self.g]) == [None, True]
        with pytest.raises(ValueError):
            lift(self.aig, [q0, q2], [True, False], {}, [self.g])

    def test_and_nodes_appended_after_the_first_lift(self):
        q0, q1, q2, q3, _ = self.q
        lifter = Lifter(self.aig, self.q)
        state = [True, True, False, True, False]
        assert lifter.lift(state, {self.x: True}, [self.g]) == [True, True, None, None, None]
        first = self.aig.netlist()
        both_targets = self.aig.and_(self.g, self.h)  # new AND reading old nodes
        assert self.aig.netlist() is not first
        assert first.fanouts[aig_var(self.g)] == []  # the one in flight is untouched
        lifted = lifter.lift(state, {self.x: True}, [both_targets])
        assert lifted == oracle_lift(self.aig, self.q, state, {self.x: True}, [both_targets])
        assert lifted == [True, True, None, True, None]

    def test_unsatisfied_targets_raise(self):
        for require_true, require_false in (([self.g], []), ([], [self.q[0]])):
            with pytest.raises(ValueError):
                lift(self.aig, self.q, [True, False, False, True, True], {}, require_true, require_false)
            with pytest.raises(ValueError):
                oracle_lift(
                    self.aig, self.q, [True, False, False, True, True], {}, require_true, require_false
                )

    def test_netlist_is_not_pickled(self):
        before = pickle.dumps(self.aig)
        lift(self.aig, self.q, [True] * 5, {self.x: True}, [self.h])
        assert self.aig._netlist is not None
        assert pickle.dumps(self.aig) == before
        assert pickle.loads(before)._netlist is None


def test_lifts_on_other_threads_survive_a_growing_aig():
    # Threaded service jobs may share one design: each run owns its
    # scratch values, the netlist is shared, and `joint` appends ANDs
    # (hence a new netlist) while other runs are mid-lift.
    aig = random_design(3, n_latches=8, n_inputs=3, n_gates=40, n_props=3)
    order = [latch.lit for latch in aig.latches]
    rng = random.Random(0)
    cases = []
    while len(cases) < 12:
        state = [rng.random() < 0.5 for _ in order]
        inputs = {x: rng.random() < 0.5 for x in aig.inputs}
        targets = rng.sample([latch.next for latch in aig.latches], 3)
        values = oracle_evaluate(aig, targets, dict(zip(order, state)), inputs)
        true = [t for t, v in zip(targets, values) if v]
        false = [t for t, v in zip(targets, values) if not v]
        cases.append((state, inputs, true, false, oracle_lift(aig, order, state, inputs, true, false)))
    stop = time.monotonic() + 0.5
    wrong: list = []

    def worker():
        lifter = Lifter(aig, order)
        try:
            while time.monotonic() < stop:
                for state, inputs, true, false, expected in cases:
                    if lifter.lift(state, inputs, true, false) != expected:
                        wrong.append((state, inputs, true, false))
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        grown = aig.properties[0].lit
        while time.monotonic() < stop:
            grown = aig.and_(grown, aig_not(rng.choice(order)) ^ rng.randrange(2))
            aig.netlist()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(aig.netlist().fanouts) == aig.num_nodes


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_random_designs_lift_like_the_reference(seed, data):
    aig = random_design(seed, n_latches=6, n_inputs=3, n_gates=20, n_props=3)
    latch_order = [latch.lit for latch in aig.latches]
    if data.draw(st.booleans()):  # a COI-style subset of the latches
        latch_order = data.draw(st.lists(st.sampled_from(latch_order), unique=True))
    state = data.draw(st.lists(st.booleans(), min_size=len(latch_order), max_size=len(latch_order)))
    inputs = {x: data.draw(st.sampled_from([True, False, None])) for x in aig.inputs}
    if data.draw(st.booleans()):
        inputs.pop(aig.inputs[0])
    pool = [p.lit for p in aig.properties] + [latch.next for latch in aig.latches]
    targets = data.draw(st.lists(st.sampled_from(pool), max_size=4))
    latch_values = dict(zip(latch_order, state))
    values = oracle_evaluate(aig, targets, latch_values, inputs)
    assert evaluate(aig, targets, latch_values, inputs) == values
    if data.draw(st.integers(0, 9)) == 0 and targets:  # make one target not hold
        values[0] = not values[0]
    require_true = [t for t, v in zip(targets, values) if v is not False]
    require_false = [t for t, v in zip(targets, values) if v is False]
    try:
        expected = oracle_lift(aig, latch_order, state, inputs, require_true, require_false)
    except ValueError:
        with pytest.raises(ValueError):
            lift(aig, latch_order, state, inputs, require_true, require_false)
    else:
        assert lift(aig, latch_order, state, inputs, require_true, require_false) == expected


# t275 without clause reuse is the benchmark's lifting-bound run (438 lifts).
@pytest.mark.parametrize(
    "name,respect",
    [(n, r) for n in ("f175", "t256", "t273", "f260") for r in (False, True)] + [("t275", False)],
)
def test_every_lift_of_a_ja_run_equals_the_reference(name, respect, monkeypatch):
    calls = []

    class SpiedLifter(Lifter):
        def __init__(self, aig, latch_order):
            super().__init__(aig, latch_order)
            self.reference = (aig, list(latch_order))

        def lift(self, latch_values, input_values, require_true, require_false=()):
            lifted = super().lift(latch_values, input_values, require_true, require_false)
            assert lifted == oracle_lift(
                *self.reference, latch_values, input_values, require_true, require_false
            )
            calls.append(lifted)
            return lifted

    monkeypatch.setattr(ic3_core, "Lifter", SpiedLifter)
    ts = TransitionSystem({**failing_designs(), **all_true_designs()}[name])
    config = VerificationConfig(
        solver_backend="cdcl",
        design_name=name,
        clause_reuse=False,
        respect_constraints_in_lifting=respect,
    )
    JAVerifier(ts, config).run()
    assert len(calls) > len(ts.properties)
    assert any(None in lifted for lifted in calls)
