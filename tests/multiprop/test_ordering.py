"""Tests for property-ordering heuristics."""

from __future__ import annotations

from repro.circuit.aig import AIG
from repro.gen.blocks import good_chain_slice, token_ring_slice
from repro.multiprop.ja import ja_verify
from repro.multiprop.ordering import by_cone_size, design_order, shuffled
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem


def _mixed_design():
    aig = AIG()
    good_chain_slice(aig, "c", 4)
    token_ring_slice(aig, "r", 4)
    return TransitionSystem(aig)


class TestOrders:
    def test_design_order(self, counter4):
        assert design_order(counter4) == ["P0", "P1"]

    def test_by_cone_size_puts_small_cones_first(self):
        ts = _mixed_design()
        order = by_cone_size(ts)
        # c_C0 touches a single latch: it must come before ring props
        # (which see the whole 4-latch ring).
        assert order.index("c_C0") < order.index("r_X0")
        assert set(order) == {p.name for p in ts.properties}

    def test_shuffled_is_deterministic(self, counter4):
        assert shuffled(counter4, 7) == shuffled(counter4, 7)

    def test_shuffled_differs_by_seed(self):
        ts = _mixed_design()
        orders = {tuple(shuffled(ts, s)) for s in range(10)}
        assert len(orders) > 1

    def test_shuffled_is_permutation(self):
        ts = _mixed_design()
        assert sorted(shuffled(ts, 3)) == sorted(design_order(ts))


class TestOrderAffectsRunButNotVerdicts:
    def test_all_orders_same_verdicts(self):
        ts = _mixed_design()
        baseline = ja_verify(ts, VerificationConfig(order=design_order(ts)))
        for order in (by_cone_size(ts), shuffled(ts, 1), shuffled(ts, 2)):
            report = ja_verify(ts, VerificationConfig(order=list(order)))
            assert report.true_props() == baseline.true_props()
            assert report.debugging_set() == baseline.debugging_set()
