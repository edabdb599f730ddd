"""Tests for the standalone certification API."""

from __future__ import annotations

import random

import pytest

from repro.circuit.simulate import Simulator
from repro.engines.certify import CertificateReport, certify_cex, certify_invariant
from repro.engines.ic3 import IC3Options, ic3_check
from repro.gen.random_designs import random_design
from repro.ts.system import TransitionSystem
from repro.ts.trace import Trace


class TestCertifyInvariant:
    def test_accepts_engine_invariants(self):
        for seed in range(15):
            ts = TransitionSystem(random_design(seed))
            for prop in ts.properties:
                result = ic3_check(ts, prop.name)
                if result.holds:
                    report = certify_invariant(ts, prop.name, result.invariant)
                    assert report.valid, report.reason

    def test_accepts_local_invariants(self, counter4):
        result = ic3_check(counter4, "P1", IC3Options(assumed=("P0",)))
        assert result.holds
        report = certify_invariant(counter4, "P1", result.invariant, assumed=("P0",))
        assert report.valid
        # Without the assumption the same clause set must NOT certify P1
        # (P1 is globally false).
        report = certify_invariant(counter4, "P1", result.invariant)
        assert not report.valid

    def test_rejects_init_violation(self, counter4):
        report = certify_invariant(counter4, "P1", [(1,)], assumed=("P0",))
        assert not report.valid
        assert "initial" in report.reason

    def test_rejects_non_inductive(self):
        from repro.circuit.aig import AIG

        aig = AIG()
        x = aig.add_input("x")
        q = aig.add_latch("q", init=0)
        aig.set_next(q, x)
        aig.add_property("p", 1)
        ts = TransitionSystem(aig)
        report = certify_invariant(ts, "p", [(-1,)])  # "q stays 0": wrong
        assert not report.valid
        assert "inductive" in report.reason

    def test_rejects_unknown_names(self, counter4):
        assert not certify_invariant(counter4, "zzz", [])
        assert not certify_invariant(counter4, "P1", [], assumed=("zzz",))

    def test_rejects_invariant_not_implying_property(self, toggler):
        # Empty invariant proves nothing about the failing property.
        report = certify_invariant(toggler, "never_q", [])
        assert not report.valid
        assert "imply" in report.reason


class TestCertifyCex:
    def test_accepts_valid_cex(self, counter4):
        result = ic3_check(counter4, "P0")
        report = certify_cex(counter4, "P0", result.cex)
        assert report.valid

    def test_rejects_wrong_frame(self, toggler):
        trace = Trace(inputs=[{}, {}, {}])  # fails at 1, not at 2
        report = certify_cex(toggler, "never_q", trace)
        assert not report.valid
        assert "frame" in report.reason

    def test_rejects_non_failing_trace(self, toggler):
        trace = Trace(inputs=[{}])
        assert not certify_cex(toggler, "never_q", trace)

    def test_rejects_empty_trace(self, toggler):
        assert not certify_cex(toggler, "never_q", Trace(inputs=[]))

    def test_local_side_condition(self, counter4):
        # A trace where P0 fails before P1 is spurious as a local CEX for P1.
        enable, req = counter4.aig.inputs
        inputs = [{enable: True, req: False} for _ in range(10)]
        trace = Trace(inputs=inputs)
        prop = counter4.prop_by_name["P1"]
        assert trace.validate(counter4.aig, prop.lit)
        assert certify_cex(counter4, "P1", trace).valid
        report = certify_cex(counter4, "P1", trace, assumed=("P0",))
        assert not report.valid
        assert "spurious" in report.reason

    def test_one_replay_checks_target_and_assumptions(self, counter4, monkeypatch):
        replays, steps = [], []
        init, step = Simulator.__init__, Simulator.step

        def counted_init(sim, aig):
            replays.append(aig)
            init(sim, aig)

        def counted_step(sim, inputs):
            steps.append(inputs)
            step(sim, inputs)

        monkeypatch.setattr(Simulator, "__init__", counted_init)
        monkeypatch.setattr(Simulator, "step", counted_step)
        cex = ic3_check(counter4, "P0").cex
        del replays[:], steps[:]
        assert certify_cex(counter4, "P0", cex, assumed=("P1",)).valid
        assert len(replays) == 1
        assert len(steps) == len(cex) - 1

    @pytest.mark.parametrize("seed", range(40))
    def test_verdicts_and_reasons_are_the_two_replay_ones(self, seed):
        # The reference is the former definition: replay for the target's
        # first failure, then again for the assumed properties' first.
        rng = random.Random(seed)
        aig = random_design(seed=seed, n_latches=3, n_inputs=2, n_gates=8, n_props=3)
        ts = TransitionSystem(aig)
        names = sorted(ts.prop_by_name)
        target = rng.choice(names)
        assumed = [n for n in names if n != target and rng.random() < 0.7]
        if rng.random() < 0.2:
            assumed.append("nope")
        trace = Trace(
            inputs=[
                {inp: rng.random() < 0.5 for inp in aig.inputs}
                for _ in range(rng.randint(1, 6))
            ]
        )
        assert certify_cex(ts, target, trace, assumed) == _two_replays(
            ts, target, trace, assumed
        )


def _two_replays(ts, prop_name, trace, assumed):
    last = len(trace) - 1
    fail_at = trace.failure_frame(ts.aig, ts.prop_by_name[prop_name].lit)
    if fail_at is None:
        return CertificateReport(False, "trace never falsifies the property")
    if fail_at != last:
        return CertificateReport(
            False, f"property first fails at frame {fail_at}, not the final frame {last}"
        )
    lits = {}
    for name in assumed:
        if name not in ts.prop_by_name:
            return CertificateReport(False, f"unknown assumed property {name!r}")
        lits[name] = ts.prop_by_name[name].lit
    frame, failed = trace.first_failures(ts.aig, lits)
    if frame is not None and frame < last:
        return CertificateReport(
            False,
            f"assumed properties {failed} fail at frame {frame}, before "
            "the target: spurious as a local counterexample",
        )
    return CertificateReport(True, f"depth-{len(trace)} counterexample for {prop_name}")
