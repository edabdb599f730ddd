"""Integration tests: all engines and drivers must tell one consistent
story on the same designs, exactly as the paper's theory predicts."""

from __future__ import annotations

from repro.engines.bmc import bmc_check
from repro.engines.ic3 import ic3_check
from repro.engines.kinduction import kinduction_check
from repro.engines.result import PropStatus
from repro.gen.counter import buggy_counter
from repro.gen.random_designs import random_design
from repro.multiprop.ja import JAVerifier, ja_verify, separate_verify
from repro.multiprop.joint import joint_verify
from repro.ts.system import TransitionSystem


class TestEngineAgreement:
    def test_three_engines_agree_on_global_verdicts(self):
        for seed in range(20):
            ts = TransitionSystem(random_design(seed))
            for prop in ts.properties:
                ic3 = ic3_check(ts, prop.name)
                bmc = bmc_check(ts, prop.name, max_depth=18)
                kind = kinduction_check(ts, prop.name, max_k=18)
                if ic3.fails:
                    assert bmc.fails, (seed, prop.name)
                    assert len(bmc.cex) == len(kind.cex) == len(ic3.cex) or (
                        len(bmc.cex) <= len(ic3.cex)
                    )
                else:
                    assert bmc.unknown, (seed, prop.name)
                if kind.status is not PropStatus.UNKNOWN:
                    assert kind.fails == ic3.fails, (seed, prop.name)


class TestTheoryOnDrivers:
    def test_prop5_on_drivers(self):
        # All-local-true (JA) iff all-global-true (joint/separate).
        for seed in range(25):
            ts = TransitionSystem(random_design(seed))
            ja = ja_verify(ts)
            joint = joint_verify(ts)
            assert (not ja.debugging_set()) == (not joint.false_props()), seed

    def test_local_true_implies_dominated_failures(self):
        # A property that fails globally but holds locally must have all
        # its global CEXs dominated: every CEX first falsifies some other
        # ETH property (checked on the engine-produced CEX).
        checked = 0
        for seed in range(30):
            ts = TransitionSystem(random_design(seed))
            ja = ja_verify(ts)
            sep = separate_verify(ts)
            locally_true = set(ja.true_props())
            for name in sep.false_props():
                if name not in locally_true:
                    continue
                result = ic3_check(ts, name)
                assert result.fails
                others = {
                    p.name: p.lit for p in ts.properties if p.name != name
                }
                frame, _ = result.cex.first_failures(ts.aig, others)
                assert frame is not None and frame < len(result.cex) - 1, (
                    seed,
                    name,
                )
                checked += 1
        assert checked > 3

    def test_debugging_set_subset_of_global_failures(self):
        for seed in range(25):
            ts = TransitionSystem(random_design(seed))
            ja = ja_verify(ts)
            sep = separate_verify(ts)
            assert set(ja.debugging_set()) <= set(sep.false_props()), seed

    def test_joint_and_separate_agree(self):
        for seed in range(25):
            ts = TransitionSystem(random_design(seed))
            assert joint_verify(ts).false_props() == separate_verify(ts).false_props()


class TestCounterEndToEnd:
    """Example 1 walked through every method at 5 bits (rval=16)."""

    def setup_method(self):
        self.ts = TransitionSystem(buggy_counter(5))

    def test_global_engines_find_deep_cex(self):
        bmc = bmc_check(self.ts, "P1", max_depth=20)
        ic3 = ic3_check(self.ts, "P1")
        assert bmc.frames == ic3.frames == 18

    def test_ja_replaces_deep_cex_with_local_proof(self):
        report = ja_verify(self.ts)
        assert report.debugging_set() == ["P0"]
        assert report.outcomes["P1"].status is PropStatus.HOLDS

    def test_joint_needs_both_cexs(self):
        report = joint_verify(self.ts)
        assert report.false_props() == ["P0", "P1"]
        assert report.outcomes["P1"].cex_depth == 18

    def test_ja_total_time_beats_separate_global(self):
        # The qualitative Table V relation, in the engine's SAT queries
        # (55 local vs 211 global), not in wall-clock time.
        def queries(local):
            verifier = JAVerifier(self.ts, local=local)
            verifier.run()
            return sum(r.stats["sat_queries"] for r in verifier.results.values())

        assert 2 * queries(local=True) < queries(local=False)
