"""Session-vs-legacy parity: the facade must not change any verdict."""

from __future__ import annotations

import pytest

from repro.gen import FAILING_SPECS
from repro.multiprop import ja_verify, joint_verify, separate_verify
from repro.session import Session, VerificationConfig
from repro.ts.system import TransitionSystem


def verdicts(report):
    return {name: o.status for name, o in report.outcomes.items()}


@pytest.fixture(scope="module")
def failing_family():
    """A failing-family design (2 false / 3 true properties)."""
    return TransitionSystem(FAILING_SPECS["f175"].build())


class TestJAParity:
    def test_counter_matches_ja_verify(self, counter4):
        legacy = ja_verify(counter4)
        new = Session(counter4, strategy="ja").run()
        assert verdicts(new) == verdicts(legacy)
        assert new.debugging_set() == legacy.debugging_set() == ["P0"]

    def test_failing_family_matches_ja_verify(self, failing_family):
        legacy = ja_verify(failing_family)
        new = Session(failing_family, strategy="ja").run()
        assert verdicts(new) == verdicts(legacy)
        assert new.debugging_set() == legacy.debugging_set()
        assert new.false_props()  # the family really contains failures

    def test_config_options_are_forwarded(self, counter4):
        # An explicit reversed order plus no clause reuse must behave
        # exactly like the same JAOptions did.
        from repro.multiprop.ja import JAOptions

        legacy = ja_verify(
            counter4, JAOptions(clause_reuse=False, order=["P1", "P0"])
        )
        config = VerificationConfig(
            strategy="ja", clause_reuse=False, order=["P1", "P0"]
        )
        new = Session(counter4, config).run()
        assert verdicts(new) == verdicts(legacy)
        assert list(new.outcomes) == list(legacy.outcomes) == ["P1", "P0"]


class TestOtherStrategiesParity:
    def test_joint_matches_joint_verify(self, counter4, failing_family):
        for ts in (counter4, failing_family):
            assert verdicts(Session(ts, strategy="joint").run()) == verdicts(
                joint_verify(ts)
            )

    def test_separate_matches_separate_verify(self, counter4):
        assert verdicts(Session(counter4, strategy="separate").run()) == verdicts(
            separate_verify(counter4)
        )

    def test_clustered_runs_all_properties(self, failing_family):
        report = Session(failing_family, strategy="clustered").run()
        assert set(report.outcomes) == {
            p.name for p in failing_family.properties
        }

    def test_clustered_forwards_engine_overrides(self, counter4):
        # Same override path as the other strategies: the inner drivers
        # must receive config.engine (regression: it was dropped).
        report = Session(
            counter4,
            strategy="clustered",
            cluster_inner="ja",
            engine={"generalize_passes": 1},
        ).run()
        assert not report.unsolved()

    def test_engine_overrides_reach_ic3(self, counter4):
        # Both keys are IC3Options fields: an override that did not take
        # the documented IC3Options(**engine) path would raise TypeError.
        report = Session(
            counter4,
            strategy="ja",
            engine={"max_ctgs": 1, "generalize_passes": 1},
        ).run()
        assert not report.unsolved()
