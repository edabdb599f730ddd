"""Strategies driven through the facade: every property gets a verdict.
(Each built-in strategy *is* its driver function, so there is no second
path to compare with.)"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.gen import FAILING_SPECS
from repro.session import Session, VerificationConfig
from repro.ts.system import TransitionSystem


@pytest.fixture(scope="module")
def failing_family():
    """A failing-family design (2 false / 3 true properties)."""
    return TransitionSystem(FAILING_SPECS["f175"].build())


class TestStrategiesThroughSession:
    def test_ja_order_and_debugging_set(self, counter4):
        config = VerificationConfig(
            strategy="ja", clause_reuse=False, order=["P1", "P0"]
        )
        report = Session(counter4, config).run()
        assert list(report.outcomes) == ["P1", "P0"]
        assert report.debugging_set() == ["P0"]

    def test_clustered_runs_all_properties(self, failing_family):
        report = Session(failing_family, strategy="clustered").run()
        assert set(report.outcomes) == {
            p.name for p in failing_family.properties
        }


def _etf_design():
    path = Path(__file__).resolve().parents[2] / "examples" / "etf_properties.py"
    spec = importlib.util.spec_from_file_location("etf_properties", path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    return example.build_design()


@pytest.mark.parametrize(
    "strategy",
    ["ja", "joint", "separate", "clustered", "parallel-ja", "portfolio"],
)
def test_every_strategy_confirms_the_etf_witness(strategy):
    # An Expected-To-Fail property's counterexample is the reachability
    # witness (Sec. 5), on global and local verdicts alike.
    report = Session(TransitionSystem(_etf_design()), strategy=strategy, workers=2).run()
    assert report.etf_confirmed() == ["mode_unreachable"]
