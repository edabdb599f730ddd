"""Tests for result types and resource budgets."""

from __future__ import annotations

import pytest

from repro.engines import result as result_mod
from repro.engines.result import EngineResult, PropStatus, ResourceBudget


@pytest.fixture
def clock(monkeypatch):
    """The budget's clock, stubbed: ``clock[0]`` is the time, in seconds."""
    now = [100.0]
    monkeypatch.setattr(result_mod.time, "monotonic", lambda: now[0])
    return now


class TestEngineResult:
    def test_status_predicates(self):
        holds = EngineResult(status=PropStatus.HOLDS, prop_name="p")
        fails = EngineResult(status=PropStatus.FAILS, prop_name="p")
        unknown = EngineResult(status=PropStatus.UNKNOWN, prop_name="p")
        assert holds.holds and not holds.fails and not holds.unknown
        assert fails.fails and not fails.holds
        assert unknown.unknown

    def test_status_str(self):
        assert str(PropStatus.HOLDS) == "holds"
        assert str(PropStatus.FAILS) == "fails"


class TestResourceBudget:
    def test_no_limits_never_exhausts(self):
        budget = ResourceBudget()
        budget.charge_conflicts(10**9)
        assert not budget.exhausted()

    def test_conflict_limit(self):
        budget = ResourceBudget(conflict_limit=10)
        budget.charge_conflicts(10)
        assert not budget.exhausted()  # strict inequality
        budget.charge_conflicts(1)
        assert budget.exhausted()

    def test_time_limit(self, clock):
        budget = ResourceBudget(time_limit=0.0)
        assert not budget.exhausted()  # strict inequality
        clock[0] += 0.01
        assert budget.exhausted()

    def test_elapsed_monotone(self, clock):
        budget = ResourceBudget()
        first = budget.elapsed()
        clock[0] += 0.005
        assert budget.elapsed() >= first

    def test_combined_limits(self):
        budget = ResourceBudget(time_limit=1000.0, conflict_limit=5)
        assert not budget.exhausted()
        budget.charge_conflicts(6)
        assert budget.exhausted()
