"""Every strategy that runs local proofs honours every proof knob.

``separate`` and ``clustered`` once built their engine options by hand
and dropped ``max_frames``, ``ctg``, ``clause_reuse``, ``coi_reduction``
and ``per_property_conflicts`` on the way; they now hand the driver the
same ``ProofOptions`` ``ja`` gets.
"""

from __future__ import annotations

import pytest

import repro.multiprop.joint as joint_module
import repro.multiprop.local as local_module
from repro.engines.result import PropStatus
from repro.gen import all_true_designs, failing_designs
from repro.session import Session
from repro.ts.system import TransitionSystem

STRATEGIES = [
    pytest.param({"strategy": "separate"}, id="separate"),
    pytest.param({"strategy": "clustered", "cluster_inner": "ja"}, id="clustered-ja"),
    pytest.param({"strategy": "clustered", "cluster_inner": "joint"}, id="clustered-joint"),
]
#: The ones whose unit of work is the per-property proof.
PER_PROPERTY = STRATEGIES[:2]


@pytest.fixture
def engine_calls(monkeypatch):
    """``IC3Options`` of every engine run, whichever module started it."""
    calls = []
    real = local_module.ic3_check

    def spy(ts, name, options):
        calls.append(options)
        return real(ts, name, options)

    monkeypatch.setattr(local_module, "ic3_check", spy)
    monkeypatch.setattr(joint_module, "ic3_check", spy)
    return calls


def _run(design, selector, events=None, **knobs):
    aig = {**all_true_designs(), **failing_designs()}[design]
    on_event = events.append if events is not None else None
    return Session(TransitionSystem(aig), on_event=on_event, **selector, **knobs).run()


def _statuses(report):
    return {o.status for o in report.outcomes.values()}


@pytest.mark.parametrize("selector", STRATEGIES)
def test_max_frames(selector):
    assert _statuses(_run("t256", selector)) == {PropStatus.HOLDS}
    assert _statuses(_run("t256", selector, max_frames=1)) == {PropStatus.UNKNOWN}


@pytest.mark.parametrize("selector", STRATEGIES)
def test_ctg(selector, engine_calls):
    _run("t256", selector, ctg=True)
    assert engine_calls and all(options.ctg for options in engine_calls)


@pytest.mark.parametrize("selector", PER_PROPERTY)
def test_clause_reuse(selector, engine_calls):
    events: list = []
    _run("t256", selector, events)
    assert any(e.kind == "clause-import" for e in events)
    assert any(options.seed_clauses for options in engine_calls)
    events.clear()
    engine_calls.clear()
    _run("t256", selector, events, clause_reuse=False)
    assert not [e for e in events if e.kind in ("clause-import", "clause-export")]
    assert not any(options.seed_clauses for options in engine_calls)


@pytest.mark.parametrize("selector", PER_PROPERTY)
def test_coi_reduction(selector, monkeypatch):
    reductions = []
    real = local_module.reduce_to_cone

    def spy(aig, names):
        reductions.append(names)
        return real(aig, names)

    monkeypatch.setattr(local_module, "reduce_to_cone", spy)
    plain = _run("t256", selector)
    assert not reductions
    reduced = _run("t256", selector, coi_reduction=True)
    assert len(reductions) >= len(reduced.outcomes)
    assert _statuses(reduced) == _statuses(plain)


@pytest.mark.parametrize("selector", PER_PROPERTY)
def test_per_property_conflicts(selector, engine_calls):
    assert PropStatus.UNKNOWN not in _statuses(_run("f175", selector))
    starved = _run("f175", selector, per_property_conflicts=0)
    assert PropStatus.UNKNOWN in _statuses(starved)
    assert all(options.budget.conflict_limit == 0 for options in engine_calls[-len(starved.outcomes):])
