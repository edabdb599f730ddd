"""Strategy × knob: a value set on the run reaches every method unchanged.

The paper's evidence is one-axis-at-a-time ablation, which only means
something if a knob set on the config acts in every strategy that has a
use for it.  The rows come from the registry, so a strategy registered
later is in the matrix by default; each cell sets one ``VerificationConfig`` field away from its
default and checks what every engine run was handed — the
``IC3Options`` of an in-process run, or, for a pooled strategy, the
``ProofOptions`` shipped to the seats (the one record ``prove`` reads
there, as it does in-process).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Callable

import pytest

import repro.multiprop.joint as joint_module
import repro.multiprop.cones as cones_module
import repro.multiprop.local as local_module
from repro.engines.result import PropStatus
from repro.gen import ALL_TRUE_SPECS, buggy_counter
from repro.parallel import WorkerPool
from repro.session import ConfigError, Session, available_strategies, get_strategy
from repro.ts.system import TransitionSystem


ROWS = [pytest.param({"strategy": name}, id=name) for name in available_strategies()]


def _aggregate(selector) -> bool:
    """One proof of the conjunction: no per-property step to tune."""
    return selector["strategy"] in ("joint", "clustered")


def _pooled(selector) -> bool:
    return getattr(get_strategy(selector["strategy"]), "pooled", False)


AGGREGATE = [row for row in ROWS if _aggregate(*row.values)]
PER_PROPERTY = [row for row in ROWS if not _aggregate(*row.values)]


class _Shipped(Exception):
    """Ends a pooled run once its seats' options are recorded."""


@dataclass
class _Seen:
    engines: list  # IC3Options of every in-process engine run
    seats: list  # ProofOptions of every run opened on a pool

    def of(self, selector) -> list:
        return self.seats if _pooled(selector) else self.engines


@pytest.fixture
def seen(monkeypatch):
    seen = _Seen([], [])
    real = local_module.ic3_check

    def spy(ts, name, options):
        seen.engines.append(options)
        return real(ts, name, options)

    def open_run(self, ts, settings, exchange=None):
        seen.seats.append(settings)
        raise _Shipped

    monkeypatch.setattr(local_module, "ic3_check", spy)
    monkeypatch.setattr(joint_module, "ic3_check", spy)
    monkeypatch.setattr(WorkerPool, "open_run", open_run)
    return seen


def _run(selector, design=None, **knobs):
    ts = TransitionSystem(design or ALL_TRUE_SPECS["t256"].build())
    try:
        return Session(ts, workers=1, **selector, **knobs).run()
    except _Shipped:
        return None


@dataclass
class Knob:
    """One config field off its default, and how to see that it arrived."""

    value: object
    engine: Callable  # holds of the IC3Options of every engine run
    seat: Callable  # holds of the ProofOptions shipped to a seat
    rows: list


KNOBS = {
    "ctg": Knob(True, lambda o: o.ctg, lambda p: p.ctg, ROWS),
    "max_frames": Knob(
        7, lambda o: o.max_frames == 7, lambda p: p.max_frames == 7, ROWS
    ),
    "solver_backend": Knob(
        "cdcl-compact",
        lambda o: o.solver_backend == "cdcl-compact",
        lambda p: p.solver_backend == "cdcl-compact",
        ROWS,
    ),
    "respect_constraints_in_lifting": Knob(
        True,
        lambda o: o.respect_constraints_in_lifting,
        lambda p: p.respect_constraints_in_lifting,
        PER_PROPERTY,
    ),
    "per_property_conflicts": Knob(
        5,
        lambda o: o.budget.conflict_limit == 5,
        lambda p: p.per_property_conflicts == 5,
        PER_PROPERTY,
    ),
    "per_property_time": Knob(
        30.0,
        lambda o: o.budget.time_limit == 30.0,
        lambda p: p.per_property_time == 30.0,
        PER_PROPERTY,
    ),
    "clause_reuse": Knob(
        False,
        lambda o: not o.seed_clauses,
        lambda p: not p.clause_reuse,
        PER_PROPERTY,
    ),
    "total_conflicts": Knob(
        5, lambda o: o.budget.conflict_limit == 5, None, AGGREGATE
    ),
}

CELLS = [
    pytest.param(field, *row.values, id=f"{row.id}-{field}")
    for field, knob in KNOBS.items()
    for row in knob.rows
]


@pytest.mark.parametrize("field, selector", CELLS)
def test_knob_reaches_every_engine_run(field, selector, seen):
    knob = KNOBS[field]
    arrived = knob.seat if _pooled(selector) else knob.engine
    _run(selector)
    handed = seen.of(selector)
    assert handed and not all(map(arrived, handed)), "the cell cannot fail"
    handed.clear()
    _run(selector, **{field: knob.value})
    assert handed and all(map(arrived, handed))


@pytest.mark.parametrize("selector", PER_PROPERTY)
def test_coi_reduction(selector, seen, monkeypatch):
    reductions = []
    real = cones_module.reduce_to_cone

    def spy(aig, names):
        reductions.append(names)
        return real(aig, names)

    monkeypatch.setattr(cones_module, "reduce_to_cone", spy)
    plain = _run(selector)
    assert not reductions
    reduced = _run(selector, coi_reduction=True)
    if _pooled(selector):
        assert [p.coi_reduction for p in seen.seats] == [False, True]
        return
    assert len(reductions) >= len(reduced.outcomes)
    assert {o.status for o in reduced.outcomes.values()} == {
        o.status for o in plain.outcomes.values()
    }


@pytest.mark.parametrize("selector", AGGREGATE)
def test_include_etf(selector):
    # An expected-to-fail property is in the aggregate like any other.
    design = buggy_counter(4)
    design.properties[0] = replace(design.properties[0], expected_to_fail=True)
    assert _run(selector, design).outcomes["P0"].status is PropStatus.FAILS


@pytest.mark.parametrize("selector", [r for r in ROWS if not _pooled(*r.values)])
def test_max_frames_bounds_every_verdict(selector):
    statuses = {o.status for o in _run(selector, max_frames=1).outcomes.values()}
    assert statuses == {PropStatus.UNKNOWN}


@pytest.mark.parametrize("field, value", [("total_conflicts", 10)])
@pytest.mark.parametrize("selector", [r for r in ROWS if _pooled(*r.values)])
def test_pooled_strategies_refuse_what_their_seats_ignore(selector, field, value):
    with pytest.raises(ConfigError, match=f"{field}.*{selector['strategy']}"):
        Session(buggy_counter(4), **selector, **{field: value})
