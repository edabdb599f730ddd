"""Determinism regression: every registered strategy replays exactly.

Two runs of the same strategy on the same seeded design must produce
identical verdicts, frame counts, and event sequences.  Wall-clock
fields are the one legitimate run-to-run difference, so events are
normalized by zeroing the timing fields before comparison; everything
else — kinds, names, statuses, assumption tuples, frame numbers, clause
counts, ordering — must match field for field.

``parallel-ja`` runs with ``workers=1``: a single worker drains the
task queue in dispatch order and the single message queue serializes
its stream, so the engine is deterministic by construction there (with
more workers, OS scheduling legitimately reorders completion).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.gen.random_designs import random_design
from repro.session import Session, VerificationConfig, available_strategies
from repro.ts.system import TransitionSystem

#: Event fields that measure wall-clock and may differ between runs.
TIMING_FIELDS = {"time_seconds", "elapsed", "total_time", "wall_s", "latency_s"}

#: Strategy-specific config so every strategy runs deterministically.
#: Both scheduler-backed strategies pin ``workers=1`` (see module
#: docstring); a ``portfolio`` race is deterministic on any seat, since
#: its slices count work, not time, but with more seats the races'
#: event streams interleave.
STRATEGY_OVERRIDES = {
    "parallel-ja": {"workers": 1},
    "portfolio": {"workers": 1},
}

#: Every registered strategy at its deterministic knobs.
STRATEGY_CASES = [
    pytest.param(name, STRATEGY_OVERRIDES.get(name, {}), id=name)
    for name in sorted(available_strategies())
]


def normalize(event):
    """The event with timing fields zeroed, as a comparable tuple."""
    values = []
    for field in dataclasses.fields(event):
        value = getattr(event, field.name)
        values.append(0.0 if field.name in TIMING_FIELDS else value)
    return (type(event).__name__, tuple(values))


def run_once(ts, strategy, overrides):
    events = []
    config = VerificationConfig(strategy=strategy, **overrides)
    report = Session(ts, config, on_event=events.append).run()
    verdicts = {name: o.status for name, o in report.outcomes.items()}
    frames = {name: o.frames for name, o in report.outcomes.items()}
    return verdicts, frames, [normalize(e) for e in events]


@pytest.fixture(scope="module")
def seeded_design():
    """A seeded random design with a mix of true and false properties."""
    return TransitionSystem(random_design(seed=20260727, n_props=3))


@pytest.mark.parametrize("strategy, overrides", STRATEGY_CASES)
def test_strategy_replays_identically(seeded_design, strategy, overrides):
    first = run_once(seeded_design, strategy, overrides)
    second = run_once(seeded_design, strategy, overrides)
    assert first[0] == second[0], "verdicts differ between runs"
    assert first[1] == second[1], "frame counts differ between runs"
    assert first[2] == second[2], "event sequences differ between runs"
    assert first[0], "the design must actually have properties"


@pytest.mark.parametrize("strategy, overrides", STRATEGY_CASES)
def test_event_stream_covers_every_property(seeded_design, strategy, overrides):
    verdicts, _, events = run_once(seeded_design, strategy, overrides)
    solved = [payload for name, payload in events if name == "PropertySolved"]
    # Exactly one verdict event per property, for every strategy.
    assert len(solved) == len(verdicts)
