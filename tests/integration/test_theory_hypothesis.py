"""Property-based tests of the paper's theory over random designs.

Hypothesis drives design generation (seed + shape parameters); the
invariants checked are the propositions of Sections 2-4 evaluated with
the explicit-state ground truth and the SAT-based drivers.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.engines.bmc import bmc_check
from repro.gen.random_designs import random_design
from repro.multiprop.ja import ja_verify
from repro.ts.projection import ProjectedReachability, assumption_names
from repro.ts.system import TransitionSystem

DESIGNS = st.builds(
    random_design,
    seed=st.integers(min_value=0, max_value=10_000),
    n_latches=st.integers(min_value=2, max_value=5),
    n_inputs=st.integers(min_value=1, max_value=2),
    n_gates=st.integers(min_value=4, max_value=14),
    n_props=st.integers(min_value=2, max_value=4),
)


@settings(max_examples=30, deadline=None)
@given(DESIGNS)
def test_prop2_local_weaker_than_global(aig):
    """Prop. 2A: holding globally implies holding locally — and a locally
    failing property fails globally too (contrapositive packaging)."""
    ts = TransitionSystem(aig)
    gt = ProjectedReachability(ts)
    for prop in ts.properties:
        if gt.fails_locally(prop.name):
            assert gt.fails_globally(prop.name)


@settings(max_examples=30, deadline=None)
@given(DESIGNS)
def test_prop5_aggregate_iff_locals(aig):
    """Prop. 5: the aggregate holds iff every property holds locally."""
    ts = TransitionSystem(aig)
    gt = ProjectedReachability(ts)
    aggregate_fails = any(gt.fails_globally(p.name) for p in ts.properties)
    any_local_fail = any(gt.fails_locally(p.name) for p in ts.properties)
    assert aggregate_fails == any_local_fail


@settings(max_examples=25, deadline=None)
@given(DESIGNS)
def test_prop6_first_failures_hit_debugging_set(aig):
    """Prop. 6: a shortest aggregate CEX ends in a debugging-set failure."""
    ts = TransitionSystem(aig)
    gt = ProjectedReachability(ts)
    debug = set(gt.debugging_set())
    if not debug:
        return
    # A minimal-depth failing property yields a shortest aggregate CEX.
    results = [bmc_check(ts, p.name, max_depth=14) for p in ts.properties]
    failing = [r for r in results if r.fails]
    assert failing
    shallowest = min(failing, key=lambda r: r.frames)
    eth = {p.name: p.lit for p in ts.eth_properties()}
    frame, names = shallowest.cex.first_failures(ts.aig, eth)
    assert frame is not None
    assert set(names) & debug


@settings(max_examples=20, deadline=None)
@given(DESIGNS)
def test_ja_driver_matches_ground_truth(aig):
    """End-to-end: the JA driver's debugging set equals the semantics'."""
    ts = TransitionSystem(aig)
    gt = ProjectedReachability(ts)
    report = ja_verify(ts)
    assert not report.unsolved()
    assert report.debugging_set() == sorted(gt.debugging_set())


@settings(max_examples=20, deadline=None)
@given(DESIGNS, st.integers(min_value=0, max_value=3))
def test_assumption_monotonicity(aig, k):
    """More assumptions can only remove local failures, never add them."""
    ts = TransitionSystem(aig)
    gt = ProjectedReachability(ts)
    target = ts.properties[0].name
    all_assumed = assumption_names(ts, target)
    smaller = all_assumed[:k] if k <= len(all_assumed) else all_assumed
    if not gt.fails(target, smaller):
        assert not gt.fails(target, all_assumed)
