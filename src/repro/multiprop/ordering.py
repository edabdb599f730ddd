"""Property-ordering heuristics for separate/JA verification.

The paper verifies properties "in the order they are given in the design
description" but notes (footnote 1, Section 9) that verifying easier
properties first accumulates strengthening clauses for the harder ones,
and reports (Section 9-C) that 6s139/6s256 are solved much faster under
a different order.  These heuristics make that experiment reproducible.
"""

from __future__ import annotations

import random

from ..ts.system import TransitionSystem


def design_order(ts: TransitionSystem) -> list[str]:
    """The order properties appear in the design (the paper's default)."""
    return [p.name for p in ts.properties]


def cone_latches(ts: TransitionSystem, name: str) -> int:
    """Latch count of a property's cone of influence.

    The shared proof-hardness proxy: the ``"cone"`` property order
    verifies smallest-first, the parallel engine dispatches
    largest-first (LPT), both off this one estimate.
    """
    prop = ts.prop_by_name[name]
    _, latches = ts.aig.cone_of_influence([prop.lit])
    return len(latches)


def by_cone_size(ts: TransitionSystem) -> list[str]:
    """Smallest cone of influence first — a proxy for "easier first".

    A property whose cone touches few latches typically has a small
    inductive invariant; proving it first seeds the clauseDB cheaply.
    """
    return sorted(
        (p.name for p in ts.properties),
        key=lambda n: (cone_latches(ts, n), n),
    )


def shuffled(ts: TransitionSystem, seed: int) -> list[str]:
    """A deterministic random order (for order-sensitivity experiments)."""
    names = [p.name for p in ts.properties]
    random.Random(seed).shuffle(names)
    return names
