"""Work-count guard: ``ja`` encodes a design once, not once per solver.

No wall clock.  ``ja`` opens about five solvers per property on the one
design; all of them must load the design's three frame templates, and
loading must leave every verdict, frame count, invariant and
clause-insertion count at the values pinned below from the commit
before templates existed (where each solver re-ran the Tseitin
encoder).
"""

from __future__ import annotations

import pytest

from repro.gen import all_true_designs, failing_designs
from repro.multiprop.ja import JAOptions, JAVerifier
from repro.ts.system import TransitionSystem

#: design -> property -> (status, frames, IC3 clause_insertions, invariant),
#: recorded at 759c48e on the `cdcl` backend, other JAOptions at their defaults.
PINNED = {
    "f175": {
        "s0_G": ("FAILS", 2, 315, None),
        "s0_T": ("HOLDS", 2, 598, [(-6,)]),
        "s1_G": ("FAILS", 3, 322, None),
        "s1_T": ("HOLDS", 2, 602, [(-6,), (-14,)]),
        "c0_C0": ("HOLDS", 2, 606, [(-6,), (-14,), (16,)]),
    },
    "t256": {
        "c0_C0": ("HOLDS", 2, 92, [(1,)]),
        "c0_C4": ("HOLDS", 3, 124, [(1,), (5,), (4,), (2,), (3,)]),
        "c0_C8": ("HOLDS", 3, 140, [(1,), (5,), (4,), (2,), (3,), (9,), (8,), (6,), (7,)]),
        "z_Z0": (
            "HOLDS", 2, 128,
            [(1,), (5,), (4,), (2,), (3,), (9,), (8,), (6,), (7,), (-13,)],
        ),
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_ja_builds_at_most_three_templates_and_changes_no_result(name, encoder_runs):
    ts = TransitionSystem({**failing_designs(), **all_true_designs()}[name])
    verifier = JAVerifier(ts, JAOptions(solver_backend="cdcl"))
    verifier.run(name)

    assert len(ts.properties) == len(PINNED[name]) > 3
    # However many properties: one encoder run per frame kind, each into
    # the recording sink and never into a solver.
    assert encoder_runs == ["CnfBuilder"] * len(encoder_runs) and len(encoder_runs) <= 3
    assert {
        prop: (
            result.status.name,
            result.frames,
            result.stats["clause_insertions"],
            None if result.invariant is None else [tuple(c) for c in result.invariant],
        )
        for prop, result in verifier.results.items()
    } == PINNED[name]
