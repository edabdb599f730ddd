"""Work-count guard: ``ja`` encodes a design once, not once per solver.

No wall clock.  ``ja`` opens about five solvers per property on the one
design; all of them must load frames projected from the design's one
step template, and loading must leave every verdict, frame count and invariant at the
values pinned below from the commit before templates existed (where
each solver re-ran the Tseitin encoder).

The ``clause_insertions`` of the HOLDS rows were re-pinned when IC3
stopped checking its own certificate: a converged run now hands the
invariant to ``engines.certify.certify_invariant``, whose two solvers
are the checker's, not the engine's, so their insertions left
``IC3.stats`` (f175 598/602/606 -> 320/322/324, t256 92/124/140/128 ->
61/85/93/79).  The FAILS rows, which build no certificate, did not
move.

The whole ``clause_insertions`` column was re-pinned, downward, when
IC3's solvers began loading per-target projections of the one step
template (``TransitionSystem.encode_cone``) instead of whole-design
frames: the init and bad solvers hold the target's combinational cone
only, and the step solver the assumed properties' cones plus the
next-state functions of the target's sequential cone (f175
315/320/322/322/324 -> 45/102/56/108/56, t256 61/85/93/79 ->
37/69/85/57).  Status, frames and invariants did not move: a dropped
Tseitin definition is satisfiable for every latch and input value, and
the solver's search over those is the same.
"""

from __future__ import annotations

import pytest

from repro.gen import all_true_designs, failing_designs
from repro.multiprop.ja import JAVerifier
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem

#: design -> property -> (status, frames, IC3 clause_insertions, invariant),
#: status/frames/invariant recorded at 759c48e on the `cdcl` backend, other
#: ``ja`` at its default knobs (clause_insertions: see the module docstring).
PINNED = {
    "f175": {
        "s0_G": ("FAILS", 2, 45, None),
        "s0_T": ("HOLDS", 2, 102, [(-6,)]),
        "s1_G": ("FAILS", 3, 56, None),
        "s1_T": ("HOLDS", 2, 108, [(-6,), (-14,)]),
        "c0_C0": ("HOLDS", 2, 56, [(-6,), (-14,), (16,)]),
    },
    "t256": {
        "c0_C0": ("HOLDS", 2, 37, [(1,)]),
        "c0_C4": ("HOLDS", 3, 69, [(1,), (5,), (4,), (2,), (3,)]),
        "c0_C8": ("HOLDS", 3, 85, [(1,), (5,), (4,), (2,), (3,), (9,), (8,), (6,), (7,)]),
        "z_Z0": (
            "HOLDS", 2, 57,
            [(1,), (5,), (4,), (2,), (3,), (9,), (8,), (6,), (7,), (-13,)],
        ),
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_ja_builds_at_most_three_templates_and_changes_no_result(name, encoder_runs):
    ts = TransitionSystem({**failing_designs(), **all_true_designs()}[name])
    verifier = JAVerifier(ts, VerificationConfig(solver_backend="cdcl", design_name=name))
    verifier.run()

    assert len(ts.properties) == len(PINNED[name]) > 3
    # However many properties: one encoder run per design, into the
    # recording sink and never into a solver.
    assert encoder_runs == ["CnfBuilder"]
    assert {
        prop: (
            result.status.name,
            result.frames,
            result.stats["clause_insertions"],
            None if result.invariant is None else [tuple(c) for c in result.invariant],
        )
        for prop, result in verifier.results.items()
    } == PINNED[name]
