#!/usr/bin/env python3
"""The debugging workflow the paper proposes, on a multi-bug design.

A design with 19 properties has two injected bugs (two "guard" chains
that can arm a runaway counter).  Eight more properties fail globally,
but only as a *consequence* of the guards failing first.  JA-verification
pinpoints the debugging set = the two guards; after "fixing" the design
(rebuilding it with the guards forced low), every property holds.

Run:  python examples/debugging_workflow.py
"""

from repro import TransitionSystem, VerificationConfig, ja_verify
from repro.circuit.aig import AIG, aig_not
from repro.circuit import words
from repro.gen import FAILING_SPECS
from repro.multiprop import debugging_report


def build_fixed_f207() -> AIG:
    """The f207 design with the two guard bugs repaired.

    The original slices arm a counter from a request input; the repair
    ties the request chains off (the "mode" can never arm), which is what
    fixing the RTL would do.
    """
    aig = AIG()
    for i, (bits, depth, values) in enumerate(FAILING_SPECS["f207"].guarded):
        prefix = f"s{i}"
        aig.add_input(f"{prefix}_req")  # input still present, now ignored
        feed = 0  # constant FALSE: the repair
        modes = []
        for j in range(depth):
            mode = aig.add_latch(f"{prefix}_m{j}", init=0)
            aig.set_next(mode, feed)
            feed = mode
            modes.append(mode)
        armed = modes[-1]
        val = words.word_latches(aig, f"{prefix}_val", bits, init=0)
        incremented = words.inc(aig, val)
        words.set_next_word(
            aig, val, words.mux_word(aig, armed, incremented, val)
        )
        aig.add_property(f"{prefix}_G", aig_not(armed))
        for j, value in enumerate(values):
            aig.add_property(
                f"{prefix}_D{j}", aig_not(words.eq_const(aig, val, value))
            )
        sat_val = words.word_latches(aig, f"{prefix}_sat", 2, init=0)
        at_limit = words.eq_const(aig, sat_val, 2)
        hold = words.mux_word(aig, at_limit, sat_val, words.inc(aig, sat_val))
        words.set_next_word(
            aig, sat_val, words.mux_word(aig, armed, hold, sat_val)
        )
        aig.add_property(f"{prefix}_T", words.ule_const(aig, sat_val, 2))
    # Re-create the true-property slices of the original design.
    from repro.gen import good_chain_slice, token_ring_slice

    token_ring_slice(aig, "r0", 4)
    good_chain_slice(aig, "c0", 3, 1)
    return aig


def main() -> None:
    # ------------------------------------------------------------------
    print("=== step 1: JA-verification of the buggy design ===")
    buggy = FAILING_SPECS["f207"].build()
    ts = TransitionSystem(buggy)
    report = ja_verify(ts, VerificationConfig(design_name="f207"))
    analysis = debugging_report(report)
    print(report.summary())
    print(analysis.narrative())
    print()
    for name in analysis.debugging_set:
        depth = analysis.cex_depths.get(name)
        print(f"  -> {name} fails on its own at depth {depth}")
    print()

    # ------------------------------------------------------------------
    print("=== step 2: fix exactly the behaviours in the debugging set ===")
    fixed = build_fixed_f207()
    ts_fixed = TransitionSystem(fixed)
    report_fixed = ja_verify(ts_fixed, VerificationConfig(design_name="f207-fixed"))
    analysis_fixed = debugging_report(report_fixed)
    print(report_fixed.summary())
    print(analysis_fixed.narrative())

    assert analysis_fixed.all_hold, "the fix should make every property pass"
    print()
    print(
        "note: the 8 dependent properties were never 'debugged' directly -- "
        "they held locally all along, and fixing the 2 guards fixed them."
    )


if __name__ == "__main__":
    main()
