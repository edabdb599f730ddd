#!/usr/bin/env python3
"""Handling properties that are Expected To Fail (paper Section 5).

Reachability goals are often written as safety properties that *should*
fail — the counterexample is the witness that a state is reachable.
Naively assuming such a property while checking the others would cut
exactly the interesting traces.  JA-verification therefore never assumes
ETF properties.

The design: a request eventually arms a mode latch (we WANT that: the
ETF property "mode stays low" should fail, witnessing reachability), and
a separate watchdog latch must never trip (ETH) — but it trips one cycle
after the mode arms.  If the ETF property were assumed, the watchdog
failure would be masked; with correct ETF handling both failures are
reported, and the ETF witness respects the ETH assumptions.

Run:  python examples/etf_properties.py
"""

from repro import TransitionSystem, VerificationConfig
from repro.circuit.aig import AIG, aig_not
from repro.multiprop import JAVerifier


def build_design() -> AIG:
    aig = AIG()
    req = aig.add_input("req")
    mode = aig.add_latch("mode", init=0)
    aig.set_next(mode, aig.or_(mode, req))
    watchdog = aig.add_latch("watchdog", init=0)
    aig.set_next(watchdog, mode)  # trips the cycle after mode arms
    ok = aig.add_latch("ok", init=1)
    aig.set_next(ok, ok)

    # ETF: "mode never arms" -- we EXPECT a counterexample (reachability).
    aig.add_property("mode_unreachable", aig_not(mode), expected_to_fail=True)
    # ETH: the watchdog must never trip (it does -- a real bug).
    aig.add_property("watchdog_quiet", aig_not(watchdog))
    # ETH: a healthy invariant.
    aig.add_property("ok_stays_high", ok)
    return aig


def main() -> None:
    ts = TransitionSystem(build_design())
    etf = [p.name for p in ts.properties if p.expected_to_fail]
    eth = [p.name for p in ts.eth_properties()]
    print(f"ETF properties (never assumed): {etf}")
    print(f"ETH properties (the assumption pool): {eth}")
    print()

    verifier = JAVerifier(ts, VerificationConfig(design_name="etf-demo"))
    report = verifier.run()
    for name, outcome in report.outcomes.items():
        marker = "ETF" if name in etf else "ETH"
        print(
            f"  [{marker}] {name}: {outcome.status.value}"
            + (
                f" (witness depth {outcome.cex_depth}, assumed {outcome.assumed})"
                if outcome.cex_depth
                else ""
            )
        )
    print()

    # The ETF property's counterexample is its reachability witness, and
    # because ETH properties were assumed while searching for it, the
    # witness does not rely on broken behaviour of the rest of the design
    # -- it fails no ETH property before its final frame.
    witness = verifier.results["mode_unreachable"].cex
    eth_lits = {n: ts.prop_by_name[n].lit for n in eth}
    frame, failed = witness.first_failures(ts.aig, eth_lits)
    print(f"reachability witness: {len(witness)} frames")
    print(
        "ETH properties failing strictly before the witness frame: "
        f"{failed if frame is not None and frame < len(witness) - 1 else 'none'}"
    )
    print()
    print(
        f"the watchdog bug is still reported (debugging set: "
        f"{report.debugging_set()}), the ETF failure is listed separately "
        f"(confirmed reachability goals: {report.etf_confirmed()}), and "
        "ETF properties are never used as assumptions."
    )


if __name__ == "__main__":
    main()
