#!/usr/bin/env python3
"""Tour of strengthening-clause re-use (paper Section 6 / Table VII).

A design whose 16 properties all need one hidden inductive invariant —
the pairwise one-hotness of an internal mode ring that no property
mentions.  Without re-use, every local proof rediscovers all ~45
invariant clauses; with re-use, the first proof pays and the rest are
nearly free.  The run's clauseDB is then inspected, like the external
clauseDB of the paper's Ja-ver script (across runs, a proof cache's
warm log plays that file: ``VerificationConfig(cache_dir=...)``).

Run:  python examples/clause_reuse_tour.py
"""

import time

from repro import TransitionSystem
from repro.circuit.aig import AIG
from repro.gen import shared_invariant_slice
from repro.multiprop import JAVerifier
from repro.session import VerificationConfig


def main() -> None:
    aig = AIG()
    names = shared_invariant_slice(aig, "core", mode_size=10, n_props=16)
    ts = TransitionSystem(aig)
    print(f"design: {aig!r}")
    print(f"{len(names)} properties, all true, all needing the same hidden invariant")
    print()

    # --- without re-use ----------------------------------------------
    start = time.monotonic()
    report_cold = JAVerifier(ts, VerificationConfig(clause_reuse=False)).run()
    t_cold = time.monotonic() - start
    assert not report_cold.debugging_set()
    print(f"without clause re-use: {t_cold:.2f}s")

    # --- with re-use, inspecting the clauseDB -----------------------
    verifier = JAVerifier(ts, VerificationConfig(clause_reuse=True))
    start = time.monotonic()
    report_warm = verifier.run()
    t_warm = time.monotonic() - start
    assert not report_warm.debugging_set()
    print(f"with clause re-use:    {t_warm:.2f}s  ({t_cold / t_warm:.1f}x faster)")
    print()

    db = verifier.clause_db
    print(f"clauseDB collected {len(db)} strengthening clauses, e.g.:")
    for clause in db.clauses()[:5]:
        human = " | ".join(
            ("~" if lit < 0 else "") + ts.latches[abs(lit) - 1].name
            for lit in clause
        )
        print(f"  ({human})")
    print()

    # --- per-property cost profile ------------------------------------
    print("per-property proof times (design order):")
    for name in names[:6]:
        cold = report_cold.outcomes[name].time_seconds
        warm = report_warm.outcomes[name].time_seconds
        print(f"  {name}: {cold * 1000:7.1f} ms cold  vs {warm * 1000:7.1f} ms warm")
    print("  ...")
    print(
        "after the first property, warm proofs start from the full "
        "invariant and close immediately."
    )


if __name__ == "__main__":
    main()
