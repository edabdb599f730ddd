#!/usr/bin/env python3
"""JA-verification and parallel computing (paper Section 11 / Table X).

Local proofs of different properties are independent — no clause
exchange is *needed* — so JA-verification parallelizes trivially.  This
example proves sampled properties of a deep pipeline design (the 6s289
stand-in) one by one, locally and globally, with no clause re-use
(Table X), then runs the ``parallel-ja`` process pool at increasing
worker counts, with and without the live clause exchange.

Run:  python examples/parallel_speedup.py
"""

import os

from repro import TransitionSystem
from repro.gen import huge_design
from repro.multiprop import JAVerifier
from repro.multiprop.report import render_table
from repro.session import VerificationConfig
from repro.session import Session


def main() -> None:
    ts = TransitionSystem(huge_design(chain_depth=32))
    print(f"design: {ts!r}, host CPUs: {os.cpu_count()}")
    sample = [f"c0_C{i}" for i in (1, 8, 16, 24, 31)]

    print("\nmeasuring sampled properties, global vs local (no clause exchange)...")
    independent = VerificationConfig(clause_reuse=False, order=sample)
    glob = JAVerifier(ts, independent, local=False).run().outcomes
    local = JAVerifier(ts, independent).run().outcomes
    rows = [
        [
            name,
            glob[name].frames,
            f"{glob[name].time_seconds * 1000:.0f} ms",
            local[name].frames,
            f"{local[name].time_seconds * 1000:.0f} ms",
        ]
        for name in sample
    ]
    print(
        render_table(
            "sampled properties (cf. paper Table X)",
            ["property", "global #frames", "global time", "local #frames", "local time"],
            rows,
        )
    )

    print("\nrunning the real process pool over ALL properties...")
    rows = []
    baseline = None
    for workers in (1, 2, 4):
        for exchange in (True, False):
            report = Session(
                ts, strategy="parallel-ja", workers=workers, exchange=exchange
            ).run()
            if baseline is None:
                baseline = report.total_time
            rows.append(
                [
                    workers,
                    "on" if exchange else "off",
                    f"{report.total_time * 1000:.0f} ms",
                    f"{baseline / report.total_time:.2f}x",
                    report.stats["exchange_clauses"],
                ]
            )
    print(
        render_table(
            "process-parallel JA-verification (measured)",
            ["workers", "exchange", "wall-clock", "speedup", "shared clauses"],
            rows,
        )
    )

    print(
        "\nlocal proofs are independent and about equally cheap, so with one "
        "worker per property verification finishes in the time of the "
        "slowest single local proof: 'a matter of seconds' at the paper's "
        "scale, once the host has as many idle cores as workers."
    )

if __name__ == "__main__":
    main()
