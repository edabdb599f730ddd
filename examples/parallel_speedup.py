#!/usr/bin/env python3
"""JA-verification and parallel computing (paper Section 11 / Table X).

Local proofs of different properties are independent — no clause
exchange is *needed* — so JA-verification parallelizes trivially.  This
example measures standalone local and global proofs on a deep pipeline
design (the 6s289 stand-in), then actually runs the ``parallel-ja``
process pool at increasing worker counts, with and without the live
clause exchange, and compares the measured wall-clock against the
list-scheduling projection's makespan (Table X).

Run:  python examples/parallel_speedup.py
"""

import os

from repro import TransitionSystem
from repro.gen import huge_design
from repro.multiprop import measure_global_proofs, measure_local_proofs
from repro.multiprop.report import render_table
from repro.session import Session


def main() -> None:
    ts = TransitionSystem(huge_design(chain_depth=32))
    print(f"design: {ts!r}, host CPUs: {os.cpu_count()}")
    sample = [f"c0_C{i}" for i in (1, 8, 16, 24, 31)]

    print("\nmeasuring sampled properties, global vs local (no clause exchange)...")
    glob = measure_global_proofs(ts, sample)
    local = measure_local_proofs(ts, sample)
    rows = [
        [
            name,
            glob.prop_frames[name],
            f"{glob.prop_times[name] * 1000:.0f} ms",
            local.prop_frames[name],
            f"{local.prop_times[name] * 1000:.0f} ms",
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

    print("\nprojecting the one-worker-per-property regime (simulator)...")
    full = measure_local_proofs(ts)  # one pass feeds every projection
    sim_rows = []
    for workers in (1, 2, 4, 8, 16, 32):
        sim_rows.append(
            [
                workers,
                f"{full.makespan(workers) * 1000:.0f} ms",
                f"{full.speedup(workers):.2f}x",
            ]
        )
    print(
        render_table(
            "simulated parallel JA-verification (greedy list scheduling)",
            ["workers", "makespan", "speedup"],
            sim_rows,
        )
    )
    print(
        "\nwith one worker per property, verification finishes in the time "
        "of the slowest single local proof — 'a matter of seconds' at the "
        "paper's scale.  Measured speedup tracks the projection once the "
        "host has as many idle cores as workers."
    )


if __name__ == "__main__":
    main()
