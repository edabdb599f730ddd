"""Table II — designs with many properties: joint vs JA for the first k.

Paper layout: per design and per k, the number of unsolved properties
and total time for joint verification and for JA-verification.

Expected shape: joint verification degrades sharply as k grows on the
failing, heterogeneous designs (r400, r355) and stays competitive only
on the homogeneous all-true ones.  In the paper r403 is the exception
where joint wins (large shared logic amortized over one aggregate run).
Here that row is a relation between two sub-second wall clocks, and two
speed-ups have flipped it in turn: the exception was not reproduced
since PR 14, which made JA's k local proofs share one encoding of the
design (r403 at full k, 3 runs each at 4dda519: joint 0.83-1.02 s, JA
0.64-0.77 s), and is back since lifting runs over the compiled netlist,
which joint's one long aggregate run was bound by (joint 0.38-0.43 s,
JA 0.73-0.76 s).  r403's times are therefore reported, not asserted.
"""

from __future__ import annotations

import pytest

from repro.gen.families import LARGE_DESIGN_NAMES, large_design
from repro.multiprop.ja import ja_verify
from repro.multiprop.joint import joint_verify
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem

from benchmarks._harness import cell_time, publish_table, timed

JOINT_BUDGET_S = 20.0
JA_PER_PROP_S = 5.0
KS = (10, 25, None)  # None = all properties


def build_table():
    rows = []
    for name in LARGE_DESIGN_NAMES:
        aig = large_design(name)
        total = len(aig.properties)
        for k in KS:
            count = total if k is None else min(k, total)
            ts = TransitionSystem(aig, properties=aig.properties[:count])
            joint, t_joint = timed(
                lambda: joint_verify(
                    ts,
                    VerificationConfig(total_time=JOINT_BUDGET_S, design_name=name),
                )
            )
            ja, t_ja = timed(
                lambda: ja_verify(
                    ts,
                    VerificationConfig(
                        per_property_time=JA_PER_PROP_S,
                        design_name=name,
                    ),
                )
            )
            rows.append(
                [
                    name,
                    total,
                    count,
                    len(joint.unsolved()),
                    cell_time(t_joint),
                    len(ja.unsolved()),
                    cell_time(t_ja),
                ]
            )
    publish_table(
        "table02",
        "Table II: designs with a large number of properties (first k checked)",
        [
            "name",
            "#all props",
            "#tried",
            "joint #unsolved",
            "joint time",
            "JA #unsolved",
            "JA time",
        ],
        rows,
        note=(
            f"joint budget {JOINT_BUDGET_S:.0f}s/design, JA budget "
            f"{JA_PER_PROP_S:.0f}s/property (paper: 10h and 0.3h); "
            "r403 (joint-friendly exception): not reproduced since PR 14, "
            "back with compiled lifting; reported, not asserted"
        ),
    )
    return rows


@pytest.mark.benchmark(group="table02")
def test_table02_many_props(benchmark):
    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)
    by_design = {}
    for row in rows:
        by_design.setdefault(row[0], []).append(row)

    def seconds(cell):
        return float(cell.split()[0].replace(",", ""))

    # JA solves everything within budget on every design.
    assert all(row[5] == 0 for row in rows)
    # On the failing heterogeneous designs, JA beats joint at full k.
    for name in ("r400", "r355"):
        full = by_design[name][-1]
        assert full[3] > 0 or seconds(full[4]) > seconds(full[6])
