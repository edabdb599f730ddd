"""Table III — designs with failing properties: joint vs JA.

Paper layout: per design, the number of false (and true) properties each
method established, plus total times; JA additionally reports its
debugging set (the locally-false properties).

Expected shape: joint verification spends its budget chasing deep
counterexamples for the dominated properties; JA finds the small
debugging set quickly and proves everything else locally true.
"""

from __future__ import annotations

import pytest

from repro.gen.families import failing_designs
from repro.multiprop.ja import ja_verify
from repro.multiprop.joint import joint_verify
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem

from benchmarks._harness import cell_time, publish_table, timed

JOINT_BUDGET_S = 20.0
JA_PER_PROP_S = 5.0


def build_table():
    rows = []
    for name, aig in failing_designs().items():
        ts = TransitionSystem(aig)
        joint, t_joint = timed(
            lambda: joint_verify(
                ts,
                VerificationConfig(total_time=JOINT_BUDGET_S, design_name=name),
            )
        )
        ja, t_ja = timed(
            lambda: ja_verify(
                ts,
                VerificationConfig(per_property_time=JA_PER_PROP_S, design_name=name),
            )
        )
        rows.append(
            [
                name,
                len(ts.latches),
                len(ts.properties),
                f"{len(joint.false_props())} ({len(joint.true_props())})",
                cell_time(t_joint),
                f"{len(ja.debugging_set())} ({len(ja.true_props())})",
                len(ja.unsolved()),
                cell_time(t_ja),
            ]
        )
    publish_table(
        "table03",
        "Table III: designs with failed properties (joint vs JA with clause re-use)",
        [
            "name",
            "#latch",
            "#prop",
            "joint #false(#true)",
            "joint time",
            "JA #false(#true)",
            "JA #unsolved",
            "JA time",
        ],
        rows,
        note=(
            "JA '#false' = debugging set: properties that are the FIRST to "
            "break; many joint-false properties are locally true"
        ),
    )
    return rows


@pytest.mark.benchmark(group="table03")
def test_table03_failing(benchmark):
    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)

    def false_count(cell):
        return int(cell.split()[0])

    def seconds(cell):
        return float(cell.split()[0].replace(",", ""))

    # JA solves every property on every design within budget.
    assert all(row[6] == 0 for row in rows)
    # JA total time beats joint on every failing design.
    assert all(seconds(row[7]) < seconds(row[4]) for row in rows)
    # Debugging sets are no larger than joint's false sets, and strictly
    # smaller on the dependent-heavy designs.
    assert all(false_count(row[5]) <= max(false_count(row[3]), 1) for row in rows)
    by_name = {row[0]: row for row in rows}
    for name in ("f254", "f380", "f207"):
        assert false_count(by_name[name][5]) < false_count(by_name[name][3])
