"""Table IV — designs where all properties are true: joint vs JA.

Expected shape: both methods solve everything; joint verification is
comparable and often slightly faster (one aggregate run amortizes the
shared work), which is exactly the paper's reading of its Table IV.
"""

from __future__ import annotations

import pytest

from repro.gen.families import all_true_designs
from repro.multiprop.ja import ja_verify
from repro.multiprop.joint import joint_verify
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem

from benchmarks._harness import cell_time, publish_table, timed

JOINT_BUDGET_S = 30.0
JA_PER_PROP_S = 10.0


def build_table():
    rows = []
    for name, aig in all_true_designs().items():
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
        winner = "joint" if t_joint <= t_ja else "JA"
        rows.append(
            [
                name,
                len(ts.latches),
                len(ts.properties),
                cell_time(t_joint),
                len(ja.unsolved()),
                cell_time(t_ja),
                winner,
            ]
        )
    publish_table(
        "table04",
        "Table IV: all properties are true (joint vs JA with clause re-use)",
        ["name", "#latch", "#prop", "joint time", "JA #unsolved", "JA time", "best"],
        rows,
        note="expected: comparable times, joint slightly ahead on most rows",
    )
    return rows


@pytest.mark.benchmark(group="table04")
def test_table04_all_true(benchmark):
    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)

    def seconds(cell):
        return float(cell.split()[0].replace(",", ""))

    # Everything is solved by both methods.
    assert all(row[4] == 0 for row in rows)
    # The methods stay within a small constant factor of each other.
    for row in rows:
        slow, fast = max(seconds(row[3]), seconds(row[5])), min(
            seconds(row[3]), seconds(row[5])
        )
        assert slow <= max(10 * fast, 0.5), row
